"""Geometric two-grid preconditioner for the implicit wavefield solves.

Block-Jacobi alone cannot move long-wavelength error: on the
``soft-soil`` scenario its CG iteration counts blow up with resolution
(that scenario exists to expose exactly this regime).  The classical
fix is a coarse-grid correction: damped block-Jacobi smoothing on the
fine mesh kills the high-frequency error, a direct solve on the
coarsened companion mesh (:func:`repro.fem.mesh.coarsen_mesh`) kills
the smooth remainder, and finite-element interpolation
(:mod:`repro.fem.transfer`) moves residuals/corrections between the
levels.

The symmetric cycle implemented by :meth:`TwoGrid.apply` is, per
application with ``n_smooth = s``::

    z = 0
    s x damped block-Jacobi sweeps   z += omega B^-1 (r - A z)
    coarse correction                z += P A_c^-1 P^T (r - A z)
    s x damped block-Jacobi sweeps   z += omega B^-1 (r - A z)

With the Galerkin coarse operator ``A_c = P^T A P``, an exact coarse
solve, and ``omega < 2 / lambda_max(B^-1 A)`` (estimated here by a
deterministic power method with a safety margin) the induced operator
is symmetric positive definite — a legal CG preconditioner — so
:func:`~repro.sparse.cg.pcg` accepts it anywhere it accepts
:class:`~repro.sparse.precond.BlockJacobi`.

Seam discipline: the hot cycle (:meth:`TwoGrid._cycle`,
:meth:`TwoGrid._residual`) dispatches only through
:class:`~repro.sparse.backend.ArrayBackend` primitives (``prolong`` /
``restrict`` / ``fill`` / ``subtract`` / ``axpy_cols`` plus the
smoother's and operator's own seam kernels) and is covered by the AST
kernel-purity lint.  The coarse level is the deliberate boundary: the
direct solve runs host-side through a prefactorized SuperLU object
(:class:`DirectCoarseSolve`) — like the CG recurrence scalars, it is
small host work, and its modeled cost is still charged
(:func:`~repro.sparse.traffic.coarse_solve_traffic`).

Modeled traffic is charged from sizes only, on dedicated tags: ``twogrid.smooth`` (smoother sweeps),
``twogrid.transfer`` (restriction + prolongation),
``twogrid.coarse`` (direct solve), ``twogrid.vec`` (residual/update
streams); fine-operator applications charge their own ``spmv.*`` tag.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.fem.transfer import TransferOperators
from repro.sparse.backend import ArrayBackend, apply_staged, as_backend, check_out
from repro.sparse.precision import Precision, as_precision
from repro.sparse.precond import BlockJacobi
from repro.sparse.traffic import (
    coarse_solve_traffic,
    transfer_traffic,
    vector_traffic,
)
from repro.util import counters
from repro.util.lanes import LaneLocal

__all__ = [
    "DirectCoarseSolve",
    "TwoGrid",
    "build_twogrid",
    "estimate_smoothing_omega",
]

#: Power-method iterations for the smoothing-weight estimate.  Fixed
#: (never adaptive) so the weight — and therefore every iterate — is a
#: pure function of the operator.
_POWER_ITERS = 24

#: Headroom on the estimated ``lambda_max(B^-1 A)``: the power method
#: approaches from below, and SPD-ness of the symmetric cycle requires
#: ``omega * lambda_max < 2`` strictly.
_OMEGA_SAFETY = 1.1


def estimate_smoothing_omega(
    A_csr: sp.csr_matrix, inv_blocks: np.ndarray
) -> float:
    """Damped-Jacobi weight ``omega = 4 / (3 * lambda_max(B^-1 A))``.

    ``lambda_max`` comes from a fixed-iteration power method with a
    deterministic start vector (host fp64, construction-time only).
    The 4/3 numerator is the classical smoothing-optimal choice; with
    the safety margin the product ``omega * lambda_max`` stays well
    below the SPD bound of 2.
    """
    n = A_csr.shape[0]
    nb = n // 3
    v = np.full(n, 1.0 / np.sqrt(n))
    lam = 1.0
    for _ in range(_POWER_ITERS):
        w = (inv_blocks @ (A_csr @ v).reshape(nb, 3, 1)).reshape(n)
        lam = float(np.linalg.norm(w))
        if lam == 0.0:
            return 1.0
        v = w / lam
    return 4.0 / (3.0 * _OMEGA_SAFETY * lam)


class DirectCoarseSolve:
    """Prefactorized sparse direct solve of the coarse operator.

    SuperLU-factorized once at construction; every application is two
    triangular sweeps, charged through
    :func:`~repro.sparse.traffic.coarse_solve_traffic` (fp64: the
    coarse level is host work and stays full precision).
    """

    def __init__(self, A_c: sp.spmatrix, tag: str = "twogrid.coarse") -> None:
        from scipy.sparse.linalg import splu

        self.n = int(A_c.shape[0])
        self._lu = splu(sp.csc_matrix(A_c))
        self.factor_nnz = int(self._lu.L.nnz + self._lu.U.nnz)
        self.tag = tag

    def apply(self, rc: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        rc = np.asarray(rc, dtype=np.float64)
        n_rhs = 1 if rc.ndim == 1 else rc.shape[1]
        w = coarse_solve_traffic(self.factor_nnz, self.n)
        counters.charge(self.tag, w.flops * n_rhs, w.bytes * n_rhs)
        x = self._lu.solve(rc)
        if out is None:
            return x
        np.copyto(out, x)
        return out


class TwoGrid:
    """The symmetric two-grid cycle as a drop-in CG preconditioner.

    Build through :func:`build_twogrid` (which owns the row masking,
    Galerkin product, and smoothing-weight estimate); the constructor
    only wires prebuilt parts together.  ``coarse_solve`` is anything
    with ``apply(rc, out=) -> out`` — here a :class:`DirectCoarseSolve`.
    """

    def __init__(
        self,
        A,
        transfer: TransferOperators,
        smoother: BlockJacobi,
        coarse_solve,
        omega: float,
        *,
        n_smooth: int = 1,
        tag: str = "twogrid",
        precision: Precision | str | None = None,
        backend: ArrayBackend | None = None,
    ) -> None:
        if n_smooth < 1:
            raise ValueError("need at least one smoothing sweep per side")
        if not 0.0 < float(omega):
            raise ValueError("smoothing weight must be positive")
        self.precision = as_precision(precision)
        self.backend = as_backend(backend)
        self.A = A
        self.smoother = smoother
        self.coarse_solve = coarse_solve
        self.omega = float(omega)
        self.n_smooth = int(n_smooth)
        self.tag = tag
        self.n_fine_nodes = transfer.n_fine
        self.n_coarse_nodes = transfer.n_coarse
        self._nnz = transfer.nnz
        # private quantized copies: the weights are streamed at the
        # storage precision, like every other solver-side operand
        self._p_indptr = transfer.p_indptr
        self._p_indices = transfer.p_indices
        self._p_data = self.precision.quantize_(transfer.p_data.copy())
        self._r_indptr = transfer.r_indptr
        self._r_indices = transfer.r_indices
        self._r_data = self.precision.quantize_(transfer.r_data.copy())
        # per lane (thread): n_rhs -> the cycle's working blocks
        self._lane = LaneLocal(buffers=dict)

    @property
    def n(self) -> int:
        return 3 * self.n_fine_nodes

    def _ensure(self, n_rhs: int) -> tuple:
        buffers = self._lane.buffers
        buf = buffers.get(n_rhs)
        if buf is None:
            bk = self.backend
            buf = (
                bk.empty((self.n, n_rhs)),  # D: residual
                bk.empty((self.n, n_rhs)),  # W: smoother / prolonged corr
                bk.empty((3 * self.n_coarse_nodes, n_rhs)),  # RC
                bk.empty((3 * self.n_coarse_nodes, n_rhs)),  # EC
                np.full(n_rhs, self.omega),  # host fp64 column weights
                np.ones(n_rhs),
            )
            buffers[n_rhs] = buf
        return buf

    def _charge(self, n_rhs: int) -> None:
        """Modeled cost of the glue this cycle runs *besides* the
        self-charging smoother / fine-operator / coarse-solver calls:
        both transfers, and the residual/update vector streams."""
        itemsize = self.precision.itemsize
        wt = transfer_traffic(self._nnz, self.n_coarse_nodes,
                              self.n_fine_nodes, value_bytes=itemsize)
        counters.charge(f"{self.tag}.transfer",
                        2 * wt.flops * n_rhs, 2 * wt.bytes * n_rhs)
        # per cycle: 2*n_smooth scaled updates (z += omega*w), 2*n_smooth
        # residuals (d = r - A z; the A part self-charges), and one
        # correction add — each streams ~2 reads + 1 write per entry
        n_ops = 4 * self.n_smooth + 1
        wv = vector_traffic(self.n, n_reads=2 * n_ops, n_writes=n_ops,
                            flops_per_entry=2.0 * n_ops, value_bytes=itemsize)
        counters.charge(f"{self.tag}.vec", wv.flops * n_rhs, wv.bytes * n_rhs)

    def apply(self, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``z = M r`` for ``(n,)`` or ``(n, nrhs)`` inputs; the cycle
        writes into ``out`` (``r``'s shape, C-contiguous) — the hot path
        then allocates nothing after the first call at each width — or
        into a fresh array.  Sizes are checked before anything is
        charged or run.
        """
        r = np.asarray(r)
        if r.shape[0] != self.n:
            raise ValueError(f"operand size {r.shape[0]} != {self.n}")
        check_out(out, r.shape)
        self._charge(1 if r.ndim == 1 else r.shape[1])
        return apply_staged(self._cycle, r, out, self.backend)

    # -- hot cycle (backend primitives only; AST-linted) --------------
    def _cycle(self, R, out):
        bk = self.backend
        D, W, RC, EC, om, one = self._ensure(R.shape[1])
        # pre-smooth from z = 0: the first sweep is z = omega B^-1 r
        self.smoother.apply(R, out=W)
        bk.fill(out, 0.0)
        bk.axpy_cols(out, om, W, D)
        for _ in range(self.n_smooth - 1):
            self._residual(R, out, D)
            self.smoother.apply(D, out=W)
            bk.axpy_cols(out, om, W, D)
        # coarse correction: z += P A_c^-1 R (r - A z)
        self._residual(R, out, D)
        bk.restrict(self._r_indptr, self._r_indices, self._r_data, D, RC)
        self.coarse_solve.apply(RC, out=EC)
        bk.prolong(self._p_indptr, self._p_indices, self._p_data, EC, W)
        bk.axpy_cols(out, one, W, D)
        # post-smooth (same count: the cycle must stay symmetric)
        for _ in range(self.n_smooth):
            self._residual(R, out, D)
            self.smoother.apply(D, out=W)
            bk.axpy_cols(out, om, W, D)
        return out

    def _residual(self, R, Z, D):
        """``D = R - A Z`` through the operator's own seam kernel."""
        self.A.matvec(Z, out=D)
        self.backend.subtract(R, D, D)
        return D

    def __matmul__(self, r: np.ndarray) -> np.ndarray:
        return self.apply(r)


def _mask_fixed_rows(
    transfer: TransferOperators, fixed_nodes: np.ndarray | None
) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Node-level ``(P, R)`` with Dirichlet-node rows of ``P`` zeroed.

    Constrained fine dofs carry identity rows in ``A`` and zero
    residuals; zeroing their interpolation weights keeps the coarse
    correction inside the free subspace (the prolongated update never
    writes onto fixed dofs), while ``R = P^T`` keeps the cycle
    symmetric.  Weights are zeroed in place of the *copied* values —
    the structural nnz (and the traffic model) is unchanged.
    """
    P = transfer.prolongation_matrix()
    if fixed_nodes is not None and len(fixed_nodes):
        rows = np.repeat(
            np.arange(transfer.n_fine), np.diff(transfer.p_indptr)
        )
        P.data[np.isin(rows, np.asarray(fixed_nodes))] = 0.0
    R = P.T.tocsr()
    R.sort_indices()
    return P, R


def build_twogrid(
    A,
    A_csr: sp.csr_matrix,
    transfer: TransferOperators,
    diag_blocks: np.ndarray,
    *,
    fixed_nodes: np.ndarray | None = None,
    n_smooth: int = 1,
    tag: str = "twogrid",
    precision: Precision | str | None = None,
    backend: ArrayBackend | None = None,
) -> TwoGrid:
    """Assemble a two-grid preconditioner for ``A``.

    Two levels only: a third (an intermediate level smoothing over its
    Galerkin operator, direct solve one level deeper) never saved a CG
    iteration and cost 4-8% more modeled time than two on every
    scenario and resolution in reach (CHANGES, PR 24).

    Parameters
    ----------
    A : fine-level operator with ``matvec(V, out=)`` (EBE, BlockCRS, ...) —
        what the cycle applies in its residuals, charging its own tag.
    A_csr : the same operator assembled as a dof-level scipy CSR; used
        host-side for the Galerkin product and the smoothing-weight
        estimate, then discarded.
    transfer : the fine-to-coarse
        :class:`~repro.fem.transfer.TransferOperators`.
    diag_blocks : ``(nb, 3, 3)`` fine-level diagonal blocks for the
        smoother.
    fixed_nodes : Dirichlet node ids whose interpolation rows are
        masked (see :func:`_mask_fixed_rows`).
    """
    prec = as_precision(precision)
    bk = as_backend(backend)
    if 3 * transfer.n_fine != A_csr.shape[0]:
        raise ValueError("transfer fine size does not match the operator")
    P, R = _mask_fixed_rows(transfer, fixed_nodes)
    P_dof = sp.kron(P, sp.eye(3), format="csr")
    A_c = sp.csr_matrix(P_dof.T @ A_csr @ P_dof)
    masked = TransferOperators(
        n_fine=transfer.n_fine,
        n_coarse=transfer.n_coarse,
        p_indptr=P.indptr.astype(np.int64),
        p_indices=P.indices.astype(np.int64),
        p_data=P.data,
        r_indptr=R.indptr.astype(np.int64),
        r_indices=R.indices.astype(np.int64),
        r_data=R.data,
    )
    smoother = BlockJacobi(
        diag_blocks, tag=f"{tag}.smooth", precision=prec, backend=bk
    )
    omega = estimate_smoothing_omega(A_csr, smoother._inv)
    return TwoGrid(
        A, masked, smoother, DirectCoarseSolve(A_c, tag=f"{tag}.coarse"),
        omega, n_smooth=n_smooth, tag=tag, precision=prec, backend=bk,
    )
