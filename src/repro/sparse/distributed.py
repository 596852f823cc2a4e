"""Distributed preconditioned CG on part-local vectors (paper §2.2).

The paper's headline runs solve on *partitions*: every rank keeps the
dof values of the nodes its elements touch, runs the EBE sweep locally,
point-to-point-synchronizes shared nodes after every operator
application, and allreduces the CG scalars.  :func:`distributed_pcg`
is that algorithm executed literally on host memory: one local vector
block per part, a halo exchange (via the cached
:class:`~repro.cluster.halo.DistributedEBE` exchange plan) after each
local sweep, block-Jacobi preconditioning from the globally-consistent
diagonal blocks restricted per part, and dot products reduced
deterministically — per-part partial sums over *owned* dofs (lowest
touching part owns a node), accumulated in ascending part order.

Bit-identity guarantee
----------------------
``distributed_pcg`` mirrors :func:`repro.sparse.cg.pcg` operation for
operation.  Running the fused global solve with the same operator and
the matching :class:`PartitionedReduction`::

    red = PartitionedReduction(dist.owned_global_dofs)
    ref = pcg(dist, B, x0=G, precond=BlockJacobi(dist.diagonal_blocks()),
              reduction=red)

produces **bit-identical** displacements, iteration counts and
residual histories to the part-local loop at any part count — the
halo tests' exactness guarantee extended to full solves, and the
property that makes the per-part refactor safe (asserted by
:mod:`tests.sparse.test_distributed_pcg` at nparts 1/2/4/8).  Against
the plain single-operator solve the results agree to rounding (the
partitioned reduction and part-grouped scatter order flops
differently, nothing more).
"""

from __future__ import annotations

import numpy as np

from repro.sparse.backend import ArrayBackend, as_backend
from repro.sparse.cg import (CGResult, _charge_vec_iters, _guarded_divide,
                             _mark_crossings, _store_fn)
from repro.sparse.precision import Precision, as_precision
from repro.sparse.precond import BlockJacobi
from repro.util import counters

__all__ = [
    "PartitionedReduction",
    "DistributedPCGWorkspace",
    "part_block_jacobi",
    "distributed_pcg",
]


class PartitionedReduction:
    """Deterministic partitioned dot products for :func:`~repro.sparse.cg.pcg`.

    ``groups`` are the per-part *owned* global dof index arrays (a
    permutation of all dofs when concatenated).  ``dot``/``norm``
    accumulate the per-group partial sums in ascending part order —
    exactly the arithmetic of the distributed solver's allreduce, which
    is what makes the fused reference solve bit-identical to the
    part-local loop.
    """

    def __init__(self, groups: list[np.ndarray],
                 backend: "ArrayBackend | str | None" = None) -> None:
        self.groups = [np.asarray(g, dtype=np.int64) for g in groups]
        self.backend = as_backend(backend)
        self._partial: np.ndarray | None = None

    def dot(self, V: np.ndarray, W: np.ndarray, out: np.ndarray) -> np.ndarray:
        partial = self._partial
        if partial is None or partial.shape != out.shape:
            partial = self._partial = np.empty_like(out)
        out[...] = 0.0
        for g in self.groups:
            self.backend.colwise_dot(V[g], W[g], partial)
            out += partial
        return out

    def norm(self, V: np.ndarray, out: np.ndarray) -> np.ndarray:
        self.dot(V, V, out)
        return self.backend.sqrt_(out)


def part_block_jacobi(dist) -> list[BlockJacobi]:
    """Per-part block-Jacobi preconditioners from the globally-consistent
    diagonal blocks of a :class:`~repro.cluster.halo.DistributedEBE`.

    Each part inverts the blocks of every node it touches (owned and
    ghost), so the preconditioner application needs no communication —
    and the per-node inverses are the same 3x3 inverses the fused
    ``BlockJacobi(dist.diagonal_blocks())`` holds.  The operator's
    storage precision carries over, so per-part inverses are quantized
    exactly like the fused preconditioner at the same policy.
    """
    blocks = dist.diagonal_blocks()
    prec = getattr(dist, "precision", None)
    bk = getattr(dist, "backend", None)
    return [
        BlockJacobi(blocks[nodes], precision=prec, backend=bk)
        for nodes in dist.local_to_global
    ]


class DistributedPCGWorkspace:
    """Preallocated per-part blocks for :func:`distributed_pcg`.

    One instance serves any sequence of solves; buffers are
    (re)allocated only when the per-part sizes or the RHS count change,
    so the steady-state distributed loop allocates nothing but the
    halo-exchange staging buffers (the literal MPI send buffers).
    """

    __slots__ = ("key", "R", "Z", "P", "Q", "T", "S", "VO", "WO",
                 "RG", "ZG", "VC",
                 "rho", "rho_prev", "alpha", "beta", "relres", "work",
                 "partial")

    def __init__(self) -> None:
        self.key: tuple | None = None

    def ensure(self, sizes: tuple[int, ...], owned: tuple[int, ...], r: int,
               backend: "ArrayBackend | None" = None,
               global_rows: int = 0) -> None:
        bk = as_backend("numpy") if backend is None else backend
        if self.key == (sizes, owned, r, bk.name, global_rows):
            return
        self.key = (sizes, owned, r, bk.name, global_rows)
        for name in ("R", "Z", "P", "Q", "T", "S"):
            setattr(self, name, [bk.empty((ld, r)) for ld in sizes])
        for name in ("VO", "WO"):
            setattr(self, name, [bk.empty((od, r)) for od in owned])
        # full-vector staging for a *global* preconditioner (two-grid):
        # assembled residual, corrected block, and the owned-row wire
        # buffer — only allocated when such a preconditioner is in play
        for name in ("RG", "ZG", "VC"):
            setattr(self, name,
                    bk.empty((global_rows, r)) if global_rows else None)
        # CG scalars stay host-side fp64 regardless of backend
        for name in ("rho", "rho_prev", "alpha", "beta", "relres", "work",
                     "partial"):
            setattr(self, name, np.empty(r))


def _restrict(V: np.ndarray, gdofs: list[np.ndarray]) -> list[np.ndarray]:
    """Per-part local copies of a global block (the initial scatter)."""
    return [V[g] for g in gdofs]


def distributed_pcg(
    dist,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    local_preconds: list[BlockJacobi] | None = None,
    precond=None,
    eps: float = 1e-8,
    max_iter: int = 10_000,
    record_history: bool = False,
    workspace: DistributedPCGWorkspace | None = None,
    precision: Precision | str | None = None,
    backend: "ArrayBackend | str | None" = None,
) -> CGResult:
    """Solve ``A x = b`` by CG iterating on part-local vector blocks.

    Parameters
    ----------
    dist : :class:`~repro.cluster.halo.DistributedEBE` (defines the
        partitioned operator, the halo-exchange plan and dof ownership).
    b : ``(n,)`` or ``(n, r)`` global right-hand side(s); scattered to
        parts once up front (how the ranks would receive their slices).
    x0 : optional global initial guess(es), same shape as ``b``.
    local_preconds : per-part block-Jacobi preconditioners; built with
        :func:`part_block_jacobi` when omitted.
    precond : optional *global* preconditioner (anything with
        ``apply(r, out=) -> out``, e.g. a
        :class:`~repro.sparse.twogrid.TwoGrid`).  When given it
        replaces the part-local preconditioners: each iteration the
        owned residual rows are assembled into a full vector (the
        allgather an MPI implementation would run — its wire bytes are
        charged on the ``halo.exchange.precond`` tag so the modeled
        comm/device split stays honest), preconditioned once, and the
        corrected block rescattered to the parts' owned+ghost rows.
        Mutually exclusive with ``local_preconds``.
    eps, max_iter, record_history : as in :func:`~repro.sparse.cg.pcg`.
    workspace : reusable :class:`DistributedPCGWorkspace`; pass the
        same instance across solves of one case set to keep the loop
        free of heap traffic.
    precision : transprecision storage policy for the part-local
        working vectors (as in :func:`~repro.sparse.cg.pcg`); defaults
        to the operator's own policy (``dist.precision``), so a
        distributed operator built at fp21 solves at fp21 without
        repeating the argument.  The bit-identity guarantee against
        the fused reference holds at fp64 (the default).
    backend : execution engine for the part-local vector loop; defaults
        to the operator's own (``dist.backend``), like ``precision``.
        The ``numpy`` backend is bit-identical to the pre-seam loop and
        the modeled traffic is backend-independent.

    Returns the same :class:`~repro.sparse.cg.CGResult` as the fused
    solver; ``x`` is assembled from each part's owned dofs.
    """
    prec = (
        as_precision(precision)
        if precision is not None
        else as_precision(getattr(dist, "precision", None))
    )
    bk = (
        as_backend(backend)
        if backend is not None
        else as_backend(getattr(dist, "backend", None))
    )
    b = np.asarray(b, dtype=float)
    single = b.ndim == 1
    B = b[:, None] if single else b
    n, r = B.shape
    if n != dist.n:
        raise ValueError(f"rhs size {n} != operator size {dist.n}")

    gdofs = dist.local_global_dofs
    owned_l = dist.owned_local_dofs
    nparts = dist.nparts
    if precond is not None:
        if local_preconds is not None:
            raise ValueError("pass local_preconds or a global precond, not both")
    else:
        if local_preconds is None:
            local_preconds = part_block_jacobi(dist)
        if len(local_preconds) != nparts:
            raise ValueError("one local preconditioner per part required")

    ws = workspace if workspace is not None else DistributedPCGWorkspace()
    ws.ensure(
        tuple(g.size for g in gdofs), tuple(o.size for o in owned_l), r,
        backend=bk, global_rows=n if precond is not None else 0,
    )
    R, Z, P, Q, T, S = ws.R, ws.Z, ws.P, ws.Q, ws.T, ws.S
    rho, rho_prev, alpha, beta = ws.rho, ws.rho_prev, ws.alpha, ws.beta
    relres, work, partial = ws.relres, ws.work, ws.partial

    Bp = _restrict(B, gdofs)
    if x0 is None:
        Xp = [np.zeros((g.size, r)) for g in gdofs]
    else:
        x0 = np.asarray(x0, dtype=float)
        X0 = x0[:, None] if x0.ndim == 1 else x0
        if X0.shape != (n, r):
            raise ValueError(f"expected x0 shape {(n, r)}, got {X0.shape}")
        Xp = _restrict(X0, gdofs)

    store = _store_fn(bk, prec)

    def owned_dot(Vp: list[np.ndarray], Wp: list[np.ndarray],
                  out: np.ndarray) -> np.ndarray:
        """Partial dots over owned dofs, reduced in canonical part
        order — the deterministic allreduce (one partial per rank)."""
        out[...] = 0.0
        for p in range(nparts):
            bk.gather_rows(Vp[p], owned_l[p], ws.VO[p])
            bk.gather_rows(Wp[p], owned_l[p], ws.WO[p])
            bk.colwise_dot(ws.VO[p], ws.WO[p], partial)
            out += partial
        return out

    def owned_norm(Vp: list[np.ndarray], out: np.ndarray) -> np.ndarray:
        owned_dot(Vp, Vp, out)
        return bk.sqrt_(out)

    def apply_A(Vp: list[np.ndarray], out: list[np.ndarray]) -> list[np.ndarray]:
        """Local EBE sweeps + halo exchange (comm charged by the plan)."""
        for p, op in enumerate(dist.local_ops):
            op.matvec(Vp[p], out=S[p])
        return dist.halo_exchange(S, out=out)

    if precond is not None:
        # owned-row offsets into the concatenated wire buffer, and the
        # global permutation the scatter lands them on
        counts = [o.size for o in owned_l]
        offs = [0]
        for c in counts:
            offs.append(offs[-1] + c)
        perm = np.concatenate(
            [np.asarray(g, dtype=np.int64) for g in dist.owned_global_dofs]
        )
        comm_bytes = 2.0 * prec.itemsize * n * r  # residual up, correction down

        def apply_precond() -> None:
            """Global cycle: assemble owned rows into a full-vector
            residual, precondition once, rescatter owned+ghost rows."""
            for p in range(nparts):
                bk.gather_rows(R[p], owned_l[p], ws.VC[offs[p]:offs[p + 1]])
            bk.scatter_rows(ws.RG, perm, ws.VC)
            counters.charge("halo.exchange.precond", 0.0, comm_bytes)
            precond.apply(ws.RG, out=ws.ZG)
            for p in range(nparts):
                bk.gather_rows(ws.ZG, gdofs[p], Z[p])
                store(Z[p])
    else:

        def apply_precond() -> None:
            for p in range(nparts):
                local_preconds[p].apply(R[p], out=Z[p])
                store(Z[p])

    norm_b = owned_norm(Bp, np.empty(r))
    zero_rhs = norm_b == 0.0
    denom = np.where(zero_rhs, 1.0, norm_b)

    apply_A(Xp, out=R)
    for p in range(nparts):
        bk.subtract(Bp[p], R[p], R[p])
        store(R[p])
    owned_norm(R, relres)
    relres /= denom
    initial_relres = relres.copy()
    history = [relres.copy()] if record_history else None

    iterations = np.zeros(r, dtype=np.int64)
    done = (relres < eps) | zero_rhs

    for Pp in P:
        bk.fill(Pp, 0.0)
    rho_prev.fill(1.0)
    loop_it = 0
    n_open = r - int(done.sum())

    while n_open and loop_it < max_iter:
        loop_it += 1
        frozen = done if n_open < r else None
        apply_precond()
        owned_dot(Z, R, rho)
        # beta = rho/rho_prev with converged/zero columns frozen at 0
        # (the exact scalar dance of repro.sparse.cg.pcg).
        _guarded_divide(rho, rho_prev, beta, frozen)
        if loop_it == 1:
            beta.fill(0.0)
        for p in range(nparts):
            bk.xpay_cols(P[p], beta, Z[p])
            store(P[p])
        apply_A(P, out=Q)
        for p in range(nparts):
            store(Q[p])
        owned_dot(P, Q, work)
        _guarded_divide(rho, work, alpha, frozen)
        for p in range(nparts):
            bk.axpy_cols(Xp[p], alpha, P[p], T[p])
            bk.axmy_cols(R[p], alpha, Q[p], T[p])
            store(R[p])
        rho, rho_prev = rho_prev, rho

        owned_norm(R, relres)
        relres /= denom
        if record_history:
            history.append(relres.copy())
        n_open -= _mark_crossings(relres, eps, done, iterations, loop_it)

    # storage-width r/z/p/q streams + the fp64 solution read and write,
    # per part — the exact split of the fused loop's charge
    for g in gdofs:
        _charge_vec_iters(g.size, r, prec, loop_it)
    iterations[~done] = loop_it
    final_relres = relres.copy()

    # gather: each part contributes its owned dofs exactly once
    X = np.empty((n, r))
    for p in range(nparts):
        X[dist.owned_global_dofs[p]] = Xp[p][owned_l[p]]
    out_x = X[:, 0] if single else X
    return CGResult(
        x=out_x,
        iterations=iterations if not single else iterations[:1],
        loop_iterations=loop_it,
        converged=done if not single else done[:1],
        initial_relres=initial_relres if not single else initial_relres[:1],
        final_relres=final_relres if not single else final_relres[:1],
        residual_history=np.asarray(history) if record_history else None,
    )
