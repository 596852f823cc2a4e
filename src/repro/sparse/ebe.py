"""Matrix-free Element-by-Element (EBE) operator (paper Eqs. 2, 8, 9).

Applies ``sum_e P_e^T (A_e (P_e x))`` without a global matrix.  The
sweep is laid out on **nodes**, not dofs — a C-contiguous ``(3*n_nodes,
r)`` block *is* ``(n_nodes, 3r)`` and ``(ne, 30, r)`` *is* ``(ne, 10,
3r)`` — so the index work touches a third of the rows, each three times
as long:

1. gather  — row gather of ``x``'s node view by the ``(ne, 10)``
   connectivity into the element buffer;
2. apply   — batched dense 30x30 mat-vec against the element matrices;
3. scatter — one CSR product of the 0/1 node-incidence matrix with the
   ``(10*ne, 3r)`` element results, straight into ``y``'s node view.

Summation order: every node adds its element contributions from zero in
ascending element order (incidence rows are a stable sort of the
connectivity) — deterministic, no atomics; the numba kernel and
:class:`~repro.sparse.distributed.DistributedEBE` keep the same order.

The fused multi-RHS path applies all ``r`` case vectors inside one
sweep — the paper's Eq. 9, which cuts the random access per case to
``1/r`` — within preallocated per-``r`` workspaces, so steady-state
applications (every ``pcg`` iteration of a campaign cell) allocate
nothing.

The host execution stores ``A_e`` in memory and runs the sweep through
:class:`~repro.sparse.backend.ArrayBackend` primitives (row gather /
batched apply / CSR product); the *modeled* device kernel the tally is
charged with recomputes element matrices on the fly like the paper's
OpenACC kernel, per :func:`repro.sparse.traffic.ebe_traffic` —
identically for every backend.
"""

from __future__ import annotations

import numpy as np

from repro.fem.assembly import element_dof_ids
from repro.sparse.backend import ArrayBackend, as_backend
from repro.sparse.precision import Precision, as_precision
from repro.sparse.traffic import ebe_traffic
from repro.util import counters

__all__ = ["EBEOperator"]


class _SweepWorkspace:
    """Buffers and the tally charge of one fused sweep width ``r``."""

    __slots__ = ("xe", "ye", "y", "x", "charge")

    def __init__(self, op: "EBEOperator", r: int) -> None:
        bk = op.backend
        self.xe = bk.empty((op.n_elems, 30, r))
        self.ye = bk.empty((op.n_elems, 30, r))
        self.y = bk.empty((op.n, r))
        self.x = None  # staging for strided operands, made on first use
        w = ebe_traffic(op.n_elems, op.n_nodes, n_rhs=r,
                        value_bytes=op.precision.itemsize)
        self.charge = (f"{op.tag}{r}", w.flops * r, w.bytes * r)


class EBEOperator:
    """Matrix-free SPD operator defined by per-element dense matrices.

    Parameters
    ----------
    elem_mats : (ne, 30, 30) effective element matrices (already
        Dirichlet-constrained; see
        :func:`repro.fem.assembly.apply_dirichlet_to_elements`).
    elems : (ne, 10) TET10 connectivity.
    n_nodes : global node count.
    tag : base kernel tag; the actual charge is ``f"{tag}{r}"`` so
        single- and multi-RHS sweeps are distinguishable
        (``spmv.ebe1``, ``spmv.ebe4``, ...).
    precision : storage policy for the element matrices and the fused
        gather buffers (the transprecision kernel): values are
        quantized to the format and the modeled vector traffic is
        charged at its itemsize.  Default fp64 — bit-identical to the
        precision-unaware operator.
    backend : execution engine for the sweep
        (:class:`~repro.sparse.backend.ArrayBackend`, registry name, or
        ``None`` for the ambient default); the modeled traffic is
        backend-independent.
    """

    def __init__(
        self,
        elem_mats: np.ndarray,
        elems: np.ndarray,
        n_nodes: int,
        tag: str = "spmv.ebe",
        precision: Precision | str | None = None,
        backend: "ArrayBackend | str | None" = None,
    ) -> None:
        self.precision = as_precision(precision)
        self.backend = as_backend(backend)
        elem_mats = np.asarray(elem_mats, dtype=float)
        ne, nd, nd2 = elem_mats.shape
        if nd != nd2 or nd != 3 * elems.shape[1]:
            raise ValueError("element matrices inconsistent with connectivity")
        if not self.precision.is_fp64:
            elem_mats = self.precision.quantize(elem_mats)
        self.Ae = elem_mats
        self.elems = np.asarray(elems, dtype=np.int64)
        self.n_nodes = int(n_nodes)
        self.tag = tag
        if self.elems.max() >= n_nodes:
            raise ValueError("connectivity references nodes beyond n_nodes")
        if self.elems.min() < 0:
            # the clip-mode gather and the CSR scatter rely on validated
            # indices; negatives would silently wrap instead of raising
            raise ValueError("connectivity references negative node ids")
        # Scatter plan, the 0/1 node-incidence matrix in CSR form: row i
        # lists the flat (element, local node) slots touching node i in
        # ascending element order (stable sort) — the summation order.
        slots = self.elems.ravel()
        indptr = np.zeros(self.n_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(slots, minlength=self.n_nodes), out=indptr[1:])
        self._incidence = (indptr, np.argsort(slots, kind="stable"),
                           np.ones(slots.size))  # indptr, indices, data
        self._ws: dict[int, _SweepWorkspace] = {}

    def _workspace(self, r: int) -> _SweepWorkspace:
        ws = self._ws.get(r)
        if ws is None:
            ws = self._ws[r] = _SweepWorkspace(self, r)
        return ws

    @property
    def shape(self) -> tuple[int, int]:
        n = 3 * self.n_nodes
        return (n, n)

    @property
    def n(self) -> int:
        return 3 * self.n_nodes

    @property
    def n_elems(self) -> int:
        return int(self.elems.shape[0])

    def memory_bytes(self) -> int:
        """Device footprint of the matrix-free kernel: connectivity +
        nodal coordinates + material, *not* the element matrices (the
        modeled kernel recomputes them; this is the paper's memory
        saving that allows 2 x 4 concurrent cases)."""
        return int(self.elems.nbytes // 2 + 24 * self.n_nodes + 16 * self.n_elems)

    def matvec(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Apply to ``(n,)`` or fused ``(n, r)`` vectors.

        ``out`` (block shape ``(n, r)``, C-contiguous, else
        ``ValueError``) receives the result without allocating;
        otherwise a fresh copy is returned (the sweep itself still runs
        in the workspace buffers, so callers may hold several results).
        """
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        X = x[:, None] if single else x
        n, r = X.shape
        if n != self.n:
            raise ValueError(f"operand size {n} != {self.n}")

        ws = self._workspace(r)
        Y = ws.y if out is None else out
        if Y.shape != (n, r):
            raise ValueError(f"out must have shape {(n, r)}, got {Y.shape}")
        if not Y.flags.c_contiguous:  # its node view would be a lost copy
            raise ValueError("out must be C-contiguous")
        self._sweep(X, Y, ws)
        counters.charge(*ws.charge)
        if single:
            return Y[:, 0].copy() if out is None else Y[:, 0]
        return Y.copy() if out is None else Y

    def _sweep(self, X: np.ndarray, Y: np.ndarray,
               ws: _SweepWorkspace) -> np.ndarray:
        """The gather/apply/scatter hot path on the node views, pure
        backend primitives (the connectivity is validated in-range at
        construction, so the gather needs no bounds re-checks)."""
        bk = self.backend
        ne, nn, r3 = self.n_elems, self.n_nodes, 3 * X.shape[1]
        if not X.flags.c_contiguous:  # a strided operand has no node view
            if ws.x is None:
                ws.x = bk.empty(X.shape)
            X = bk.copy(ws.x, X)
        bk.gather_rows(X.reshape(nn, r3), self.elems, ws.xe.reshape(ne, 10, r3))
        bk.quantize_store(ws.xe, self.precision)  # storage-format gather
        bk.batched_matmul(self.Ae, ws.xe, ws.ye)
        bk.spmv_csr(*self._incidence, ws.ye.reshape(10 * ne, r3),
                    Y.reshape(nn, r3))
        return Y

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)

    def diagonal_blocks(self) -> np.ndarray:
        """Assembled 3x3 diagonal blocks (for block-Jacobi), computed
        without forming the global matrix."""
        nb = self.n_nodes
        out = np.zeros((nb, 3, 3))
        ne, na = self.elems.shape
        # element-local diagonal blocks: (ne, na, 3, 3)
        idx = 3 * np.arange(na)
        for i in range(3):
            for j in range(3):
                vals = self.Ae[:, idx + i, :][:, np.arange(na), idx + j]  # (ne, na)
                np.add.at(out[:, i, j], self.elems.ravel(), vals.ravel())
        return out

    def to_dense(self) -> np.ndarray:
        """Assemble densely (tests only; small meshes)."""
        n = self.n
        A = np.zeros((n, n))
        for d, Ae in zip(element_dof_ids(self.elems), self.Ae):
            A[np.ix_(d, d)] += Ae
        return A
