"""Matrix-free Element-by-Element (EBE) operator (paper Eqs. 2, 8, 9).

Applies ``sum_e P_e^T (A_e (P_e x))`` without a global matrix, in
three backend primitives over ``(30*ne, r)`` element buffers:

1. gather  — row gather of ``x`` into the element buffer;
2. apply   — the 30x30 element matrices
   (:meth:`~repro.sparse.backend.ArrayBackend.grouped_matmul`);
3. scatter — one CSR product of a 0/1 incidence matrix with the element
   results, straight into ``y``.

Element classes: elements whose matrix inputs are equal (shape up to
translation, material, fixed and dashpot masks — labelled by
:func:`repro.core.problem.build_problem`) have equal matrices up to
rounding.  When the classes hold at least :data:`MIN_MEAN_CLASS_SIZE`
elements on average (:func:`class_groups`), the problem stores only each
class's representative — its lowest-id member's own matrix — and the
``(ne,)`` labels (1.4 MB of class matrices at ``(10, 10, 5)`` where the
per-element arrays took 86 MB).  Given labels, the buffers are
**class-blocked at dof level** — class by class in ascending size,
local dof by local dof, member by member — so the ``k_c`` members of
class ``c`` form one ``(30, k_c r)`` matrix at rows ``30 offsets[c]``,
and the classes of one size are one stacked ``matmul``: one call per
distinct size (10 at ``(6, 6, 3)`` for 36 classes), which still makes
one GEMM per class, so the bits are the per-class GEMMs'.  Without
labels the same layout is the ``(ne, 30, r)`` stack, swept on
**nodes** — a C-contiguous ``(3*n_nodes, r)`` block *is*
``(n_nodes, 3r)`` — so gather and scatter move a third of the rows.

Summation order: every node (dof) adds its element contributions from
zero in ascending *original* element order (incidence rows are a stable
sort of the element-major ids) — deterministic, no atomics, the same
with or without classes; :class:`~repro.cluster.halo.DistributedEBE`
keeps it.  The goldens pin
the stored sweep's bits; a grouped one agrees with the stored sweep
over the expanded representatives to rounding (the class GEMM blocks
its sums differently).

The fused multi-RHS path applies all ``r`` case vectors inside one
sweep — the paper's Eq. 9, which cuts the random access per case to
``1/r`` — within element buffers made once per width and per process
(one pair shared by all operators; the two case sets of a two-lane
heterogeneous step run in two processes, each with its own), so
steady-state applications (every ``pcg`` iteration of a campaign cell)
allocate nothing.

The host execution stores ``A_e`` (per element or per class) in memory
and runs the sweep through :class:`~repro.sparse.backend.ArrayBackend`
primitives (row gather / grouped apply / CSR product); the *modeled*
device kernel the tally is charged with recomputes element matrices on
the fly like the paper's OpenACC kernel, per
:func:`repro.sparse.traffic.ebe_traffic` — with or without classes.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.fem.assembly import element_dof_ids
from repro.sparse.backend import ArrayBackend, as_backend, check_out
from repro.sparse.precision import Precision, as_precision
from repro.sparse.traffic import ebe_traffic
from repro.util import counters

__all__ = ["EBEOperator", "MIN_MEAN_CLASS_SIZE", "class_groups"]

#: Fewest elements per class, on average, at which the sweep applies one
#: matrix per class, set when each member cost its own product.  With one
#: stacked product per class size grouping wins from about 5-6 (r = 8 at
#: par there) and by 1.15x at every width from about 9-10
#: (``benchmarks/results/ebe_classes.txt``); moving it regroups meshes.
MIN_MEAN_CLASS_SIZE = 16


def class_groups(classes: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The class form of elements labelled ``classes`` (any integers):
    ``(rep, labels)`` — each class's lowest-id member and every element's
    class in ``0..len(rep)-1`` — when the classes average at least
    :data:`MIN_MEAN_CLASS_SIZE` elements, else ``None`` (one matrix per
    element)."""
    _, rep, labels = np.unique(classes, return_index=True, return_inverse=True)
    return (rep, labels) if labels.size >= MIN_MEAN_CLASS_SIZE * rep.size else None


# the sweep buffers by (kind, shape), per process — one ``xe`` / ``ye``
# pair of each ``(30 ne, r)`` shared by every operator (A, M and C
# alike), plus staging for strided operands
_BUFFERS: dict[tuple[str, tuple[int, int]], np.ndarray] = {}


def _sweep_buffer(kind: str, shape: tuple[int, int]) -> np.ndarray:
    buf = _BUFFERS.get((kind, shape))
    if buf is None:
        buf = _BUFFERS[kind, shape] = np.empty(shape)
    return buf


class EBEOperator:
    """Matrix-free SPD operator defined by per-element dense matrices.

    Parameters
    ----------
    elem_mats : (ne, 30, 30) effective element matrices (already
        Dirichlet-constrained; see
        :func:`repro.fem.assembly.apply_dirichlet_to_elements`), or one
        per class when ``classes`` labels the elements.
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
    backend : the :class:`~repro.sparse.backend.ArrayBackend` the sweep
        runs on (``None``: the shared instance).
    classes : optional ``(ne,)`` labels indexing ``elem_mats``: the
        sweep applies ``elem_mats[classes[e]]`` to element ``e``, one
        matrix per class (see :func:`class_groups`).

    Attributes
    ----------
    Ae : the matrices the sweep applies — ``(ne, 30, 30)``, or one per
        class when grouped.
    classes : ``(ne,)`` class of each element (indexing ``Ae``) when
        grouped, else ``None``.
    """

    def __init__(
        self,
        elem_mats: np.ndarray,
        elems: np.ndarray,
        n_nodes: int,
        tag: str = "spmv.ebe",
        precision: Precision | str | None = None,
        backend: ArrayBackend | None = None,
        classes: np.ndarray | None = None,
    ) -> None:
        self.precision = as_precision(precision)
        self.backend = as_backend(backend)
        elem_mats = np.asarray(elem_mats, dtype=float)
        nm, nd, nd2 = elem_mats.shape
        ne = elems.shape[0]
        if nd != nd2 or nd != 3 * elems.shape[1] or (classes is None and nm != ne):
            raise ValueError("element matrices inconsistent with connectivity")
        self.elems = np.asarray(elems, dtype=np.int64)
        self.n_nodes = int(n_nodes)
        self._rows, self._ne = 3 * self.n_nodes, ne
        self.tag = tag
        if self.elems.max() >= n_nodes:
            raise ValueError("connectivity references nodes beyond n_nodes")
        if self.elems.min() < 0:
            # the clip-mode gather and the CSR scatter rely on validated
            # indices; negatives would silently wrap instead of raising
            raise ValueError("connectivity references negative node ids")
        self.classes = None
        if classes is not None:
            labels = np.asarray(classes, dtype=np.int64)
            if labels.shape != (ne,) or not (0 <= labels.min() <= labels.max() < nm):
                raise ValueError(f"expected one class label per element in "
                                 f"[0, {nm}), got shape {labels.shape}")
            self.classes = labels
        if not self.precision.is_fp64:
            elem_mats = self.precision.quantize(elem_mats)
        self.Ae = elem_mats
        self._lossy = not self.precision.is_fp64
        self._charges: dict[int, tuple] = {}  # r -> (tag, flops, bytes)

    @cached_property
    def _plan(self) -> tuple:
        """``(gather index, applied matrices, class offsets, incidence)``
        of the sweep, made on first application: an operator read only
        for its diagonal blocks never holds them."""
        ne = self.n_elems
        rows = self.elems  # buffer rows per element: its nodes, or its dofs
        labels, sizes, mats = np.arange(ne), np.ones(ne, dtype=np.int64), self.Ae
        if self.classes is not None:
            # class blocks in ascending size (stable), so equal-size
            # classes sit side by side and take one stacked product
            sizes = np.bincount(self.classes, minlength=len(self.Ae))
            order = np.argsort(sizes, kind="stable")
            rank = np.empty_like(order)
            rank[order] = np.arange(order.size)
            labels, sizes, mats = rank[self.classes], sizes[order], self.Ae[order]
            rows = (3 * rows[:, :, None] + np.arange(3)).reshape(ne, 30)
        # row q of member j (stable order) of class c is slot
        # q_e offsets[c] + q k_c + j, so class c's members form one
        # (30, k_c r) matrix; with one matrix per element, (ne, 30, r)
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        q_e = rows.shape[1]
        first = offsets[labels]
        member = np.empty(ne, dtype=np.int64)
        member[np.argsort(labels, kind="stable")] = np.arange(ne)
        slots = (q_e * first[:, None] + sizes[labels][:, None] * np.arange(q_e)
                 + (member - first)[:, None]).ravel()
        rows = rows.ravel()
        gather = np.empty_like(rows)
        gather[slots] = rows
        # the scatter, a 0/1 incidence matrix in CSR form: row i lists the
        # slots of node (dof) i in ascending element order (stable sort)
        # — the summation order
        n_rows = self.n * q_e // 30
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
        incidence = (indptr, slots[np.argsort(rows, kind="stable")], np.ones(rows.size))
        return gather, mats, offsets, incidence

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
        otherwise a fresh array is returned (the sweep itself runs in
        the process's element buffers).
        """
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        X = x[:, None] if single else x
        n, r = X.shape
        if n != self._rows:
            raise ValueError(f"operand size {n} != {self._rows}")

        check_out(out, X.shape)  # a strided block's row view would be a lost copy
        charge = self._charges.get(r)
        if charge is None:  # priced once per width, on first use
            w = ebe_traffic(self._ne, self.n_nodes, n_rhs=r,
                            value_bytes=self.precision.itemsize)
            charge = self._charges[r] = (
                f"{self.tag}{r}", w.flops * r, w.bytes * r)
        counters.charge(*charge)
        Y = self.backend.empty(X.shape) if out is None else out
        self._sweep(X, Y)
        return Y[:, 0] if single else Y

    def _sweep(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """The gather/apply/scatter hot path over rows of ``w`` values
        (a node's or a dof's), pure backend primitives (the connectivity
        is validated in-range at construction, so the gather needs no
        bounds re-checks)."""
        bk = self.backend
        if not X.flags.c_contiguous:  # the primitives take C-contiguous blocks
            X = bk.copy(_sweep_buffer("x", X.shape), X)
        gather, mats, offsets, incidence = self._plan
        r = X.shape[1]
        shape = (30 * self._ne, r)
        xe, ye = _sweep_buffer("xe", shape), _sweep_buffer("ye", shape)
        w = r if self.classes is not None else 3 * r  # row width
        bk.gather_rows(X.reshape(-1, w), gather, xe.reshape(-1, w))
        if self._lossy:  # storage-format gather (fp64 stores as it is)
            bk.quantize_store(xe, self.precision)
        bk.grouped_matmul(mats, offsets, xe, ye)
        bk.spmv_csr(*incidence, ye.reshape(-1, w), Y.reshape(-1, w))
        return Y

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)

    def diagonal_blocks(self) -> np.ndarray:
        """Assembled 3x3 diagonal blocks (for block-Jacobi), computed
        without forming the global matrix."""
        nb = self.n_nodes
        out = np.zeros((nb, 3, 3))
        ne, na = self.elems.shape
        # local diagonal blocks of the applied matrices, then per element
        # in ascending element order
        idx = 3 * np.arange(na)
        for i in range(3):
            for j in range(3):
                vals = self.Ae[:, idx + i, :][:, np.arange(na), idx + j]  # (nA, na)
                if self.classes is not None:
                    vals = vals[self.classes]
                np.add.at(out[:, i, j], self.elems.ravel(), vals.ravel())
        return out

    def to_dense(self) -> np.ndarray:
        """Assemble densely (tests only; small meshes)."""
        n = self.n
        A = np.zeros((n, n))
        mats = self.Ae if self.classes is None else self.Ae[self.classes]
        for d, Ae in zip(element_dof_ids(self.elems), mats):
            A[np.ix_(d, d)] += Ae
        return A
