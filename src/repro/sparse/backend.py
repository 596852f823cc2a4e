"""The array seam: the one primitive set the sparse hot paths run on.

The reproduction executes every kernel in NumPy while device time is
*modeled* from analytic traffic tallies.  This module is the seam that
separates the two concerns: the solver hot loops (``cg``, ``ebe``,
``bcrs``, ``distributed`` and the block-Jacobi ``precond``, the one
preconditioner) and the data-driven
predictor's history regression (``predictor.datadriven``) are written
purely against the :class:`ArrayBackend` primitives below, and no hot
loop calls NumPy on a work array directly
(``tests/sparse/test_kernel_purity.py``).  The *modeled* flop/byte
tallies (:mod:`repro.sparse.traffic`) are charged by the operator
wrappers outside the seam.

Every primitive makes the roundings the pre-seam hot loops made, in
the same order, so execution is **bit-identical** to the historical
code on every path a golden reaches (the committed golden fixtures pin
this).  *Which* kernel makes them is chosen by the operand's shape: one
vector takes scipy's single-vector SpMV, a large block is scaled
through a wide view.  The grouped EBE apply (one GEMM per element
class; no golden groups) agrees with the stored sweep to rounding.

There is one engine.  The seam stays a class because it owns the
per-lane scratch (:class:`~repro.util.lanes.LaneLocal`) and because a
test can hand any constructor (or ``pcg``) a subclass that counts or
regroups its primitives; :func:`as_backend` resolves ``None`` to one
shared instance.
"""

from __future__ import annotations

import numpy as np

from repro.util.lanes import LaneLocal

try:  # scipy's C kernels that accumulate A @ X into a caller buffer
    from scipy.sparse import _sparsetools as _spt

    _csr_matvec = getattr(_spt, "csr_matvec", None)  # one vector
    _csr_matvecs = getattr(_spt, "csr_matvecs", None)  # (n, r) block
except ImportError:  # pragma: no cover - scipy always ships them today
    _csr_matvec = _csr_matvecs = None

__all__ = [
    "ArrayBackend",
    "as_backend",
    "apply_staged",
    "check_out",
]


class ArrayBackend:
    """Primitive set every sparse hot loop is written against.

    All primitives operate on C-contiguous fp64 host ``numpy`` arrays
    (only ``copy`` accepts a strided source, which is how a strided
    operand gets staged) and write results **in place** into
    caller-owned buffers — the seam preserves the repo's
    allocation-free hot-loop discipline.  Blocked vector primitives
    treat ``(n, r)`` arrays as ``r`` independent columns (the fused
    multi-RHS layout): a non-finite case must not reach its
    neighbours.  The EBE sweep is ``gather_rows`` / ``grouped_matmul``
    / ``spmv_csr`` over element buffers (:mod:`repro.sparse.ebe`).

    The roundings are the pre-seam hot loops', in the same order — bit
    for bit on every path a golden reaches (the grouped apply agrees to
    rounding) — from whichever NumPy/scipy kernel makes them fastest
    for the operand's shape.
    """

    def __init__(self) -> None:
        # per lane (thread): r -> ((_TILE, r), (_TILE * r,)) views of one
        # scale scratch, and the last grouped product's (A, offsets, X,
        # out) and stacked GEMM views
        self._lane = LaneLocal(tiles=dict, groups=lambda: ((None,) * 4, []))

    # -- workspace allocation -----------------------------------------
    def empty(self, shape) -> np.ndarray:
        """Uninitialized workspace buffer owned by this backend."""
        return np.empty(shape)

    def zeros(self, shape) -> np.ndarray:
        """Zero-filled workspace buffer owned by this backend."""
        return np.zeros(shape)

    # -- blocked streaming primitives ---------------------------------
    def copy(self, dst: np.ndarray, src: np.ndarray) -> np.ndarray:
        """``dst[...] = src``; returns ``dst``."""
        np.copyto(dst, src)
        return dst

    def fill(self, a: np.ndarray, value: float) -> np.ndarray:
        """``a[...] = value``; returns ``a``."""
        a.fill(value)
        return a

    def subtract(self, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out = a - b`` elementwise."""
        np.subtract(a, b, out=out)
        return out

    def xpay_cols(self, P: np.ndarray, beta: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """``P = P * beta + Z`` with per-column scales ``beta`` —
        the CG search-direction update (two separately rounded ops,
        elementwise: column ``j`` sees ``beta[j]`` only)."""
        self._scale_cols(P, beta, P)
        P += Z
        return P

    def axpy_cols(
        self, Y: np.ndarray, s: np.ndarray, V: np.ndarray, work: np.ndarray
    ) -> np.ndarray:
        """``Y += s * V`` with per-column scales ``s``, using the
        caller's ``(n, r)`` scratch ``work`` (no allocation)."""
        self._scale_cols(V, s, work)
        Y += work
        return Y

    def axmy_cols(
        self, Y: np.ndarray, s: np.ndarray, V: np.ndarray, work: np.ndarray
    ) -> np.ndarray:
        """``Y -= s * V`` with per-column scales ``s`` (scratch as in
        :meth:`axpy_cols`)."""
        self._scale_cols(V, s, work)
        Y -= work
        return Y

    #: rows folded into one wide row by the column scaling (measured:
    #: 16-64 alike, 4 and 128 slower); under ``_TILE`` wide rows the
    #: plain broadcast is as fast.
    _TILE = 32

    def _scale_cols(self, V, s, out):
        """``out = V * s``, per-column scales (``out`` may be ``V``).
        The broadcast's inner loop is only ``r`` long, so a large block
        is scaled as its ``(n // k, k * r)`` view against a ``k``-tiled
        copy of ``s``: the same products, elementwise (a diagonal GEMM
        is faster still, but lets a NaN column into its neighbours)."""
        n, r = V.shape
        k = self._TILE
        m = n // k
        if r == 1 or m < k or not (V.flags.c_contiguous
                                   and out.flags.c_contiguous):
            return np.multiply(V, s, out=out)
        tiles = self._lane.tiles
        tile = tiles.get(r)
        if tile is None:
            flat = np.empty(k * r)
            tile = tiles[r] = (flat.reshape(k, r), flat)
        np.copyto(tile[0], s)
        mk = m * k
        np.multiply(V[:mk].reshape(m, k * r), tile[1],
                    out=out[:mk].reshape(m, k * r))
        if mk < n:
            np.multiply(V[mk:], s, out=out[mk:])
        return out

    def colwise_dot(self, V: np.ndarray, W: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Per-column dot products ``out[j] = sum_i V[i,j] W[i,j]``."""
        return np.einsum("ij,ij->j", V, W, out=out)

    def colwise_norm(self, V: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Per-column 2-norms into ``out`` (dot then in-place sqrt)."""
        self.colwise_dot(V, V, out)
        return self.sqrt_(out)

    def sqrt_(self, a: np.ndarray) -> np.ndarray:
        """In-place elementwise square root."""
        return np.sqrt(a, out=a)

    def quantize_store(self, a: np.ndarray, precision) -> np.ndarray:
        """Round ``a`` to ``precision``'s storage format in place — the
        one quantize-on-store code path every hot loop (cg, distributed,
        ebe, bcrs, precond) routes through.  fp64 is a no-op."""
        return precision.quantize_(a)

    # -- gather / apply / scatter -------------------------------------
    def gather_rows(self, X: np.ndarray, idx: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out = X[idx]`` row gather (``idx`` may be multi-dim; all
        indices pre-validated in range by the caller — the EBE sweep's is
        flat, by node or by class-blocked dof)."""
        # mode="clip" writes straight into `out` (mode="raise" rechecks
        # the indices through a temporary); callers validate indices
        # in-range at construction.
        np.take(X, idx, axis=0, out=out, mode="clip")
        return out

    def grouped_matmul(
        self, A: np.ndarray, offsets: np.ndarray, X: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """Grouped dense apply of ``A`` (``(m, d, d)``, the 30x30 element
        matrices) to ``X`` / ``out`` (``(d N, r)``, ``N = offsets[-1]``
        members, class-blocked): group ``c``'s ``k_c`` members (offsets
        non-decreasing from 0) are the ``(d, k_c r)`` matrix at rows
        ``d offsets[c]``, member by member, and ``out``'s block is
        ``A[c]`` times it.  ``m == N`` is one group per member: the
        ``(N, d, r)`` stack and ``A[e] @ X[e]``.  A run of adjacent
        equal-size groups is one ``(g, d, k r)`` stack, applied in one
        batched ``np.matmul``; the EBE sweep orders its classes by size,
        so each distinct size is one run."""
        m, d = A.shape[0], A.shape[-1]
        if m * d == X.shape[0]:  # one matrix per member: the stacked product
            np.matmul(A, X.reshape(m, d, -1), out=out.reshape(m, d, -1))
            return out
        # one stacked product per run of adjacent equal-size groups (one
        # GEMM per item: the bits of one GEMM per group); its views are
        # kept for the next call on the same arrays (a sweep's, every pcg
        # iteration), compared by identity: the cache holds the arrays,
        # so no id is reused while they are kept
        arrays, gemms = self._lane.groups
        if not all(a is b for a, b in zip(arrays, (A, offsets, X, out))):
            r, sizes, rows = X.shape[1], np.diff(offsets), (d * offsets).tolist()
            runs = [0, *(np.flatnonzero(np.diff(sizes)) + 1).tolist(), m]
            gemms = []
            for c, e in zip(runs, runs[1:]):
                shape = (e - c, d, int(sizes[c]) * r)
                gemms.append((A[c:e], X[rows[c]:rows[e]].reshape(shape),
                              out[rows[c]:rows[e]].reshape(shape)))
            self._lane.groups = ((A, offsets, X, out), gemms)
        for a, x, y in gemms:
            np.matmul(a, x, out=y)
        return out

    # -- operator kernels ---------------------------------------------
    def block_diag_matvec(
        self, inv: np.ndarray, R: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """Apply ``(nb, 3, 3)`` diagonal blocks to ``(3 nb, r)`` columns
        (the block-Jacobi kernel); ``R``/``out`` C-contiguous."""
        nb = inv.shape[0]
        r = R.shape[-1]
        np.matmul(inv, R.reshape(nb, 3, r), out=out.reshape(nb, 3, r))
        return out

    def spmv_csr(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        X: np.ndarray,
        out: np.ndarray,
    ) -> np.ndarray:
        """CSR SpMV ``out = A @ X`` into the caller buffer (``X``/``out``
        shaped ``(n, r)``, ``r >= 1``).  Every row accumulates from zero
        in ``indices`` order at every width — the EBE scatter (a 0/1
        incidence matrix) takes its summation order from this, and one
        column alone gets the bits it gets inside a block, so the kernel
        is picked by ``r``."""
        n, r = out.shape
        if indptr.size != n + 1:  # the C kernels would read past its end
            raise ValueError(f"indptr size {indptr.size} != {n} rows + 1")
        if (
            _csr_matvecs is not None
            and X.flags.c_contiguous
            and out.flags.c_contiguous
            and X.dtype == np.float64
        ):
            out.fill(0.0)  # both kernels accumulate: y += A @ x
            if r == 1:  # same row-by-row order, no axpy call per entry
                _csr_matvec(n, X.shape[0], indptr, indices, data,
                            X.ravel(), out.ravel())
            else:
                _csr_matvecs(n, X.shape[0], r, indptr, indices, data,
                             X.ravel(), out.ravel())
            return out
        import scipy.sparse as sp  # fallback: wrap without copying

        m = sp.csr_matrix((data, indices, indptr), shape=(n, X.shape[0]))
        np.copyto(out, m @ X)
        return out

    # -- history regression (the data-driven predictor) ---------------
    def qr_estimate(self, Z: np.ndarray, Y: np.ndarray, rtol: float) -> np.ndarray:
        """Batched least-squares history estimate ``y = Y w`` with
        ``w = argmin ||x - X w||`` per region (the paper's Eq. 3).

        ``Z = [X | x]`` is ``(nreg, m_in, s + 1)``: the inputs ``X`` as
        its first ``s`` columns, the new input ``x`` as its last.  It is
        factored as given — a caller holding its history with each
        column contiguous (the predictor) passes a view and nothing is
        stacked here.  ``Y`` is ``(nreg, m_out, s)``; returns a fresh
        ``(nreg, m_out)`` array rather than filling a caller's: LAPACK
        factors a copy anyway.

        One stacked Householder QR of ``Z`` per call: the last column of
        ``R`` is ``Q^T x``, so ``Q`` is never formed.  Column ``j`` is
        *dead* — linearly dependent, coefficient exactly 0 — when its
        residual against the alive columns before it is at most
        ``rtol`` times the region's largest column norm; the alive
        columns are always fitted by exact least squares.
        """
        Z = np.asarray(Z, dtype=float)
        Y = np.asarray(Y, dtype=float)
        nreg, m, s = Z.shape[0], Z.shape[1], Z.shape[2] - 1
        if m < s + 1:  # zero rows, so a region has as many rows as columns
            A = np.zeros((nreg, s + 1, s + 1))
            A[:, :, :m] = Z.transpose(0, 2, 1)
            Z = A.transpose(0, 2, 1)
        col_scale = np.sqrt(
            np.einsum("rms,rms->rs", Z[:, :, :s], Z[:, :, :s]).max(axis=1)
        )
        tol = rtol * np.where(col_scale == 0.0, 1.0, col_scale)
        R = np.linalg.qr(Z, mode="r")
        small = (np.abs(np.einsum("rjj->rj", R)[:, :s]) <= tol[:, None]).any(axis=0)
        if small.any():
            _skip_dead_columns(R, tol, int(small.argmax()))
        w = np.linalg.solve(R[:, :s, :s], R[:, :s, s:])
        return np.matmul(Y, w)[:, :, 0]


def _skip_dead_columns(R: np.ndarray, tol: np.ndarray, j0: int) -> None:
    """Re-triangularise, in place, the systems ``R = [T | c]`` of
    :meth:`ArrayBackend.qr_estimate` from column ``j0`` on — the first
    with a pivot within ``tol`` in some region — leaving dead columns
    out.

    Up to ``j0`` every column is alive and ``|T_jj|`` is its residual.
    From a dead column on it no longer is: Householder spends a row on
    the dead column, and what later columns hold in that row is lost to
    their pivots.  So the trailing block of ``[T | c]``, whose columns
    are the residuals against the alive columns before ``j0``, is
    orthogonalised again by right-looking modified Gram-Schmidt, which
    takes a dead column out of the basis instead: its row becomes the
    identity row with right-hand side 0, pinning the coefficient to
    exactly 0 in the back substitution, and the remaining columns are
    fitted by least squares.  ``c`` rides along as a last column, which
    keeps MGS least squares backward stable.
    """
    s = R.shape[1] - 1
    B = R[:, j0:s, j0:]
    k = s - j0
    N = np.zeros_like(B)
    for j in range(k):
        v = B[:, :, j]
        nrm = np.sqrt(np.einsum("rk,rk->r", v, v))
        alive = nrm > tol
        q = v * (alive / np.where(alive, nrm, 1.0))[:, None]
        N[:, j, j] = np.where(alive, nrm, 1.0)
        N[:, j, j + 1 :] = np.matmul(q[:, None, :], B[:, :, j + 1 :])[:, 0]
        B[:, :, j + 1 :] -= q[:, :, None] * N[:, j, None, j + 1 :]
    B[...] = N


#: the instance every constructor and ``pcg`` runs on unless handed one
_SHARED = ArrayBackend()


def as_backend(backend: ArrayBackend | None = None) -> ArrayBackend:
    """``backend``, or the one shared instance when ``None``."""
    return _SHARED if backend is None else backend


def check_out(out: np.ndarray | None, shape: tuple) -> None:
    """Refuse a caller's result buffer the primitives cannot write:
    ``out`` must have the operand's ``shape`` and be C-contiguous
    (a strided block's reshaped view would be a lost copy).  Operators
    call this before charging any work."""
    if out is not None and (out.shape != shape or not out.flags.c_contiguous):
        raise ValueError(
            f"out must be a C-contiguous array of shape {shape}, got shape "
            f"{out.shape}"
        )


def apply_staged(kernel, x: np.ndarray, out: np.ndarray | None,
                 backend: ArrayBackend) -> np.ndarray:
    """Run ``kernel(X, Y)`` — an operator's one primitive — on ``x`` as
    a C-contiguous fp64 ``(n, r)`` block (a strided operand is staged
    first), into ``out`` (validated by :func:`check_out`) or a fresh
    ``backend`` buffer; returns ``out``, or the result in ``x``'s
    shape."""
    X = x[:, None] if x.ndim == 1 else x
    if not X.flags.c_contiguous or X.dtype != np.float64:
        X = np.ascontiguousarray(X, dtype=np.float64)
    if out is not None:
        kernel(X, out if out.ndim == 2 else out[:, None])
        return out
    Y = kernel(X, backend.empty(X.shape))
    return Y[:, 0] if x.ndim == 1 else Y
