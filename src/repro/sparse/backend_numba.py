"""Numba-accelerated :class:`~repro.sparse.backend.ArrayBackend`.

The kernels below are written as plain Python functions over
C-contiguous fp64 arrays and jitted (``nopython``, ``parallel``,
``fastmath=False``) the first time the backend is instantiated.  Two
consequences of that layout matter:

* this module imports — and the un-jitted ``py_*`` kernels run — with
  or without numba installed, so kernel *logic* stays testable in
  environments that lack the engine (the backend itself reports
  :meth:`~NumbaBackend.available` ``False`` there and resolution raises
  :class:`~repro.sparse.backend.BackendUnavailableError`);
* ``fastmath=False`` keeps IEEE evaluation order inside each scalar
  expression, and every ``prange`` loop is iteration-independent
  (elementwise updates, per-row gathers, per-row SpMV) while the
  column reductions stay sequential over rows — so results are
  deterministic run-to-run and agree with the reference backend to
  rounding (the parity tests' norm-scaled tolerance; sums regrouped
  against einsum/BLAS in the reductions and the batched element apply
  are the only difference sources).
"""

from __future__ import annotations

import numpy as np

from repro.sparse.backend import ArrayBackend, BackendUnavailableError

try:
    import numba

    prange = numba.prange
    _HAVE_NUMBA = True
except ImportError:  # the backend registers anyway; available() -> False
    numba = None
    prange = range
    _HAVE_NUMBA = False

__all__ = ["NumbaBackend"]


# -- kernels (plain Python; jitted at backend instantiation) ----------
# All operate in place on caller buffers; 2-D operands are (n, r)
# column blocks unless noted.

def py_copy2(dst, src):
    for i in prange(dst.shape[0]):
        for j in range(dst.shape[1]):
            dst[i, j] = src[i, j]


def py_fill2(a, value):
    for i in prange(a.shape[0]):
        for j in range(a.shape[1]):
            a[i, j] = value


def py_subtract2(a, b, out):
    for i in prange(a.shape[0]):
        for j in range(a.shape[1]):
            out[i, j] = a[i, j] - b[i, j]


def py_xpay_cols(P, beta, Z):
    # multiply and add round separately (no FMA without fastmath),
    # matching the reference backend's `P *= beta; P += Z`.
    for i in prange(P.shape[0]):
        for j in range(P.shape[1]):
            P[i, j] = P[i, j] * beta[j] + Z[i, j]


def py_axpy_cols(Y, s, V):
    for i in prange(Y.shape[0]):
        for j in range(Y.shape[1]):
            Y[i, j] = Y[i, j] + s[j] * V[i, j]


def py_axmy_cols(Y, s, V):
    for i in prange(Y.shape[0]):
        for j in range(Y.shape[1]):
            Y[i, j] = Y[i, j] - s[j] * V[i, j]


def py_colwise_dot(V, W, out):
    # columns are independent (parallel-safe); each column sums rows
    # sequentially in ascending order — deterministic.
    for j in prange(V.shape[1]):
        acc = 0.0
        for i in range(V.shape[0]):
            acc += V[i, j] * W[i, j]
        out[j] = acc


def py_gather_rows(X, idx, out):
    # idx/out are the flattened row views of possibly multi-dim gathers
    for k in prange(idx.shape[0]):
        src = idx[k]
        for j in range(X.shape[1]):
            out[k, j] = X[src, j]


def py_batched_matmul(A, X, out):
    for e in prange(A.shape[0]):
        for i in range(A.shape[1]):
            for j in range(X.shape[2]):
                acc = 0.0
                for k in range(A.shape[2]):
                    acc += A[e, i, k] * X[e, k, j]
                out[e, i, j] = acc


def py_block_diag_matvec(inv, Rb, outb):
    # inv (nb, 3, 3) applied per block to Rb/outb (nb, 3, r)
    for b in prange(inv.shape[0]):
        for i in range(3):
            for j in range(Rb.shape[2]):
                acc = 0.0
                for k in range(3):
                    acc += inv[b, i, k] * Rb[b, k, j]
                outb[b, i, j] = acc


def py_spmv_csr(indptr, indices, data, X, out):
    # rows are independent (parallel-safe); within a row, columns
    # stream in CSR index order.
    for row in prange(out.shape[0]):
        for j in range(X.shape[1]):
            out[row, j] = 0.0
        for ptr in range(indptr[row], indptr[row + 1]):
            col = indices[ptr]
            v = data[ptr]
            for j in range(X.shape[1]):
                out[row, j] += v * X[col, j]


def py_transfer3(indptr, indices, data, X, out):
    # node-level CSR applied to node-major dof columns (3 components
    # per node): one output node-row per parallel iteration, columns
    # accumulated in CSR index order — same summation grouping as the
    # reference backend's reshaped spmv_csr, so values are bit-equal.
    r = X.shape[1]
    for row in prange(out.shape[0] // 3):
        for c in range(3):
            for j in range(r):
                out[3 * row + c, j] = 0.0
        for ptr in range(indptr[row], indptr[row + 1]):
            col = indices[ptr]
            v = data[ptr]
            for c in range(3):
                for j in range(r):
                    out[3 * row + c, j] += v * X[3 * col + c, j]


_KERNELS = (
    py_copy2, py_fill2, py_subtract2, py_xpay_cols, py_axpy_cols,
    py_axmy_cols, py_colwise_dot, py_gather_rows, py_batched_matmul,
    py_block_diag_matvec, py_spmv_csr, py_transfer3,
)

_jitted: dict[str, object] = {}


def _compile_kernels() -> dict[str, object]:
    if not _jitted:
        jit = numba.njit(cache=True, fastmath=False, parallel=True,
                         nogil=True)
        for fn in _KERNELS:
            _jitted[fn.__name__] = jit(fn)
    return _jitted


class NumbaBackend(ArrayBackend):
    """JIT-compiled parallel host kernels (requires ``numba``).

    Elementwise updates, the gather/apply/scatter sweep, block-Jacobi
    and the CSR SpMV all run as ``prange``-parallel compiled loops; the
    CG column reductions stay row-sequential per column, so every
    primitive is deterministic.  Scalar ``(r,)`` housekeeping falls
    through to the NumPy base implementations — only the ``(n, ...)``
    streams are worth compiling.
    """

    name = "numba"
    description = "numba-jitted parallel host kernels (pip install numba)"

    @classmethod
    def available(cls) -> bool:
        return _HAVE_NUMBA

    def __init__(self) -> None:
        if not _HAVE_NUMBA:  # pragma: no cover - backend_by_name gates this
            raise BackendUnavailableError(
                "numba backend requested but numba is not importable"
            )
        self._k = _compile_kernels()

    # -- blocked streaming primitives ---------------------------------
    def copy(self, dst, src):
        if dst.ndim != 2:
            np.copyto(dst, src)
            return dst
        self._k["py_copy2"](dst, src)
        return dst

    def fill(self, a, value):
        if a.ndim != 2:
            a.fill(value)
            return a
        self._k["py_fill2"](a, float(value))
        return a

    def subtract(self, a, b, out):
        if out.ndim != 2:
            np.subtract(a, b, out=out)
            return out
        self._k["py_subtract2"](a, b, out)
        return out

    def xpay_cols(self, P, beta, Z):
        self._k["py_xpay_cols"](P, beta, Z)
        return P

    def axpy_cols(self, Y, s, V, work):
        self._k["py_axpy_cols"](Y, s, V)  # fused loop needs no scratch
        return Y

    def axmy_cols(self, Y, s, V, work):
        self._k["py_axmy_cols"](Y, s, V)
        return Y

    def colwise_dot(self, V, W, out):
        self._k["py_colwise_dot"](V, W, out)
        return out

    def sqrt_(self, a):
        return np.sqrt(a, out=a)

    # -- gather / apply / scatter -------------------------------------
    def gather_rows(self, X, idx, out):
        flat = out.reshape(-1, X.shape[1])
        self._k["py_gather_rows"](X, idx.reshape(-1), flat)
        return out

    def batched_matmul(self, A, X, out):
        self._k["py_batched_matmul"](A, X, out)
        return out

    # -- operator kernels ---------------------------------------------
    def block_diag_matvec(self, inv, R, out):
        nb = inv.shape[0]
        r = R.shape[-1]
        self._k["py_block_diag_matvec"](
            inv, R.reshape(nb, 3, r), out.reshape(nb, 3, r)
        )
        return out

    def spmv_csr(self, indptr, indices, data, X, out):
        self._k["py_spmv_csr"](indptr, indices, data, X, out)
        return out

    def prolong(self, indptr, indices, data, X, out):
        self._k["py_transfer3"](indptr, indices, data, X, out)
        return out

    def restrict(self, indptr, indices, data, X, out):
        self._k["py_transfer3"](indptr, indices, data, X, out)
        return out
