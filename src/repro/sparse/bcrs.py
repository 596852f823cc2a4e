"""3x3 block compressed row storage (the paper's "CRS" baseline).

Instrumented wrapper over a :class:`scipy.sparse.bsr_matrix` (the
stored blocks, their footprint and diagonal): every application charges
the analytic kernel work (:mod:`repro.sparse.traffic`) to the active
:class:`~repro.util.counters.KernelTally`, which is how modeled device
time is attributed (priced once per right-hand-side count).

There is one application path, solver and RHS products alike: the
seam's CSR SpMV over a scalar CSR twin — scipy's
single-vector kernel for one right-hand side (the conventional method's
operator) and the multi-vector one otherwise, both summing each row in
stored order, as scipy's BSR kernels do.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.sparse.backend import ArrayBackend, apply_staged, as_backend, check_out
from repro.sparse.precision import Precision, as_precision
from repro.sparse.traffic import crs_traffic
from repro.util import counters

__all__ = ["BlockCRS"]


class BlockCRS:
    """A symmetric-positive-definite matrix stored as 3x3 block CRS.

    Parameters
    ----------
    bsr : scipy ``bsr_matrix`` with blocksize (3, 3).
    tag : kernel tag charged on every matvec (default ``"spmv.crs"``).
    precision : storage policy for the block values — they are
        quantized once at construction and the per-matvec traffic is
        charged at the policy's itemsize.  Default fp64 (bit-identical
        to the precision-unaware matrix).
    backend : the :class:`~repro.sparse.backend.ArrayBackend` every
        application runs on (``None``: the shared instance).
    """

    def __init__(
        self,
        bsr: sp.bsr_matrix,
        tag: str = "spmv.crs",
        precision: Precision | str | None = None,
        backend: ArrayBackend | None = None,
    ) -> None:
        if not sp.issparse(bsr):
            raise TypeError("expected a scipy sparse matrix")
        bsr = bsr.tobsr(blocksize=(3, 3))
        bsr.sort_indices()
        self.precision = as_precision(precision)
        self.backend = as_backend(backend)
        if not self.precision.is_fp64:
            # tobsr() returns the input itself when already 3x3-blocked:
            # quantize a private copy, never the caller's matrix
            bsr = bsr.copy()
            self.precision.quantize_(bsr.data)
        self._m = bsr
        self._csr = None  # lazy scalar CSR twin, what every SpMV runs on
        self._charges: dict[int, tuple] = {}  # n_rhs -> (tag, flops, bytes)
        self.tag = tag

    # -- structure ---------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self._m.shape

    @property
    def n(self) -> int:
        return int(self._m.shape[0])

    @property
    def n_block_rows(self) -> int:
        return self.n // 3

    @property
    def nnz_blocks(self) -> int:
        return int(self._m.indices.shape[0])

    @property
    def bsr(self) -> sp.bsr_matrix:
        return self._m

    def memory_bytes(self) -> int:
        """Device memory needed to store the matrix (paper's CRS
        footprint: blocks at the storage itemsize + column indices +
        row pointers)."""
        return int(
            self._m.data.size * self.precision.itemsize
            + self._m.indices.nbytes
            + self._m.indptr.nbytes
        )

    def diagonal_blocks(self) -> np.ndarray:
        """(n_block_rows, 3, 3) diagonal blocks, for block-Jacobi."""
        nb = self.n_block_rows
        out = np.zeros((nb, 3, 3))
        indptr, indices, data = self._m.indptr, self._m.indices, self._m.data
        rows = np.repeat(np.arange(nb), np.diff(indptr))
        on_diag = indices == rows
        out[rows[on_diag]] = data[on_diag]
        return out

    # -- application -------------------------------------------------
    def matvec(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Apply to one vector ``(n,)`` or a batch ``(n, r)``.

        Each case re-streams the matrix (the CRS kernel has no
        multi-RHS fusion, matching the paper's baseline).  The result
        lands in ``out`` (``x``'s shape, C-contiguous) — repeated
        applications then allocate nothing — or in a fresh array; a
        strided operand is staged first.  Sizes are checked before
        anything is charged or run.
        """
        x = np.asarray(x)
        n = self.n
        if x.shape[0] != n:  # the C kernels would read past its end
            raise ValueError(f"operand size {x.shape[0]} != {n}")
        check_out(out, x.shape)
        n_rhs = 1 if x.ndim == 1 else x.shape[1]
        charge = self._charges.get(n_rhs)
        if charge is None:
            w = crs_traffic(self.nnz_blocks, self.n_block_rows,
                            value_bytes=self.precision.itemsize)
            charge = self._charges[n_rhs] = (
                self.tag, w.flops * n_rhs, w.bytes * n_rhs)
        counters.charge(*charge)
        return apply_staged(self._apply_block, x, out, self.backend)

    def _apply_block(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The SpMV of every application, pure backend primitives over
        the lazily-built scalar CSR twin."""
        if self._csr is None:
            self._csr = self._m.tocsr()
            self._csr.sort_indices()
        c = self._csr
        return self.backend.spmv_csr(c.indptr, c.indices, c.data, x, out)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)

    def to_dense(self) -> np.ndarray:
        return self._m.toarray()
