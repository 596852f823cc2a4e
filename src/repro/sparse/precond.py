"""3x3 block-Jacobi preconditioner (paper Algorithm 1, matrix ``B``)."""

from __future__ import annotations

import numpy as np

from repro.sparse.backend import ArrayBackend, as_backend, block_operands
from repro.sparse.precision import Precision, as_precision
from repro.sparse.traffic import block_jacobi_traffic
from repro.util import counters

__all__ = ["BlockJacobi"]

#: Determinant magnitude below which a 3x3 diagonal block is treated as
#: singular (a zero block from a fully-constrained node, or a block so
#: ill-scaled its inverse would be garbage).
SINGULAR_DET_GUARD = 1e-300


class BlockJacobi:
    """Inverse of the 3x3 diagonal blocks of an SPD matrix.

    Construction inverts all blocks at once (batched
    ``numpy.linalg.inv``); application is a batched 3x3 mat-vec run by
    the ``backend``'s block-diagonal primitive (bit-identical to the
    historical apply).  ``precision`` stores the block inverses in
    the transprecision format (quantized once here, traffic charged at
    its itemsize).
    """

    def __init__(
        self,
        diag_blocks: np.ndarray,
        tag: str = "cg.precond",
        precision: Precision | str | None = None,
        backend: ArrayBackend | None = None,
    ) -> None:
        blocks = np.asarray(diag_blocks, dtype=float)
        if blocks.ndim != 3 or blocks.shape[1:] != (3, 3):
            raise ValueError("expected (nb, 3, 3) diagonal blocks")
        # Guard: a zero block (fully-constrained node) would be singular.
        dets = np.linalg.det(blocks)
        if np.any(np.abs(dets) < SINGULAR_DET_GUARD):
            raise ValueError("singular diagonal block; constrain dofs first")
        self.precision = as_precision(precision)
        self.backend = as_backend(backend)
        self._inv = self.precision.quantize_(np.linalg.inv(blocks))
        self._n = 3 * self._inv.shape[0]
        self._charges: dict[int, tuple] = {}  # n_rhs -> (tag, flops, bytes)
        self.tag = tag

    @classmethod
    def from_matrix(
        cls,
        A,
        precision: Precision | str | None = None,
        backend: ArrayBackend | None = None,
    ) -> "BlockJacobi":
        """Build from anything exposing ``diagonal_blocks()``."""
        return cls(A.diagonal_blocks(), precision=precision, backend=backend)

    @property
    def n(self) -> int:
        return self._n

    def apply(self, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``z = B^{-1} r`` for ``(n,)`` or ``(n, nrhs)`` inputs.

        The batched 3x3 mat-vec writes into ``out`` (``r``'s shape,
        C-contiguous) — no allocation on the solver hot path — or into
        a fresh array; a 1-D, strided or non-fp64 operand is staged
        first (see :func:`~repro.sparse.backend.block_operands`).  Sizes
        are checked before anything is charged or run.
        """
        R, Z, result = block_operands(r, out, self._n, self.backend)
        n_rhs = R.shape[1]
        charge = self._charges.get(n_rhs)
        if charge is None:  # priced once per width, on first use
            w = block_jacobi_traffic(self.n, self.precision.itemsize)
            charge = self._charges[n_rhs] = (
                self.tag, w.flops * n_rhs, w.bytes * n_rhs)
        counters.charge(*charge)
        self._apply_block(R, Z)
        return result

    def _apply_block(self, R: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The batched 3x3 mat-vec of every application, pure backend
        primitives."""
        return self.backend.block_diag_matvec(self._inv, R, out)

    def __matmul__(self, r: np.ndarray) -> np.ndarray:
        return self.apply(r)
