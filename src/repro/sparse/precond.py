"""3x3 block-Jacobi preconditioner (paper Algorithm 1, matrix ``B``)."""

from __future__ import annotations

import numpy as np

from repro.sparse.backend import ArrayBackend, as_backend
from repro.sparse.precision import Precision, as_precision
from repro.sparse.traffic import block_jacobi_traffic
from repro.util import counters

__all__ = ["BlockJacobi", "PRECONDITIONERS", "DEFAULT_PRECONDITIONER"]

#: Determinant magnitude below which a 3x3 diagonal block is treated as
#: singular (a zero block from a fully-constrained node, or a block so
#: ill-scaled its inverse would be garbage).
SINGULAR_DET_GUARD = 1e-300

#: Selectable preconditioner families for the solver stack: plain 3x3
#: block-Jacobi (the paper's matrix ``B``), or the geometric two-grid
#: cycle wrapped around it (:mod:`repro.sparse.twogrid`).  The default
#: is the content-hash anchor of the campaign ``preconditioners`` axis:
#: it never appears in cell params, so pre-axis cells keep their keys.
PRECONDITIONERS: tuple[str, ...] = ("bj", "twogrid")
DEFAULT_PRECONDITIONER = "bj"


class BlockJacobi:
    """Inverse of the 3x3 diagonal blocks of an SPD matrix.

    Construction inverts all blocks at once (batched
    ``numpy.linalg.inv``); application is a batched 3x3 mat-vec run by
    the ``backend``'s block-diagonal primitive (``numpy`` default is
    bit-identical to the historical apply; modeled traffic is
    backend-independent).  ``precision`` stores the block inverses in
    the transprecision format (quantized once here, traffic charged at
    its itemsize).
    """

    def __init__(
        self,
        diag_blocks: np.ndarray,
        tag: str = "cg.precond",
        precision: Precision | str | None = None,
        backend: "ArrayBackend | str | None" = None,
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
        self._charges: dict[int, tuple] = {}  # n_rhs -> (tag, flops, bytes)
        self.tag = tag

    @classmethod
    def from_matrix(
        cls,
        A,
        precision: Precision | str | None = None,
        backend: "ArrayBackend | str | None" = None,
    ) -> "BlockJacobi":
        """Build from anything exposing ``diagonal_blocks()``."""
        return cls(A.diagonal_blocks(), precision=precision, backend=backend)

    @property
    def n(self) -> int:
        return 3 * self._inv.shape[0]

    def apply(self, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``z = B^{-1} r`` for ``(n,)`` or ``(n, nrhs)`` inputs.

        With a C-contiguous block ``out`` the batched 3x3 mat-vec
        writes straight into it — no allocation on the solver hot path.
        """
        r = np.asarray(r)
        single = r.ndim == 1
        R = r[:, None] if single else r
        n_rhs = R.shape[1]
        charge = self._charges.get(n_rhs)
        if charge is None:  # priced once per width, on first use
            w = block_jacobi_traffic(self.n, self.precision.itemsize)
            charge = self._charges[n_rhs] = (
                self.tag, w.flops * n_rhs, w.bytes * n_rhs)
        counters.charge(*charge)
        if (
            out is not None
            and not single
            and out.shape == R.shape
            and out.flags.c_contiguous
            and R.flags.c_contiguous
        ):
            return self._apply_block(R, out)
        nb = self._inv.shape[0]
        Rb = np.ascontiguousarray(R).reshape(nb, 3, n_rhs)
        Z = np.matmul(self._inv, Rb).reshape(3 * nb, n_rhs)
        if out is not None:
            np.copyto(out, Z[:, 0] if single and out.ndim == 1 else Z)
            return out
        return Z[:, 0] if single else Z

    def _apply_block(self, R: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The in-place batched 3x3 hot path, pure backend primitives."""
        return self.backend.block_diag_matvec(self._inv, R, out)

    def __matmul__(self, r: np.ndarray) -> np.ndarray:
        return self.apply(r)
