"""A test-local engine whose reductions round differently.

:class:`RowBlockedBackend` is the one array engine with ``colwise_dot``
summed in row blocks of ``block_rows`` — a different, deterministic
grouping than the fused ``einsum`` — so a test can check what the seam
promises any substituted engine: solutions agree to norm-scaled
tolerance, and the modeled tally is exactly the same.
"""

import numpy as np

from repro.sparse.backend import ArrayBackend


class RowBlockedBackend(ArrayBackend):
    """Column reductions summed in row blocks of ``block_rows``."""

    block_rows = 64

    def colwise_dot(self, V, W, out):
        out[...] = 0.0
        nb = self.block_rows
        for lo in range(0, V.shape[0], nb):
            out += np.einsum("ij,ij->j", V[lo:lo + nb], W[lo:lo + nb])
        return out
