"""Reference oracle: the per-column modified Gram-Schmidt estimate.

The body ``repro.predictor.datadriven.mgs_estimate`` had before the
host kernel became a batched Householder QR behind the backend seam,
moved here verbatim.  It pins the dead-column semantics the new kernel
is tested against (``test_qr_estimate.py``): a column whose residual
against the alive columns before it is at most ``rtol`` times the
region's largest column norm gets coefficient exactly 0, and the alive
columns are fitted by least squares.
"""

import numpy as np


def mgs_estimate_reference(
    X: np.ndarray, Y: np.ndarray, x: np.ndarray, rtol: float = 1e-12
) -> np.ndarray:
    """Batched MGS prediction ``y = Y U U^T X^T x`` per region."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    x = np.asarray(x, dtype=float)
    nreg, m, s = X.shape

    # Batched modified Gram-Schmidt: Q (nreg, m, s), R (nreg, s, s)
    Q = X.copy()
    R = np.zeros((nreg, s, s))
    col_scale = np.linalg.norm(X, axis=1).max(axis=1)  # (nreg,)
    col_scale = np.where(col_scale == 0.0, 1.0, col_scale)
    alive = np.ones((nreg, s), dtype=bool)
    for j in range(s):
        for i in range(j):
            rij = np.einsum("rm,rm->r", Q[:, :, i], Q[:, :, j])
            R[:, i, j] = rij
            Q[:, :, j] -= rij[:, None] * Q[:, :, i]
        nrm = np.linalg.norm(Q[:, :, j], axis=1)
        dead = nrm <= rtol * col_scale
        alive[:, j] = ~dead
        safe = np.where(dead, 1.0, nrm)
        R[:, j, j] = np.where(dead, 1.0, nrm)
        Q[:, :, j] /= safe[:, None]
        Q[:, :, j] *= (~dead)[:, None]

    # c = Q^T x ; w solves R w = c (back substitution, batched)
    c = np.einsum("rms,rm->rs", Q, x)
    w = np.zeros((nreg, s))
    for j in range(s - 1, -1, -1):
        acc = c[:, j] - np.einsum("rk,rk->r", R[:, j, j + 1 :], w[:, j + 1 :])
        w[:, j] = np.where(alive[:, j], acc / R[:, j, j], 0.0)

    return np.einsum("rms,rs->rm", Y, w)
