"""Mesh-to-mesh transfer operators between resolution levels.

The geometric two-grid preconditioner (:mod:`repro.sparse.twogrid`)
needs restriction/prolongation between a structured TET10 mesh and its
coarsened companion (:func:`repro.fem.mesh.coarsen_mesh`).  This module
builds them as *node-level* sparse operators:

* prolongation ``P`` is TET10 finite-element interpolation: every fine
  node is located in exactly one coarse tetrahedron and its row holds
  the 10 coarse shape-function values there (fixed row width, so the
  CSR layout is structurally trivial: ``nnz = 10 * n_fine_nodes``);
* restriction ``R = P^T`` exactly (the Galerkin transpose), so the
  coarse operator ``R A P`` stays symmetric positive definite.

Kuhn-split structured boxes are nested under halving, so locating a
point is direct arithmetic — clip the containing cell, test the six
Kuhn tets of that cell — with no search trees.  The operators are
deliberately exposed standalone (not tied to the preconditioner): the
same ``P`` bootstraps fine campaign cells from converged coarse cells
and warm-starts predictors across resolutions.

Degrees of freedom come in node-major triplets (``dof = 3*node+comp``),
so applying a node-level operator to a dof vector is the same CSR
kernel applied to 3-wide blocks — that is the ``prolong``/``restrict``
primitive pair on :class:`repro.sparse.backend.ArrayBackend`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.fem.mesh import Tet10Mesh, infer_structured_resolution
from repro.fem.tet10 import tet10_shape

__all__ = ["TransferOperators", "build_transfer"]

#: Barycentric slack for point location: fine nodes on coarse element
#: boundaries may fall epsilon outside every candidate under floating
#: point; the candidate with the largest minimum coordinate wins.
_LOCATE_TOL = 1e-9


def _locate_in_coarse(
    coarse: Tet10Mesh, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Find, per point, the containing coarse element and its natural
    coordinates ``(xi, eta, zeta)``.

    Uses the :func:`~repro.fem.mesh.box_tet4` layout directly: element
    ``t * ncell + c`` is Kuhn tet ``t`` of cell ``c = (i*ny + j)*nz + k``,
    so each point has exactly six candidates.  Barycentric coordinates
    are computed against the elements' *actual* corner coordinates
    (robust to the generator's orientation swap), and the tet whose
    minimum barycentric coordinate is largest wins — a deterministic
    choice that also absorbs roundoff on shared faces.
    """
    (nx, ny, nz), dims = infer_structured_resolution(coarse)
    res = np.array([nx, ny, nz])
    h = np.asarray(dims) / res
    ncell = nx * ny * nz
    pts = np.asarray(points, dtype=np.float64)

    ijk = np.clip(np.floor(pts / h).astype(np.int64), 0, res - 1)
    cell = (ijk[:, 0] * ny + ijk[:, 1]) * nz + ijk[:, 2]
    cand = cell[:, None] + ncell * np.arange(6)[None, :]  # (np, 6)

    corners = coarse.nodes[coarse.elems[cand, :4]]  # (np, 6, 4, 3)
    x0 = corners[:, :, 0]
    # M[p, t, :, j] = corner_{j+1} - corner_0 (columns of the affine map)
    M = np.transpose(corners[:, :, 1:] - x0[:, :, None], (0, 1, 3, 2))
    rhs = pts[:, None, :] - x0
    lam = np.linalg.solve(M, rhs[..., None])[..., 0]  # (np, 6, 3)
    lam0 = 1.0 - lam.sum(axis=2)
    score = np.minimum(lam0, lam.min(axis=2))  # (np, 6)

    best = score.argmax(axis=1)
    if np.any(score[np.arange(len(pts)), best] < -_LOCATE_TOL):
        raise ValueError("point location failed: node outside the coarse mesh")
    rows = np.arange(len(pts))
    return cand[rows, best], lam[rows, best]


@dataclass(frozen=True)
class TransferOperators:
    """Node-level restriction/prolongation between two meshes.

    ``P`` maps coarse nodal values to fine (``(n_fine, n_coarse)``
    CSR), ``R = P^T`` maps fine to coarse.  Raw index/value arrays are
    stored (not scipy objects) because the solver-side kernels consume
    them through the :class:`~repro.sparse.backend.ArrayBackend` seam.
    """

    n_fine: int  # fine nodes
    n_coarse: int  # coarse nodes
    p_indptr: np.ndarray
    p_indices: np.ndarray
    p_data: np.ndarray
    r_indptr: np.ndarray
    r_indices: np.ndarray
    r_data: np.ndarray

    @property
    def nnz(self) -> int:
        return int(self.p_data.size)

    # -- scipy views (analysis / campaign-side use) -------------------
    def prolongation_matrix(self) -> sp.csr_matrix:
        """Node-level ``P`` as a scipy CSR (copy of the stored arrays)."""
        return sp.csr_matrix(
            (self.p_data.copy(), self.p_indices.copy(), self.p_indptr.copy()),
            shape=(self.n_fine, self.n_coarse),
        )

    def restriction_matrix(self) -> sp.csr_matrix:
        """Node-level ``R = P^T`` as a scipy CSR."""
        return sp.csr_matrix(
            (self.r_data.copy(), self.r_indices.copy(), self.r_indptr.copy()),
            shape=(self.n_coarse, self.n_fine),
        )

    # -- nodal fields -------------------------------------------------
    def prolong_nodal(self, values: np.ndarray) -> np.ndarray:
        """Interpolate per-node scalars ``(n_coarse,)`` or ``(n_coarse, k)``
        onto the fine mesh."""
        return self.prolongation_matrix() @ np.asarray(values)

    def restrict_nodal(self, values: np.ndarray) -> np.ndarray:
        """Transpose-restrict per-node scalars onto the coarse mesh."""
        return self.restriction_matrix() @ np.asarray(values)

    # -- dof vectors --------------------------------------------------
    def prolong(self, xc: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Apply ``P x I3`` to dof vectors ``(3*n_coarse,)`` or
        ``(3*n_coarse, r)`` (node-major component layout)."""
        return self._apply_dof(xc, out, fine_to_coarse=False)

    def restrict(self, xf: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Apply ``R x I3`` to dof vectors ``(3*n_fine,)`` or
        ``(3*n_fine, r)``."""
        return self._apply_dof(xf, out, fine_to_coarse=True)

    def _apply_dof(self, x, out, *, fine_to_coarse: bool):
        from repro.sparse.backend import as_backend

        bk = as_backend()
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        X = np.ascontiguousarray(x.reshape(x.shape[0], -1))
        n_out = 3 * (self.n_coarse if fine_to_coarse else self.n_fine)
        if out is None:
            out = bk.empty((n_out, X.shape[1]))
        O = out.reshape(n_out, -1)
        if fine_to_coarse:
            bk.restrict(self.r_indptr, self.r_indices, self.r_data, X, O)
        else:
            bk.prolong(self.p_indptr, self.p_indices, self.p_data, X, O)
        return out[:, 0] if single and out.ndim == 2 else out


def build_transfer(fine: Tet10Mesh, coarse: Tet10Mesh) -> TransferOperators:
    """Interpolation transfer between a fine mesh and a coarser
    companion of the same box (both from :func:`structured_box`)."""
    elem, nat = _locate_in_coarse(coarse, fine.nodes)
    weights, _ = tet10_shape(nat)  # (n_fine, 10)

    nf, nc = fine.n_nodes, coarse.n_nodes
    P = sp.csr_matrix(
        (
            weights.ravel().astype(np.float64),
            coarse.elems[elem].ravel(),
            np.arange(nf + 1, dtype=np.int64) * 10,
        ),
        shape=(nf, nc),
    )
    P.sort_indices()
    R = P.T.tocsr()
    R.sort_indices()
    return TransferOperators(
        n_fine=nf,
        n_coarse=nc,
        p_indptr=P.indptr.astype(np.int64),
        p_indices=P.indices.astype(np.int64),
        p_data=P.data,
        r_indptr=R.indptr.astype(np.int64),
        r_indices=R.indices.astype(np.int64),
        r_data=R.data,
    )
