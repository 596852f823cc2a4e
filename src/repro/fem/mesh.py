"""Structured quadratic tetrahedral meshes of box domains.

The paper's ground models (§3.1, Fig. 1) are box domains
(950 x 950 x 120 m) meshed with second-order tetrahedra.  This module
generates conforming TET10 meshes by Kuhn-splitting a structured
hexahedral grid into 6 tetrahedra per cell and inserting unique edge
midpoint nodes.

All meshes produced here have affine elements (midside nodes exactly at
edge midpoints), which the element-matrix quadrature exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.fem.tet10 import TET10_EDGES

__all__ = [
    "Tet10Mesh",
    "box_tet4",
    "promote_to_tet10",
    "structured_box",
]

#: Corner-node triples of the four faces of a tetrahedron, oriented
#: outward for a positively-oriented tet.
TET_FACES: tuple[tuple[int, int, int], ...] = (
    (0, 2, 1),
    (0, 1, 3),
    (1, 2, 3),
    (0, 3, 2),
)

# The six tetrahedra of the Kuhn split of a unit cube, as indices into
# the cube-vertex order (v000, v100, v010, v110, v001, v101, v011, v111).
# All share the main diagonal v000-v111, making the split conforming.
_KUHN_TETS = (
    (0, 1, 3, 7),
    (0, 3, 2, 7),
    (0, 2, 6, 7),
    (0, 6, 4, 7),
    (0, 4, 5, 7),
    (0, 5, 1, 7),
)


@dataclass
class Tet10Mesh:
    """A quadratic tetrahedral mesh.

    Attributes
    ----------
    nodes : (nn, 3) float64
        Node coordinates (corners first, then midside nodes).
    elems : (ne, 10) int64
        TET10 connectivity; local ordering per :mod:`repro.fem.tet10`.
    n_corner_nodes : int
        Nodes ``[0, n_corner_nodes)`` are tet corners.
    edge_mid : dict[(int, int), int]
        Sorted corner pair -> midside node id.
    """

    nodes: np.ndarray
    elems: np.ndarray
    n_corner_nodes: int
    edge_mid: dict[tuple[int, int], int] = field(default_factory=dict, repr=False)

    @property
    def n_nodes(self) -> int:
        return int(self.nodes.shape[0])

    @property
    def n_elems(self) -> int:
        return int(self.elems.shape[0])

    @property
    def n_dofs(self) -> int:
        """Three displacement components per node."""
        return 3 * self.n_nodes

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return self.nodes.min(axis=0), self.nodes.max(axis=0)

    def element_centroids(self) -> np.ndarray:
        """(ne, 3) centroids of the corner tetrahedra."""
        return self.nodes[self.elems[:, :4]].mean(axis=1)

    def nodes_where(self, pred: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Indices of nodes satisfying a vectorized coordinate predicate."""
        mask = np.asarray(pred(self.nodes), dtype=bool)
        return np.flatnonzero(mask)

    def bottom_nodes(self, tol: float = 1e-9) -> np.ndarray:
        zmin = self.nodes[:, 2].min()
        return self.nodes_where(lambda x: x[:, 2] <= zmin + tol)

    def surface_nodes(self, tol: float = 1e-9) -> np.ndarray:
        zmax = self.nodes[:, 2].max()
        return self.nodes_where(lambda x: x[:, 2] >= zmax - tol)

    def boundary_faces(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All exterior faces of the mesh.

        Returns
        -------
        face_elem : (nf,) owning element index.
        face_local : (nf, 3) local corner indices of the face in its tet.
        face_nodes : (nf, 6) global node ids (3 corners + 3 midsides in
            edge order (0,1), (1,2), (0,2) of the face corners).
        """
        # every element's four faces in (element, face) order, keyed by
        # their sorted corners; a face seen once is exterior
        local = np.asarray(TET_FACES, dtype=np.int64)
        faces = self.elems[:, local].reshape(-1, 3)
        _, first, count = np.unique(
            np.sort(faces, axis=1), axis=0, return_index=True, return_counts=True)
        ext = np.sort(first[count == 1])  # first-occurrence order
        face_elem = ext // 4
        face_local = local[ext % 4]
        # the midsides of face edges (0,1), (1,2), (0,2) are element columns
        mid_col = np.zeros((4, 4), dtype=np.int64)
        for m, (a, b) in enumerate(TET10_EDGES):
            mid_col[a, b] = mid_col[b, a] = 4 + m
        cols = np.concatenate(
            [face_local, mid_col[face_local[:, [0, 1, 0]], face_local[:, [1, 2, 2]]]],
            axis=1)
        return face_elem, face_local, self.elems[face_elem[:, None], cols]

    def side_faces(self, tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exterior faces lying on the four vertical sides of the box
        (the paper's absorbing boundaries)."""
        fe, fl, fn = self.boundary_faces()
        lo, hi = self.bounds()
        xy = self.nodes[fn][:, :, :2]  # (nf, 6, 2)
        on_side = (np.all(xy <= lo[:2] + tol, axis=1)
                   | np.all(xy >= hi[:2] - tol, axis=1)).any(axis=1)
        return fe[on_side], fl[on_side], fn[on_side]


def box_tet4(
    nx: int, ny: int, nz: int, lx: float, ly: float, lz: float
) -> tuple[np.ndarray, np.ndarray]:
    """Structured linear-tet mesh of ``[0,lx] x [0,ly] x [0,lz]``.

    Returns ``(nodes (nn,3), tets (ne,4))`` with positively oriented
    tetrahedra (6 per hexahedral cell, Kuhn split).
    """
    if min(nx, ny, nz) < 1:
        raise ValueError("need at least one cell per direction")
    xs = np.linspace(0.0, lx, nx + 1)
    ys = np.linspace(0.0, ly, ny + 1)
    zs = np.linspace(0.0, lz, nz + 1)
    X, Y, Z = np.meshgrid(xs, ys, zs, indexing="ij")
    nodes = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)

    def nid(i: np.ndarray, j: np.ndarray, k: np.ndarray) -> np.ndarray:
        return (i * (ny + 1) + j) * (nz + 1) + k

    I, J, K = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij")
    I, J, K = I.ravel(), J.ravel(), K.ravel()
    # cube vertex ids in order v000, v100, v010, v110, v001, v101, v011, v111
    cube = np.stack(
        [
            nid(I, J, K),
            nid(I + 1, J, K),
            nid(I, J + 1, K),
            nid(I + 1, J + 1, K),
            nid(I, J, K + 1),
            nid(I + 1, J, K + 1),
            nid(I, J + 1, K + 1),
            nid(I + 1, J + 1, K + 1),
        ],
        axis=1,
    )  # (ncell, 8)
    tets = np.concatenate([cube[:, list(t)] for t in _KUHN_TETS], axis=0)

    # Enforce positive orientation: swap two nodes where det < 0.
    p = nodes[tets]
    d = np.einsum(
        "ei,ei->e",
        np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]),
        p[:, 3] - p[:, 0],
    )
    neg = d < 0
    tets[neg, 1], tets[neg, 2] = tets[neg, 2].copy(), tets[neg, 1].copy()
    return nodes, tets.astype(np.int64)


def promote_to_tet10(nodes: np.ndarray, tets: np.ndarray) -> Tet10Mesh:
    """Insert unique midside nodes, producing a :class:`Tet10Mesh`."""
    ne = tets.shape[0]
    nn = nodes.shape[0]
    edge_mid: dict[tuple[int, int], int] = {}
    mid_coords: list[np.ndarray] = []
    elems = np.empty((ne, 10), dtype=np.int64)
    elems[:, :4] = tets
    next_id = nn
    for e in range(ne):
        for m, (a, b) in enumerate(TET10_EDGES):
            ga, gb = int(tets[e, a]), int(tets[e, b])
            key = (ga, gb) if ga < gb else (gb, ga)
            mid = edge_mid.get(key)
            if mid is None:
                mid = next_id
                edge_mid[key] = mid
                mid_coords.append(0.5 * (nodes[ga] + nodes[gb]))
                next_id += 1
            elems[e, 4 + m] = mid
    all_nodes = np.vstack([nodes, np.asarray(mid_coords)]) if mid_coords else nodes.copy()
    return Tet10Mesh(nodes=all_nodes, elems=elems, n_corner_nodes=nn, edge_mid=edge_mid)


def structured_box(
    nx: int, ny: int, nz: int, lx: float = 1.0, ly: float = 1.0, lz: float = 1.0
) -> Tet10Mesh:
    """Convenience: Kuhn-split box promoted to TET10."""
    nodes, tets = box_tet4(nx, ny, nz, lx, ly, lz)
    return promote_to_tet10(nodes, tets)
