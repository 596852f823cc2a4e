"""Structured TET10 mesh generation."""

import numpy as np
import pytest

from repro.fem.mesh import TET_FACES, Tet10Mesh, box_tet4, structured_box


def test_box_tet4_counts():
    nodes, tets = box_tet4(2, 3, 4, 1.0, 1.0, 1.0)
    assert nodes.shape == (3 * 4 * 5, 3)
    assert tets.shape == (6 * 2 * 3 * 4, 4)


def test_tet4_positive_volumes():
    nodes, tets = box_tet4(3, 2, 2, 2.0, 1.0, 1.5)
    p = nodes[tets]
    vol6 = np.einsum(
        "ei,ei->e",
        np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]),
        p[:, 3] - p[:, 0],
    )
    assert np.all(vol6 > 0)


def test_tet4_volumes_fill_box():
    nodes, tets = box_tet4(3, 3, 2, 2.0, 3.0, 1.0)
    p = nodes[tets]
    vol = np.einsum(
        "ei,ei->e",
        np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]),
        p[:, 3] - p[:, 0],
    ).sum() / 6.0
    assert vol == pytest.approx(2.0 * 3.0 * 1.0, rel=1e-12)


def test_promotion_midpoints_exact():
    mesh = structured_box(2, 2, 2)
    for (a, b), mid in mesh.edge_mid.items():
        np.testing.assert_allclose(
            mesh.nodes[mid], 0.5 * (mesh.nodes[a] + mesh.nodes[b]), atol=1e-14
        )


def test_promotion_shares_midside_nodes():
    """Unique midside nodes: n_mid == number of distinct edges."""
    mesh = structured_box(2, 2, 1)
    n_mid = mesh.n_nodes - mesh.n_corner_nodes
    assert n_mid == len(mesh.edge_mid)
    # every element references valid nodes
    assert mesh.elems.max() < mesh.n_nodes
    assert mesh.elems.min() >= 0


def test_invalid_resolution():
    with pytest.raises(ValueError):
        box_tet4(0, 1, 1, 1, 1, 1)


def test_node_sets(small_mesh: Tet10Mesh):
    bottom = small_mesh.bottom_nodes()
    top = small_mesh.surface_nodes()
    assert np.all(small_mesh.nodes[bottom, 2] == 0.0)
    assert np.all(small_mesh.nodes[top, 2] == pytest.approx(0.7))
    assert len(set(bottom) & set(top)) == 0


def test_boundary_faces_cover_surface(small_mesh: Tet10Mesh):
    fe, fl, fn = small_mesh.boundary_faces()
    # Kuhn split: every cube face gets 2 triangles; the box surface has
    # 2*(nx*ny + nx*nz + ny*nz) cube faces.
    nx, ny, nz = 3, 3, 2
    expected = 2 * 2 * (nx * ny + nx * nz + ny * nz)
    assert fn.shape == (expected, 6)
    assert fe.shape == (expected,)


def test_side_faces_are_vertical(small_mesh: Tet10Mesh):
    _, _, fn = small_mesh.side_faces()
    lo, hi = small_mesh.bounds()
    for face in fn:
        xyz = small_mesh.nodes[face]
        on_x = np.all(xyz[:, 0] <= lo[0] + 1e-9) or np.all(xyz[:, 0] >= hi[0] - 1e-9)
        on_y = np.all(xyz[:, 1] <= lo[1] + 1e-9) or np.all(xyz[:, 1] >= hi[1] - 1e-9)
        assert on_x or on_y


def test_face_nodes_belong_to_owner(small_mesh: Tet10Mesh):
    fe, _, fn = small_mesh.boundary_faces()
    for f in range(0, fn.shape[0], 7):
        owner_nodes = set(small_mesh.elems[fe[f]])
        assert set(fn[f]) <= owner_nodes


def _boundary_faces_loop(mesh: Tet10Mesh):
    """The per-face loop ``boundary_faces`` replaced: the oracle of its
    arrays and their order."""
    corners = mesh.elems[:, :4]
    seen, dup = {}, set()
    for e in range(mesh.n_elems):
        for fi, (a, b, c) in enumerate(TET_FACES):
            key = tuple(sorted((int(corners[e, a]), int(corners[e, b]), int(corners[e, c]))))
            if key in seen:
                dup.add(key)
            else:
                seen[key] = (e, fi)
    face_elem, face_local, face_nodes = [], [], []
    for key, (e, fi) in seen.items():
        if key in dup:
            continue
        loc = TET_FACES[fi]
        g = [int(corners[e, i]) for i in loc]
        mids = [mesh.edge_mid[(min(g[a], g[b]), max(g[a], g[b]))]
                for a, b in ((0, 1), (1, 2), (0, 2))]
        face_elem.append(e)
        face_local.append(loc)
        face_nodes.append(g + mids)
    return (np.asarray(face_elem, dtype=np.int64),
            np.asarray(face_local, dtype=np.int64),
            np.asarray(face_nodes, dtype=np.int64))


def _side_mask_loop(mesh: Tet10Mesh, fn: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    lo, hi = mesh.bounds()
    return np.array([
        any(np.all(mesh.nodes[face, axis] <= lo[axis] + tol)
            or np.all(mesh.nodes[face, axis] >= hi[axis] - tol) for axis in (0, 1))
        for face in fn], dtype=bool)


@pytest.mark.parametrize("res", [(1, 1, 1), (3, 3, 2), (5, 2, 4)])
def test_boundary_and_side_faces_match_the_face_loop(res):
    mesh = structured_box(*res, 950.0, 950.0, 120.0)
    ref = _boundary_faces_loop(mesh)
    got = mesh.boundary_faces()
    mask = _side_mask_loop(mesh, ref[2])
    for a, b in zip(got, ref):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    for a, b in zip(mesh.side_faces(), ref):
        assert (a.dtype, a.tobytes()) == (b.dtype, b[mask].tobytes())
    assert 0 < mask.sum() < mask.size


def test_element_centroids(small_mesh: Tet10Mesh):
    c = small_mesh.element_centroids()
    lo, hi = small_mesh.bounds()
    assert np.all(c >= lo) and np.all(c <= hi)
    assert c.shape == (small_mesh.n_elems, 3)


def test_n_dofs(small_mesh: Tet10Mesh):
    assert small_mesh.n_dofs == 3 * small_mesh.n_nodes
