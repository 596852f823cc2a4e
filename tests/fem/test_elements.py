"""Element matrices: physics invariants."""

import numpy as np
import pytest

from repro.fem.elements import (
    element_mass_stiffness,
    face_dashpot_matrices,
    fold_faces_into_elements,
)
from repro.fem.material import Material, lame_parameters
from repro.fem.mesh import structured_box


@pytest.fixture(scope="module")
def mats(small_mesh):
    ne = small_mesh.n_elems
    rho = np.full(ne, 2000.0)
    lam, mu = lame_parameters(rho, np.full(ne, 400.0), np.full(ne, 200.0))
    Me, Ke = element_mass_stiffness(small_mesh.nodes[small_mesh.elems], rho, lam, mu)
    return Me, Ke


def test_mass_total(small_mesh, mats):
    Me, _ = mats
    vol = 1.0 * 1.0 * 0.7
    # x-component scalar mass sums to total mass
    assert Me[:, 0::3, 0::3].sum() == pytest.approx(2000.0 * vol, rel=1e-12)


def test_mass_symmetric_positive_definite(mats):
    Me, _ = mats
    np.testing.assert_allclose(Me, Me.transpose(0, 2, 1), atol=0)
    eig = np.linalg.eigvalsh(Me)
    assert eig.min() > 0


def test_stiffness_symmetric_psd(mats):
    _, Ke = mats
    np.testing.assert_allclose(Ke, Ke.transpose(0, 2, 1), atol=0)
    eig = np.linalg.eigvalsh(Ke)
    assert eig.min() > -1e-6 * eig.max()


def test_stiffness_annihilates_rigid_modes(small_mesh, mats):
    """Translations and infinitesimal rotations produce zero force."""
    _, Ke = mats
    X = small_mesh.nodes[small_mesh.elems]  # (ne, 10, 3)
    scale = np.abs(Ke).max()
    # translations
    for d in range(3):
        u = np.zeros((small_mesh.n_elems, 30))
        u[:, d::3] = 1.0
        r = np.einsum("eij,ej->ei", Ke, u)
        assert np.abs(r).max() < 1e-12 * scale
    # rotation about z: u = (-y, x, 0)
    u = np.zeros((small_mesh.n_elems, 30))
    u[:, 0::3] = -X[:, :, 1]
    u[:, 1::3] = X[:, :, 0]
    r = np.einsum("eij,ej->ei", Ke, u)
    assert np.abs(r).max() < 1e-10 * scale


def test_stiffness_scales_with_modulus(small_mesh):
    ne = small_mesh.n_elems
    rho = np.full(ne, 2000.0)
    lam, mu = lame_parameters(rho, np.full(ne, 400.0), np.full(ne, 200.0))
    _, K1 = element_mass_stiffness(small_mesh.nodes[small_mesh.elems], rho, lam, mu)
    _, K2 = element_mass_stiffness(small_mesh.nodes[small_mesh.elems], rho, 2 * lam, 2 * mu)
    np.testing.assert_allclose(K2, 2 * K1, rtol=1e-12)


def test_uniaxial_patch_energy(small_mesh, mats):
    """Uniform strain e_xx = 1: total energy = 0.5 (lam + 2 mu) V."""
    _, Ke = mats
    X = small_mesh.nodes[small_mesh.elems]
    u = np.zeros((small_mesh.n_elems, 30))
    u[:, 0::3] = X[:, :, 0]  # u_x = x
    e = 0.5 * np.einsum("ei,eij,ej->", u, Ke, u)
    lam, mu = lame_parameters(2000.0, 400.0, 200.0)
    vol = 1.0 * 1.0 * 0.7
    assert e == pytest.approx(0.5 * (lam + 2 * mu) * vol, rel=1e-10)


def test_dashpot_spd_and_directionality(small_mesh):
    fe, _, fn = small_mesh.side_faces()
    rho, vp, vs = 2000.0, 400.0, 200.0
    Cf = face_dashpot_matrices(
        small_mesh, fn, np.full(len(fe), rho), np.full(len(fe), vp), np.full(len(fe), vs)
    )
    np.testing.assert_allclose(Cf, Cf.transpose(0, 2, 1), atol=1e-9)
    eig = np.linalg.eigvalsh(Cf)
    assert eig.min() > -1e-9 * np.abs(eig).max()


def test_dashpot_normal_absorption_rate(small_mesh):
    """Uniform unit normal velocity on a face dissipates rho*vp*area."""
    fe, _, fn = small_mesh.side_faces()
    # pick faces on the x=0 plane (normal = -x)
    sel = [
        i
        for i in range(fn.shape[0])
        if np.all(small_mesh.nodes[fn[i], 0] < 1e-12)
    ]
    fn_x = fn[sel]
    rho, vp, vs = 2000.0, 400.0, 200.0
    Cf = face_dashpot_matrices(
        small_mesh, fn_x, np.full(len(sel), rho), np.full(len(sel), vp), np.full(len(sel), vs)
    )
    v = np.zeros((len(sel), 18))
    v[:, 0::3] = 1.0  # unit x velocity (normal to the face)
    p = np.einsum("fi,fij,fj->", v, Cf, v)
    area = 1.0 * 0.7  # the x=0 side of the box
    assert p == pytest.approx(rho * vp * area, rel=1e-10)
    # tangential velocity dissipates with vs instead
    v[:, :] = 0.0
    v[:, 2::3] = 1.0
    p_t = np.einsum("fi,fij,fj->", v, Cf, v)
    assert p_t == pytest.approx(rho * vs * area, rel=1e-10)


def test_fold_faces_adds_symmetrically(small_mesh):
    fe, _, fn = small_mesh.side_faces()
    Cf = face_dashpot_matrices(
        small_mesh, fn, np.full(len(fe), 1.0), np.full(len(fe), 2.0), np.full(len(fe), 1.0)
    )
    Ce = np.zeros((small_mesh.n_elems, 30, 30))
    fold_faces_into_elements(Ce, small_mesh.elems, fe, fn, Cf)
    np.testing.assert_allclose(Ce, Ce.transpose(0, 2, 1), atol=1e-12)
    # total energy content preserved
    assert Ce.sum() == pytest.approx(Cf.sum(), rel=1e-12)


def _fold_faces_loop(Ce, elems, face_elem, face_nodes, Cf):
    """The per-face loop ``fold_faces_into_elements`` replaced: the
    byte oracle of its summation order."""
    for f in range(face_nodes.shape[0]):
        e = int(face_elem[f])
        loc = np.array([int(np.where(elems[e] == g)[0][0]) for g in face_nodes[f]])
        dof = (3 * loc[:, None] + np.arange(3)[None, :]).ravel()
        Ce[e][np.ix_(dof, dof)] += Cf[f]


@pytest.mark.parametrize("res", [(1, 1, 1), (3, 3, 2), (4, 2, 3)])
def test_fold_faces_sums_in_the_face_loop_order(res):
    mesh = structured_box(*res, 950.0, 950.0, 120.0)
    fe, _, fn = mesh.side_faces()
    assert np.bincount(fe).max() == 2  # corner elements own two side faces
    rng = np.random.default_rng(1)
    nf, ne = len(fe), mesh.n_elems
    Cf = face_dashpot_matrices(mesh, fn, rng.uniform(1.5e3, 2e3, nf),
                               rng.uniform(8e2, 1e3, nf), rng.uniform(2e2, 4e2, nf))
    Ce = rng.standard_normal((ne, 30, 30))
    ref = Ce.copy()
    fold_faces_into_elements(Ce, mesh.elems, fe, fn, Cf)
    _fold_faces_loop(ref, mesh.elems, fe, fn, Cf)
    assert Ce.tobytes() == ref.tobytes()


def test_material_validation():
    with pytest.raises(ValueError):
        Material(rho=-1, vp=2, vs=1)
    with pytest.raises(ValueError):
        Material(rho=1, vp=1, vs=2)  # vp <= vs
    m = Material(rho=1000.0, vp=2000.0, vs=1000.0)
    assert m.mu == pytest.approx(1000.0 * 1000.0**2)
    assert 0 < m.poisson < 0.5
