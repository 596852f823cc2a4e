"""Equivalent-linear material model and strain evaluation."""

import numpy as np
import pytest

from repro.fem.nonlinear import (
    EquivalentLinearMaterial,
    centroid_gradients,
    element_shear_strains,
)


def test_modulus_reduction_monotone():
    m = EquivalentLinearMaterial(gamma_ref=1e-3)
    g = np.array([0.0, 1e-4, 1e-3, 1e-2, 1.0])
    r = m.modulus_ratio(g)
    assert r[0] == 1.0
    assert np.all(np.diff(r) < 0) or r[-1] == m.floor
    assert r[2] == pytest.approx(0.5)  # gamma == gamma_ref -> G/G0 = 1/2
    assert r.min() >= m.floor


def test_material_validation():
    with pytest.raises(ValueError):
        EquivalentLinearMaterial(gamma_ref=0)
    with pytest.raises(ValueError):
        EquivalentLinearMaterial(floor=0)
    with pytest.raises(ValueError):
        EquivalentLinearMaterial(update_interval=0)
    with pytest.raises(ValueError):
        EquivalentLinearMaterial(strain_memory=1.5)


def test_strain_of_rigid_motion_is_zero(small_mesh):
    G = centroid_gradients(small_mesh)
    u = np.tile([1.0, -2.0, 0.5], small_mesh.n_nodes)
    gamma = element_shear_strains(G, u, small_mesh.elems)
    assert np.abs(gamma).max() < 1e-12
    # infinitesimal rotation about z is also strain-free
    x = small_mesh.nodes
    u_rot = np.column_stack([-x[:, 1], x[:, 0], np.zeros(len(x))]).ravel()
    gamma_rot = element_shear_strains(G, u_rot, small_mesh.elems)
    assert np.abs(gamma_rot).max() < 1e-10


def test_strain_of_simple_shear(small_mesh):
    """u_x = gamma0 * z: engineering shear gamma_xz = gamma0; the
    deviatoric measure sqrt(2 e:e) = gamma0 / sqrt(2)... checked
    against the analytic tensor."""
    gamma0 = 1e-3
    G = centroid_gradients(small_mesh)
    u = np.zeros((small_mesh.n_nodes, 3))
    u[:, 0] = gamma0 * small_mesh.nodes[:, 2]
    gamma = element_shear_strains(G, u.ravel(), small_mesh.elems)
    # eps_xz = gamma0/2; dev == eps (traceless); 2 e:e = gamma0^2
    np.testing.assert_allclose(gamma, gamma0, rtol=1e-10)


def test_volumetric_strain_excluded(small_mesh):
    """Pure dilation has no deviatoric part."""
    G = centroid_gradients(small_mesh)
    u = 1e-3 * small_mesh.nodes  # u = c x -> eps = c I
    gamma = element_shear_strains(G, u.ravel(), small_mesh.elems)
    assert np.abs(gamma).max() < 1e-12


def test_strain_charges_work(small_mesh):
    from repro.util.counters import tally_scope

    G = centroid_gradients(small_mesh)
    with tally_scope() as t:
        element_shear_strains(G, np.zeros(small_mesh.n_dofs), small_mesh.elems)
    assert t.total_flops("nonlinear.strain") > 0
