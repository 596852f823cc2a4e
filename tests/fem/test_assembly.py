"""Global assembly and Dirichlet constraints."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.fem.assembly import (
    apply_dirichlet_to_elements,
    assemble_bsr,
    element_dof_ids,
)
from repro.fem.elements import element_mass_stiffness
from repro.fem.material import lame_parameters


@pytest.fixture(scope="module")
def setup(tiny_mesh):
    ne = tiny_mesh.n_elems
    rho = np.full(ne, 1500.0)
    lam, mu = lame_parameters(rho, np.full(ne, 300.0), np.full(ne, 150.0))
    Me, Ke = element_mass_stiffness(tiny_mesh.nodes[tiny_mesh.elems], rho, lam, mu)
    return tiny_mesh, Me, Ke


def dense_assemble(elem_mats, elems, n_nodes):
    n = 3 * n_nodes
    A = np.zeros((n, n))
    dof = element_dof_ids(elems)
    for e in range(elems.shape[0]):
        A[np.ix_(dof[e], dof[e])] += elem_mats[e]
    return A


def test_element_dof_ids_interleaving():
    elems = np.array([[0, 2, 5]])
    dof = element_dof_ids(elems)
    np.testing.assert_array_equal(dof[0], [0, 1, 2, 6, 7, 8, 15, 16, 17])


def test_assembled_matches_dense(setup):
    mesh, Me, Ke = setup
    A = assemble_bsr(Ke, mesh.elems, mesh.n_nodes)
    ref = dense_assemble(Ke, mesh.elems, mesh.n_nodes)
    np.testing.assert_allclose(A.toarray(), ref, atol=1e-9 * np.abs(ref).max())
    assert A.blocksize == (3, 3)


def test_assembled_symmetric(setup):
    mesh, Me, Ke = setup
    A = assemble_bsr(Ke, mesh.elems, mesh.n_nodes).tocsr()
    d = abs(A - A.T)
    assert d.max() if d.nnz else 0.0 <= 1e-9 * abs(A).max()


def test_dirichlet_decouples_fixed_dofs(setup):
    mesh, Me, Ke = setup
    fixed = mesh.bottom_nodes()
    Kc = apply_dirichlet_to_elements(Ke, mesh.elems, fixed, mesh.n_nodes)
    A = assemble_bsr(Kc, mesh.elems, mesh.n_nodes).toarray()
    fixed_dofs = (3 * fixed[:, None] + np.arange(3)).ravel()
    free = np.setdiff1d(np.arange(A.shape[0]), fixed_dofs)
    # off-diagonal coupling to fixed dofs is gone
    assert np.abs(A[np.ix_(fixed_dofs, free)]).max() == 0.0
    assert np.abs(A[np.ix_(free, fixed_dofs)]).max() == 0.0
    # constrained diagonal equals node multiplicity (> 0)
    diag = np.diag(A)[fixed_dofs]
    assert np.all(diag >= 1.0)
    assert np.allclose(diag, np.round(diag))


def test_dirichlet_preserves_free_block(setup):
    mesh, Me, Ke = setup
    fixed = mesh.bottom_nodes()
    Kc = apply_dirichlet_to_elements(Ke, mesh.elems, fixed, mesh.n_nodes)
    A0 = assemble_bsr(Ke, mesh.elems, mesh.n_nodes).toarray()
    A1 = assemble_bsr(Kc, mesh.elems, mesh.n_nodes).toarray()
    fixed_dofs = (3 * fixed[:, None] + np.arange(3)).ravel()
    free = np.setdiff1d(np.arange(A0.shape[0]), fixed_dofs)
    np.testing.assert_array_equal(A0[np.ix_(free, free)], A1[np.ix_(free, free)])


def test_dirichlet_does_not_mutate_input(setup):
    mesh, Me, Ke = setup
    before = Ke.copy()
    apply_dirichlet_to_elements(Ke, mesh.elems, mesh.bottom_nodes(), mesh.n_nodes)
    np.testing.assert_array_equal(Ke, before)


def test_constrained_system_solvable(setup):
    mesh, Me, Ke = setup
    fixed = mesh.bottom_nodes()
    Ac = apply_dirichlet_to_elements(
        Ke + 10.0 * Me, mesh.elems, fixed, mesh.n_nodes
    )
    A = assemble_bsr(Ac, mesh.elems, mesh.n_nodes).tocsc()
    rng = np.random.default_rng(0)
    b = rng.standard_normal(A.shape[0])
    fixed_dofs = (3 * fixed[:, None] + np.arange(3)).ravel()
    b[fixed_dofs] = 0.0
    x = sp.linalg.spsolve(A, b)
    assert np.abs(x[fixed_dofs]).max() == 0.0
    assert np.linalg.norm(A @ x - b) <= 1e-8 * np.linalg.norm(b)
