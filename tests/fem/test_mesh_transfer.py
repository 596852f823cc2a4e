"""Mesh hierarchy + transfer operators: the interpolation contracts
the geometric two-grid preconditioner stands on.

* the level builder halves structured resolutions and stops at (1,1,1);
* prolongation is TET10 finite-element interpolation, so it reproduces
  constants and (nested meshes) linear fields *exactly*;
* restriction is exactly the transpose of prolongation (the Galerkin
  pairing that keeps the coarse operator SPD);
* the dof-level apply equals the node-level scipy product blocked by
  components, on every available backend.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fem.mesh import (
    coarsen_mesh,
    coarsen_resolution,
    infer_structured_resolution,
    mesh_hierarchy,
    structured_box,
)
from repro.fem.transfer import build_transfer
from repro.sparse.backend import available_backend_names, backend_by_name

DIMS = (40.0, 40.0, 20.0)


def _pair(res=(2, 2, 1)):
    fine = structured_box(*res, *DIMS)
    coarse = coarsen_mesh(fine)
    return fine, coarse, build_transfer(fine, coarse)


# ------------------------------------------------------- hierarchy
def test_infer_structured_resolution_roundtrip():
    mesh = structured_box(3, 2, 2, *DIMS)
    res, dims = infer_structured_resolution(mesh)
    assert res == (3, 2, 2)
    assert dims == pytest.approx(DIMS)


def test_coarsen_resolution_halves_and_floors():
    assert coarsen_resolution((4, 4, 2)) == (2, 2, 1)
    assert coarsen_resolution((3, 2, 1)) == (1, 1, 1)


def test_mesh_hierarchy_descends_to_unit():
    levels = mesh_hierarchy(structured_box(4, 4, 2, *DIMS), levels=4)
    resolutions = [infer_structured_resolution(m)[0] for m in levels]
    assert resolutions == [(4, 4, 2), (2, 2, 1), (1, 1, 1)]


def test_coarsen_mesh_refuses_unit_resolution():
    with pytest.raises(ValueError):
        coarsen_mesh(structured_box(1, 1, 1, *DIMS))


# ------------------------------------------------- interpolation laws
def test_prolongation_preserves_constants():
    _, coarse, t = _pair()
    fine_vals = t.prolong_nodal(np.ones(coarse.n_nodes))
    np.testing.assert_allclose(fine_vals, 1.0, atol=1e-13)


def test_prolongation_reproduces_coordinates():
    # nested Kuhn meshes: interpolating the coarse nodes' own
    # coordinates must land every fine node exactly where it sits
    fine, coarse, t = _pair()
    got = t.prolong_nodal(coarse.nodes)
    np.testing.assert_allclose(got, fine.nodes, atol=1e-10)


def test_restriction_is_exact_transpose():
    _, _, t = _pair()
    P = t.prolongation_matrix()
    R = t.restriction_matrix()
    assert (R != P.T.tocsr()).nnz == 0  # bit-exact structural transpose


def test_fixed_row_width():
    fine, _, t = _pair()
    assert t.nnz == 10 * fine.n_nodes
    np.testing.assert_array_equal(np.diff(t.p_indptr), 10)


@settings(max_examples=25, deadline=None)
@given(coeffs=st.lists(
    st.floats(-10.0, 10.0, allow_nan=False), min_size=4, max_size=4
))
def test_prolongation_reproduces_linear_fields(coeffs):
    # u(x) = a + b.x is in every TET10 space; nested interpolation is
    # exact on it for arbitrary coefficients, not just special cases
    fine, coarse, t = _pair()
    a, b, c, d = coeffs
    lin = lambda nodes: a + nodes @ np.array([b, c, d])
    got = t.prolong_nodal(lin(coarse.nodes))
    np.testing.assert_allclose(got, lin(fine.nodes), atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_restriction_adjoint_identity(seed):
    # <P xc, yf> == <xc, R yf>: the pairing that makes R A P symmetric
    fine, coarse, t = _pair()
    rng = np.random.default_rng(seed)
    xc = rng.standard_normal(coarse.n_nodes)
    yf = rng.standard_normal(fine.n_nodes)
    lhs = float(t.prolong_nodal(xc) @ yf)
    rhs = float(xc @ t.restrict_nodal(yf))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


# ------------------------------------------------ dof-level backends
@pytest.mark.parametrize("name", available_backend_names())
def test_dof_apply_matches_kron_product(name):
    fine, coarse, t = _pair()
    bk = backend_by_name(name)
    rng = np.random.default_rng(7)
    r = 3
    XC = rng.standard_normal((3 * coarse.n_nodes, r))
    XF = rng.standard_normal((3 * fine.n_nodes, r))

    P_dof = sp.kron(t.prolongation_matrix(), sp.eye(3), format="csr")
    np.testing.assert_allclose(
        t.prolong(XC, backend=bk), P_dof @ XC, rtol=1e-13, atol=1e-13
    )
    np.testing.assert_allclose(
        t.restrict(XF, backend=bk), P_dof.T @ XF, rtol=1e-13, atol=1e-13
    )
    # single-vector form hits the same kernels
    np.testing.assert_allclose(
        t.prolong(XC[:, 0], backend=bk), P_dof @ XC[:, 0],
        rtol=1e-13, atol=1e-13,
    )


def test_numpy_backends_bit_identical():
    fine, coarse, t = _pair()
    rng = np.random.default_rng(11)
    XC = rng.standard_normal((3 * coarse.n_nodes, 2))
    ref = t.prolong(XC, backend=backend_by_name("numpy"))
    for name in available_backend_names():
        got = t.prolong(XC, backend=backend_by_name(name))
        np.testing.assert_array_equal(got, ref)
