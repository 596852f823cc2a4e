"""EBE matrix-free operator vs assembled representations."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fem.assembly import assemble_bsr, element_dof_ids
from repro.sparse.backend import as_backend
from repro.sparse.ebe import EBEOperator
from repro.sparse.precision import as_precision
from repro.util.counters import tally_scope


@pytest.fixture(scope="module")
def ops(small_problem):
    A_ebe = small_problem.ebe_operator()
    A_crs = small_problem.crs_operator()
    return A_ebe, A_crs


def test_matvec_matches_bsr(ops, rng):
    A_ebe, A_crs = ops
    x = rng.standard_normal(A_ebe.n)
    y1, y2 = A_ebe @ x, A_crs @ x
    np.testing.assert_allclose(y1, y2, rtol=1e-12, atol=1e-12 * np.abs(y2).max())


def test_multi_rhs_matches_single(ops, rng):
    A_ebe, _ = ops
    X = rng.standard_normal((A_ebe.n, 4))
    Y = A_ebe.matvec(X)
    for k in range(4):
        np.testing.assert_allclose(Y[:, k], A_ebe @ X[:, k], rtol=1e-12)


def test_diagonal_blocks_match(ops):
    A_ebe, A_crs = ops
    d1, d2 = A_ebe.diagonal_blocks(), A_crs.diagonal_blocks()
    np.testing.assert_allclose(d1, d2, rtol=1e-10, atol=1e-10 * np.abs(d2).max())


def test_to_dense_matches(small_problem):
    # a tiny sub-problem keeps the dense assembly cheap
    from repro.fem.mesh import structured_box
    from repro.fem.elements import element_mass_stiffness
    from repro.fem.material import lame_parameters

    mesh = structured_box(1, 1, 1)
    ne = mesh.n_elems
    lam, mu = lame_parameters(np.full(ne, 1.0), np.full(ne, 2.0), np.full(ne, 1.0))
    _, Ke = element_mass_stiffness(mesh.nodes[mesh.elems], np.full(ne, 1.0), lam, mu)
    op = EBEOperator(Ke, mesh.elems, mesh.n_nodes)
    dense = op.to_dense()
    ref = assemble_bsr(Ke, mesh.elems, mesh.n_nodes).toarray()
    np.testing.assert_allclose(dense, ref, atol=1e-10 * np.abs(ref).max())


@pytest.mark.parametrize("backend", [as_backend()], ids=["numpy"])
@pytest.mark.parametrize("precision", ["fp64", "fp32", "fp21"])
@pytest.mark.parametrize("r", [1, 4, 8])
def test_sweep_matches_dense(small_problem, rng, r, precision, backend):
    """The node-layout sweep against the densely assembled operator:
    element matrices and gathered operand both held at the storage
    format, the arithmetic in fp64."""
    op = EBEOperator(small_problem.element_matrices("A"), small_problem.mesh.elems,
                     small_problem.n_nodes, precision=precision,
                     backend=backend)
    X = rng.standard_normal((op.n, r))
    expect = op.to_dense() @ as_precision(precision).quantize(X)
    np.testing.assert_allclose(
        op.matvec(X), expect, rtol=1e-12, atol=1e-12 * np.abs(expect).max()
    )


def _ascending_element_sums(op, X, order=None):
    """Each node's element contributions added one by one in ascending
    element order (or in ``order``), starting from the first."""
    mats = op.Ae if op.classes is None else op.Ae[op.classes]
    ye = mats @ X[element_dof_ids(op.elems)]  # (ne, 30, r)
    expect = np.zeros((op.n_nodes, 3, X.shape[1]))
    seen = np.zeros(op.n_nodes, dtype=bool)
    for e in range(op.n_elems) if order is None else order:
        for a, node in enumerate(op.elems[e]):
            contrib = ye[e, 3 * a:3 * a + 3]
            if seen[node]:
                expect[node] += contrib
            else:
                expect[node] = contrib
                seen[node] = True
    return expect.reshape(op.n, X.shape[1])


def test_summation_order_is_ascending_element_order(ops, rng):
    """Pin of the scatter's summation order: each node's value is, bit
    for bit, its element contributions added one by one in ascending
    element order starting from the first.  ``DistributedEBE`` keeps
    this order; an unordered (or pairwise)
    reduction swapped in for the incidence product fails here."""
    A_ebe, _ = ops
    X = rng.standard_normal((A_ebe.n, 4))
    np.testing.assert_array_equal(A_ebe.matvec(X), _ascending_element_sums(A_ebe, X))


def test_grouped_summation_order_is_ascending_element_order(small_mesh, rng):
    """The same pin on a grouped operator, whose sweep runs class by
    class: the incidence must still add in *original* element order.
    Small-integer class matrices and operand make every GEMM exact; one
    class's matrix is scaled by 2**53, so a node adds contributions near
    2**53 beside ones near 1.0 and its rounding depends on their order."""
    ne = small_mesh.n_elems
    classes = rng.permutation(np.arange(ne) % 3)
    A = rng.integers(-3, 4, size=(3, 30, 30)).astype(float)
    A[1] *= 2.0 ** 53
    op = EBEOperator(A, small_mesh.elems, small_mesh.n_nodes, classes=classes)
    X = rng.integers(-3, 4, size=(op.n, 4)).astype(float)
    expect = _ascending_element_sums(op, X)
    in_sweep_order = _ascending_element_sums(op, X, np.argsort(classes, kind="stable"))
    assert not np.array_equal(in_sweep_order, expect)  # the order shows
    np.testing.assert_array_equal(op.matvec(X), expect)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    fn()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def test_repeated_application_is_bit_equal_and_allocation_free(ops, rng):
    A_ebe, _ = ops
    X = rng.standard_normal((A_ebe.n, 4))
    out = np.full_like(X, np.nan)
    first = A_ebe.matvec(X, out=out).copy()  # also makes the r=4 workspace
    peak = _traced_peak(lambda: A_ebe.matvec(X, out=out))
    np.testing.assert_array_equal(out, first)
    assert peak < 2048, f"warm sweep allocated {peak} bytes"  # views only


def test_strided_out_is_rejected(ops, rng):
    """The result lands in the node view of ``out``; a strided block
    has none, so it is refused instead of silently left unwritten."""
    A_ebe, _ = ops
    X = rng.standard_normal((A_ebe.n, 2))
    for out in (np.empty((A_ebe.n, 4))[:, ::2], np.empty((2, A_ebe.n)).T):
        with pytest.raises(ValueError, match="C-contiguous"):
            A_ebe.matvec(X, out=out)


def test_strided_operand_is_staged(ops, rng):
    """Strided operands (a column of a block, a Fortran block) go
    through the per-r staging buffer: same bits as a contiguous copy,
    and nothing allocated once the buffer exists."""
    A_ebe, _ = ops
    wide = rng.standard_normal((A_ebe.n, 6))
    for X in (wide[:, ::2], np.asfortranarray(wide[:, :3]), wide[:, 1]):
        assert not (X[:, None] if X.ndim == 1 else X).flags.c_contiguous
        np.testing.assert_array_equal(
            A_ebe.matvec(X), A_ebe.matvec(np.ascontiguousarray(X))
        )
    X, out = wide[:, ::2], np.empty((A_ebe.n, 3))
    assert _traced_peak(lambda: A_ebe.matvec(X, out=out)) < 2048


def test_charge_equals_ebe_traffic_on_every_call(ops):
    """The tally charge is computed once per fused width; every call
    must still charge exactly what ``ebe_traffic`` gives."""
    from repro.sparse.traffic import ebe_traffic

    A_ebe, _ = ops
    w = ebe_traffic(A_ebe.n_elems, A_ebe.n_nodes, n_rhs=4)
    with tally_scope() as t:
        for _ in range(3):
            A_ebe.matvec(np.zeros((A_ebe.n, 4)))
    assert t.calls("spmv.ebe4") == 3
    assert t.total_flops("spmv.ebe4") == 3 * (w.flops * 4)
    assert t.total_bytes("spmv.ebe4") == 3 * (w.bytes * 4)


def test_tags_distinguish_fused_width(ops):
    A_ebe, _ = ops
    with tally_scope() as t:
        A_ebe @ np.zeros(A_ebe.n)
        A_ebe.matvec(np.zeros((A_ebe.n, 4)))
    assert t.calls("spmv.ebe1") == 1
    assert t.calls("spmv.ebe4") == 1


def test_fused_bytes_amortized(ops):
    """Per-case traffic must drop with fusion (Eq. 9's 1/r random
    access)."""
    A_ebe, _ = ops
    with tally_scope() as t1:
        A_ebe @ np.zeros(A_ebe.n)
    with tally_scope() as t4:
        A_ebe.matvec(np.zeros((A_ebe.n, 4)))
    per_case_1 = t1.total_bytes("spmv.ebe1")
    per_case_4 = t4.total_bytes("spmv.ebe4") / 4
    assert per_case_4 < per_case_1


def test_memory_smaller_than_crs(ops):
    """The paper's point: matrix-free needs far less device memory."""
    A_ebe, A_crs = ops
    assert A_ebe.memory_bytes() < 0.2 * A_crs.memory_bytes()


def test_operand_validation(ops):
    A_ebe, _ = ops
    with pytest.raises(ValueError):
        A_ebe @ np.zeros(A_ebe.n + 3)


def test_connectivity_validation(small_mesh):
    bad = np.zeros((1, 30, 30))
    elems = np.array([[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]])
    with pytest.raises(ValueError, match="beyond n_nodes"):
        EBEOperator(bad, elems, n_nodes=5)
    with pytest.raises(ValueError, match="negative"):
        EBEOperator(bad, elems - 1, n_nodes=10)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_linearity(ops, seed):
    """A(ax + by) == a Ax + b Ay for the matrix-free operator."""
    A_ebe, _ = ops
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal((2, A_ebe.n))
    a, b = rng.standard_normal(2)
    lhs = A_ebe @ (a * x + b * y)
    rhs = a * (A_ebe @ x) + b * (A_ebe @ y)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-8)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_symmetry(ops, seed):
    """x' A y == y' A x (element matrices are symmetric)."""
    A_ebe, _ = ops
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal((2, A_ebe.n))
    assert np.dot(x, A_ebe @ y) == pytest.approx(np.dot(y, A_ebe @ x), rel=1e-9)
