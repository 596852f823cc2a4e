"""The array seam: primitive contracts.

Every primitive of :class:`~repro.sparse.backend.ArrayBackend` is
checked against a straightforward NumPy formulation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from regrouped import RowBlockedBackend

from repro.sparse.backend import ArrayBackend, as_backend
from repro.sparse.precision import FP21, FP32, FP64


def test_as_backend_resolution():
    bk = as_backend()
    assert isinstance(bk, ArrayBackend)
    assert as_backend(None) is bk  # one shared instance
    mine = ArrayBackend()
    assert as_backend(mine) is mine


# ------------------------------------------------- primitive contracts
def _rng(seed=0):
    return np.random.default_rng(seed)


@pytest.fixture(params=[as_backend()], ids=["NumpyBackend"])
def bk(request) -> ArrayBackend:
    """The shared engine; its id names what it computes with."""
    return request.param


def test_workspace_allocation(bk):
    a = bk.empty((4, 3))
    z = bk.zeros((4, 3))
    assert a.shape == (4, 3) and z.shape == (4, 3)
    np.testing.assert_array_equal(z, 0.0)


def test_copy_fill_subtract(bk):
    rng = _rng(1)
    a, b = rng.standard_normal((12, 3)), rng.standard_normal((12, 3))
    dst = np.empty_like(a)
    assert bk.copy(dst, a) is dst
    np.testing.assert_array_equal(dst, a)
    assert bk.fill(dst, 2.5) is dst
    np.testing.assert_array_equal(dst, 2.5)
    out = np.empty_like(a)
    assert bk.subtract(a, b, out) is out
    np.testing.assert_array_equal(out, a - b)
    # 1-D operands (scalar housekeeping paths) work too
    v = rng.standard_normal(5)
    d1 = np.empty(5)
    bk.copy(d1, v)
    np.testing.assert_array_equal(d1, v)
    bk.fill(d1, 0.0)
    np.testing.assert_array_equal(d1, 0.0)
    bk.subtract(v, v, d1)
    np.testing.assert_array_equal(d1, 0.0)


def test_xpay_axpy_axmy_cols(bk):
    rng = _rng(2)
    n, r = 40, 4
    P, Z = rng.standard_normal((n, r)), rng.standard_normal((n, r))
    beta = rng.standard_normal(r)
    expect = P * beta + Z
    assert bk.xpay_cols(P, beta, Z) is P
    np.testing.assert_allclose(P, expect, rtol=1e-15)

    Y, V = rng.standard_normal((n, r)), rng.standard_normal((n, r))
    s = rng.standard_normal(r)
    work = np.empty_like(Y)
    expect = Y + s * V
    assert bk.axpy_cols(Y, s, V, work) is Y
    np.testing.assert_allclose(Y, expect, rtol=1e-15)
    expect = Y - s * V
    assert bk.axmy_cols(Y, s, V, work) is Y
    np.testing.assert_allclose(Y, expect, rtol=1e-15)


def test_colwise_dot_and_norm(bk):
    rng = _rng(3)
    V, W = rng.standard_normal((9000, 3)), rng.standard_normal((9000, 3))
    out = np.empty(3)
    bk.colwise_dot(V, W, out)
    np.testing.assert_allclose(out, np.einsum("ij,ij->j", V, W), rtol=1e-12)
    bk.colwise_norm(V, out)
    np.testing.assert_allclose(out, np.linalg.norm(V, axis=0), rtol=1e-12)


def test_sqrt_inplace(bk):
    a = np.array([4.0, 9.0, 0.25])
    assert bk.sqrt_(a) is a
    np.testing.assert_array_equal(a, [2.0, 3.0, 0.5])


def test_gather_rows(bk):
    rng = _rng(4)
    X = rng.standard_normal((20, 3))
    idx = rng.integers(0, 20, size=(7, 5))
    out = np.empty((7, 5, 3))
    assert bk.gather_rows(X, idx, out) is out
    np.testing.assert_array_equal(out, X[idx])


@pytest.mark.parametrize("r", [1, 4, 8])
@pytest.mark.parametrize("sizes", [
    pytest.param((1,) * 7, id="identity"),
    pytest.param((3, 1, 0, 2, 1), id="uneven"),
    pytest.param((7,), id="single-class"),
])
def test_grouped_matmul(bk, sizes, r):
    """``A[c] @ x_e`` for the members ``e`` of group ``c``, laid out
    class-blocked: group ``c`` is the ``(30, k_c r)`` matrix at rows
    ``30 offsets[c]``, its members side by side — one group per member
    (the ``(N, 30, r)`` stack), groups of uneven size (an empty one
    included) and a single group for every member."""
    rng = _rng(5)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    A = rng.standard_normal((len(sizes), 30, 30))
    members = rng.standard_normal((offsets[-1], 30, r))  # x_e, member by member

    def blocked(Z):  # (N, 30, r) members -> the class-blocked (30 N, r)
        return np.concatenate([Z[s:e].transpose(1, 0, 2).reshape(-1, r)
                               for s, e in zip(offsets[:-1], offsets[1:])])

    X = blocked(members)
    out = np.full_like(X, np.nan)
    assert bk.grouped_matmul(A, offsets, X, out) is out
    group = np.repeat(np.arange(len(sizes)), sizes)
    np.testing.assert_allclose(out, blocked(A[group] @ members),
                               rtol=1e-13, atol=1e-13)


def test_ebe_sweep_on_engine(bk, tiny_mesh):
    """The whole sweep (gather, grouped apply, CSR incidence scatter,
    strided-operand staging) grouped (class-blocked by dof) as one
    class and as three against the stored sweep (by node) over the
    expanded matrices."""
    from repro.sparse.ebe import EBEOperator

    rng = _rng(6)
    ne = tiny_mesh.n_elems
    wide = rng.standard_normal((3 * tiny_mesh.n_nodes, 4))
    for Ae, classes in ((rng.standard_normal((ne, 30, 30)), None),
                        (rng.standard_normal((1, 30, 30)), np.zeros(ne, dtype=int)),
                        (rng.standard_normal((3, 30, 30)), rng.integers(0, 3, ne))):
        ref = EBEOperator(Ae if classes is None else Ae[classes],
                          tiny_mesh.elems, tiny_mesh.n_nodes)
        op = EBEOperator(Ae, tiny_mesh.elems, tiny_mesh.n_nodes, backend=bk,
                         classes=classes)
        assert (op.classes is None) == (classes is None)
        for X in (np.ascontiguousarray(wide[:, :2]), wide[:, ::2]):
            expect = ref.matvec(X)
            np.testing.assert_allclose(
                op.matvec(X), expect, rtol=1e-12, atol=1e-12 * np.abs(expect).max()
            )


def test_block_diag_matvec(bk):
    rng = _rng(8)
    nb, r = 11, 3
    inv = rng.standard_normal((nb, 3, 3))
    R = rng.standard_normal((3 * nb, r))
    out = np.empty((3 * nb, r))
    bk.block_diag_matvec(inv, R, out)
    expect = (inv @ R.reshape(nb, 3, r)).reshape(3 * nb, r)
    np.testing.assert_allclose(out, expect, rtol=1e-13)


def test_spmv_csr(bk):
    import scipy.sparse as sp

    rng = _rng(9)
    A = sp.random(30, 30, density=0.2, random_state=3, format="csr")
    A.sort_indices()
    X = rng.standard_normal((30, 4))
    out = np.empty((30, 4))
    bk.spmv_csr(A.indptr, A.indices, A.data, X, out)
    np.testing.assert_allclose(out, A @ X, rtol=1e-12)


def test_qr_estimate(bk):
    """The history-regression primitive agrees with a per-region
    ``lstsq`` to rounding — on strided views (how the predictor passes
    its work buffer) bit for bit as on contiguous arrays, and with a
    dead column in the batch."""
    rng = _rng(13)
    nreg, m, m_out, s = 3, 40, 17, 5
    W = rng.standard_normal((nreg, s + 1, m))
    Z = W.transpose(0, 2, 1)  # [X | x], one Fortran-ordered matrix per region
    X, x = Z[:, :, :s], Z[:, :, s]
    Y = rng.standard_normal((nreg, m_out, s))
    y_strided = bk.qr_estimate(Z, Y, 1e-12)
    for Zk in (Z, np.ascontiguousarray(Z)):
        y = bk.qr_estimate(Zk, Y, 1e-12)
        assert y.shape == (nreg, m_out)
        np.testing.assert_array_equal(y, y_strided)
        for r in range(nreg):
            w = np.linalg.lstsq(X[r], x[r], rcond=None)[0]
            np.testing.assert_allclose(y[r], Y[r] @ w, rtol=1e-10, atol=1e-12)
    Zd = Z.copy()
    Zd[1, :, 3] = Zd[1, :, 0]  # exact repeat: column 3 of region 1 is dead
    yd = bk.qr_estimate(Zd, Y, 1e-12)
    np.testing.assert_allclose(yd[[0, 2]], y[[0, 2]], rtol=1e-12)
    keep = [0, 1, 2, 4]
    w = np.linalg.lstsq(Zd[1][:, keep], x[1], rcond=None)[0]
    np.testing.assert_allclose(yd[1], Y[1][:, keep] @ w, rtol=1e-10, atol=1e-12)


def test_spmv_csr_noncontiguous_falls_back():
    """The fallback path (non-C-contiguous input) must agree with the
    fast path."""
    import scipy.sparse as sp

    bk = as_backend()
    A = sp.random(25, 25, density=0.3, random_state=4, format="csr")
    X = np.asfortranarray(_rng(10).standard_normal((25, 2)))
    out = np.empty((25, 2))
    bk.spmv_csr(A.indptr, A.indices, A.data, X, out)
    np.testing.assert_allclose(out, A @ X, rtol=1e-12)


# --------------------------------------- quantize-on-store (the seam's
# one shared quantization primitive; property tests per satellite #6)
_vals = st.floats(min_value=-1e30, max_value=1e30,
                  allow_nan=False, allow_infinity=False)


@settings(max_examples=50, deadline=None)
@given(st.lists(_vals, min_size=1, max_size=16))
def test_quantize_store_fp64_is_identity(xs):
    bk = as_backend()
    a = np.asarray(xs)
    before = a.copy()
    assert bk.quantize_store(a, FP64) is a
    np.testing.assert_array_equal(a, before)


@settings(max_examples=50, deadline=None)
@given(st.lists(_vals, min_size=1, max_size=16))
def test_quantize_store_matches_precision_and_is_idempotent(xs):
    bk = as_backend()
    for prec in (FP32, FP21):
        a = np.asarray(xs)
        expect = prec.quantize(a.copy())
        assert bk.quantize_store(a, prec) is a  # in place
        np.testing.assert_array_equal(a, expect)
        bk.quantize_store(a, prec)  # store twice = store once
        np.testing.assert_array_equal(a, expect)


def test_quantize_store_backend_independent():
    """Quantization is storage semantics, not execution: an engine
    whose reductions regroup stores bit-identical values."""
    rng = _rng(11)
    ref = rng.standard_normal((64, 3))
    expect = FP21.quantize(ref.copy())
    for bk in (as_backend(), RowBlockedBackend()):
        a = ref.copy()
        bk.quantize_store(a, FP21)
        np.testing.assert_array_equal(a, expect)


# ------------------------------------------- regrouped reductions
def test_blocked_dot_regroups_but_agrees():
    """The test-local row-blocked engine differs from the shared one
    only by summation grouping: reductions agree to rounding (and
    bit-match below one block)."""
    ref, blk = as_backend(), RowBlockedBackend()
    rng = _rng(12)
    n = blk.block_rows * 2 + 37  # spans three blocks
    V, W = rng.standard_normal((n, 2)), rng.standard_normal((n, 2))
    a, b = np.empty(2), np.empty(2)
    ref.colwise_dot(V, W, a)
    blk.colwise_dot(V, W, b)
    np.testing.assert_allclose(b, a, rtol=1e-12)
    # under one block the grouping is identical -> bit-equal
    ref.colwise_dot(V[:blk.block_rows], W[:blk.block_rows], a)
    blk.colwise_dot(V[:blk.block_rows], W[:blk.block_rows], b)
    np.testing.assert_array_equal(b, a)
