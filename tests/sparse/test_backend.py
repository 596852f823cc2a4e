"""Array-backend seam: registry semantics and primitive contracts.

Every primitive of every *available* backend is checked against a
straightforward NumPy formulation; the numba backend's kernel logic is
additionally exercised as plain Python (the un-jitted ``py_*``
functions), so the kernel bodies stay tested even where numba itself
is not installed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import backend_numba
from repro.sparse.backend import (
    BACKENDS,
    ArrayBackend,
    BackendUnavailableError,
    BlockedNumpyBackend,
    NumpyBackend,
    as_backend,
    available_backend_names,
    backend_by_name,
    backend_names,
    default_backend_name,
    register_backend,
)
from repro.sparse.precision import FP21, FP32, FP64


# ------------------------------------------------------------ registry
def test_registry_contains_all_engines():
    assert set(backend_names()) >= {"numpy", "numpy-blocked", "numba"}
    # reference backends are importable everywhere
    assert {"numpy", "numpy-blocked"} <= set(available_backend_names())


def test_backend_by_name_resolves_and_caches():
    bk = backend_by_name("numpy")
    assert isinstance(bk, NumpyBackend)
    assert backend_by_name("numpy") is bk  # instance cache


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="unknown backend"):
        backend_by_name("fortran")


def test_unavailable_backend_raises_distinct_error():
    """Registered-but-unimportable engines raise
    BackendUnavailableError (a RuntimeError), never ValueError — the
    skip/fail distinction CI leans on."""
    for name in backend_names():
        if name in available_backend_names():
            continue
        with pytest.raises(BackendUnavailableError):
            backend_by_name(name)


def test_duplicate_registration_rejected():
    class Imposter(NumpyBackend):
        name = "numpy"

    with pytest.raises(ValueError, match="already registered"):
        register_backend(Imposter)
    assert BACKENDS["numpy"] is NumpyBackend  # registry untouched


def test_unnamed_backend_rejected():
    class Nameless(NumpyBackend):
        name = ""

    with pytest.raises(ValueError, match="non-empty"):
        register_backend(Nameless)


def test_as_backend_resolution():
    bk = backend_by_name("numpy")
    assert as_backend(None) is bk
    assert as_backend("numpy") is bk
    assert as_backend(bk) is bk
    assert as_backend("numpy-blocked") is backend_by_name("numpy-blocked")


def test_repro_backend_env_override(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert default_backend_name() == "numpy"
    monkeypatch.setenv("REPRO_BACKEND", "numpy-blocked")
    assert default_backend_name() == "numpy-blocked"
    assert isinstance(as_backend(None), BlockedNumpyBackend)
    monkeypatch.setenv("REPRO_BACKEND", "")  # empty = unset
    assert default_backend_name() == "numpy"


def test_descriptions_nonempty():
    for name in backend_names():
        assert BACKENDS[name].description


# ------------------------------------------------- primitive contracts
def _rng(seed=0):
    return np.random.default_rng(seed)


def _backends_under_test():
    """Every available backend, plus the numba kernels run as plain
    Python when numba is absent (logic coverage without the engine)."""
    out = [backend_by_name(n) for n in available_backend_names()]
    if "numba" not in available_backend_names():
        out.append(_PyNumbaBackend())
    return out


class _PyNumbaBackend(backend_numba.NumbaBackend):
    """NumbaBackend executing its kernels un-jitted (plain Python)."""

    def __init__(self):  # skip the availability gate / compilation
        self._k = {fn.__name__: fn for fn in backend_numba._KERNELS}


def _ids(bk):
    return type(bk).__name__


@pytest.fixture(params=_backends_under_test(), ids=_ids)
def bk(request) -> ArrayBackend:
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


def test_batched_matmul(bk):
    rng = _rng(5)
    A = rng.standard_normal((6, 30, 30))
    X = rng.standard_normal((6, 30, 2))
    out = np.empty((6, 30, 2))
    bk.batched_matmul(A, X, out)
    np.testing.assert_allclose(out, A @ X, rtol=1e-13)


def test_ebe_sweep_on_engine(bk, tiny_mesh):
    """The whole node-layout sweep (gather by node, batched apply, CSR
    incidence scatter, strided-operand staging) through each engine's
    own primitives — for numba's kernel logic also where the engine is
    absent — against the reference backend."""
    from repro.sparse.ebe import EBEOperator

    rng = _rng(6)
    Ae = rng.standard_normal((tiny_mesh.n_elems, 30, 30))
    ref = EBEOperator(Ae, tiny_mesh.elems, tiny_mesh.n_nodes, backend="numpy")
    op = EBEOperator(Ae, tiny_mesh.elems, tiny_mesh.n_nodes, backend=bk)
    wide = rng.standard_normal((ref.n, 4))
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


def test_prolong_restrict(bk):
    """Grid-transfer primitives equal the kron-expanded scipy product
    (this matrix includes the un-jitted numba ``py_transfer3`` when the
    engine is absent)."""
    import scipy.sparse as sp

    rng = _rng(10)
    nf, nc, r = 17, 6, 2
    P = sp.random(nf, nc, density=0.4, random_state=4, format="csr")
    P.sort_indices()
    R = P.T.tocsr()
    R.sort_indices()
    P_dof = sp.kron(P, sp.eye(3), format="csr")
    XC = rng.standard_normal((3 * nc, r))
    XF = rng.standard_normal((3 * nf, r))
    out_f = np.empty((3 * nf, r))
    out_c = np.empty((3 * nc, r))
    assert bk.prolong(P.indptr, P.indices, P.data, XC, out_f) is out_f
    np.testing.assert_allclose(out_f, P_dof @ XC, rtol=1e-13, atol=1e-13)
    assert bk.restrict(R.indptr, R.indices, R.data, XF, out_c) is out_c
    np.testing.assert_allclose(out_c, P_dof.T @ XF, rtol=1e-13, atol=1e-13)


def test_qr_estimate(bk):
    """The history-regression primitive: every engine inherits the one
    default, so each agrees with the ``numpy`` reference exactly and
    with a per-region ``lstsq`` to rounding — on strided views (how the
    predictor passes its work buffer) as on contiguous arrays, and with
    a dead column in the batch."""
    rng = _rng(13)
    nreg, m, m_out, s = 3, 40, 17, 5
    W = rng.standard_normal((s, nreg, m))
    X = W.transpose(1, 2, 0)  # one Fortran-ordered matrix per region
    Y = rng.standard_normal((nreg, m_out, s))
    x = rng.standard_normal((nreg, m))
    ref = backend_by_name("numpy")
    for Xk in (X, np.ascontiguousarray(X)):
        y = bk.qr_estimate(Xk, Y, x, 1e-12)
        assert y.shape == (nreg, m_out)
        np.testing.assert_array_equal(y, ref.qr_estimate(Xk, Y, x, 1e-12))
        for r in range(nreg):
            w = np.linalg.lstsq(X[r], x[r], rcond=None)[0]
            np.testing.assert_allclose(y[r], Y[r] @ w, rtol=1e-10, atol=1e-12)
    Xd = X.copy()
    Xd[1, :, 3] = Xd[1, :, 0]  # exact repeat: column 3 of region 1 is dead
    yd = bk.qr_estimate(Xd, Y, x, 1e-12)
    np.testing.assert_array_equal(yd, ref.qr_estimate(Xd, Y, x, 1e-12))
    np.testing.assert_allclose(yd[[0, 2]], y[[0, 2]], rtol=1e-12)
    keep = [0, 1, 2, 4]
    w = np.linalg.lstsq(Xd[1][:, keep], x[1], rcond=None)[0]
    np.testing.assert_allclose(yd[1], Y[1][:, keep] @ w, rtol=1e-10, atol=1e-12)


def test_spmv_csr_noncontiguous_falls_back():
    """The reference backend's fallback path (non-C-contiguous input)
    must agree with the fast path."""
    import scipy.sparse as sp

    bk = backend_by_name("numpy")
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
    bk = backend_by_name("numpy")
    a = np.asarray(xs)
    before = a.copy()
    assert bk.quantize_store(a, FP64) is a
    np.testing.assert_array_equal(a, before)


@settings(max_examples=50, deadline=None)
@given(st.lists(_vals, min_size=1, max_size=16))
def test_quantize_store_matches_precision_and_is_idempotent(xs):
    for prec in (FP32, FP21):
        for bk in _backends_under_test():
            a = np.asarray(xs)
            expect = prec.quantize(a.copy())
            assert bk.quantize_store(a, prec) is a  # in place
            np.testing.assert_array_equal(a, expect)
            bk.quantize_store(a, prec)  # store twice = store once
            np.testing.assert_array_equal(a, expect)


def test_quantize_store_backend_independent():
    """Quantization is storage semantics, not execution: every backend
    stores bit-identical values."""
    rng = _rng(11)
    ref = rng.standard_normal((64, 3))
    expect = FP21.quantize(ref.copy())
    for bk in _backends_under_test():
        a = ref.copy()
        bk.quantize_store(a, FP21)
        np.testing.assert_array_equal(a, expect)


# ----------------------------------------------- blocked numpy backend
def test_blocked_dot_regroups_but_agrees():
    """numpy-blocked differs from the reference only by summation
    grouping: elementwise ops bit-match, reductions agree to rounding
    (and bit-match below one block)."""
    ref, blk = backend_by_name("numpy"), backend_by_name("numpy-blocked")
    rng = _rng(12)
    n = blk.block_rows * 2 + 37  # spans three blocks
    V, W = rng.standard_normal((n, 2)), rng.standard_normal((n, 2))
    a, b = np.empty(2), np.empty(2)
    ref.colwise_dot(V, W, a)
    blk.colwise_dot(V, W, b)
    np.testing.assert_allclose(b, a, rtol=1e-12)
    # under one block the grouping is identical -> bit-equal
    ref.colwise_dot(V[:100], W[:100], a)
    blk.colwise_dot(V[:100], W[:100], b)
    np.testing.assert_array_equal(b, a)
