"""The batched QR estimate against the modified Gram-Schmidt oracle.

``mgs_estimate`` now runs a stacked Householder QR behind the array
seam; ``mgs_reference.py`` keeps the per-column MGS it replaced.  The
two round differently, so closeness is asserted only where the problem
is well conditioned; on the smooth, nearly dependent histories real
runs produce, the kernel is held to what defines it instead — least
squares on the alive columns, coefficient exactly 0 on the dead ones.
Coefficients are read through the public signature by passing the
identity as ``Y``.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mgs_reference import mgs_estimate_reference, stacked

from repro.predictor.datadriven import mgs_estimate

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def coefficients(X, x, rtol=1e-12):
    """``w`` with ``y = Y w``, per region: the estimate of ``Y = I``."""
    nreg, _, s = X.shape
    return mgs_estimate(stacked(X, x), np.broadcast_to(np.eye(s), (nreg, s, s)), rtol)


def random_problem(rng, nreg, m, s, m_out=None):
    X = rng.standard_normal((nreg, m, s))
    Y = rng.standard_normal((nreg, m_out or m, s))
    x = rng.standard_normal((nreg, m))
    return X, Y, x


def assert_close_to_oracle(X, Y, x, tol=1e-10):
    want = mgs_estimate_reference(X, Y, x)
    got = mgs_estimate(stacked(X, x), Y)
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got, want, rtol=0, atol=tol * max(np.abs(want).max(), 1.0))


# ------------------------------------------------- well conditioned
@settings(max_examples=40, deadline=None)
@given(
    seed=seeds,
    nreg=st.integers(1, 4),
    s=st.integers(1, 10),
    extra_rows=st.integers(0, 40),
    m_out=st.integers(1, 30),
)
def test_agrees_with_mgs_on_well_conditioned_inputs(seed, nreg, s, extra_rows, m_out):
    rng = np.random.default_rng(seed)
    X, Y, x = random_problem(rng, nreg, s + 2 + extra_rows, s, m_out)
    assume(np.linalg.cond(X).max() < 1e3)
    assert_close_to_oracle(X, Y, x)


@settings(max_examples=20, deadline=None)
@given(seed=seeds, nreg=st.integers(1, 3), m=st.integers(1, 6), s=st.integers(2, 9))
def test_agrees_with_mgs_when_rows_run_out(seed, nreg, m, s):
    """Fewer rows than columns: the columns past the rank are dead in
    both kernels and the rest is an exact fit."""
    rng = np.random.default_rng(seed)
    X, Y, x = random_problem(rng, nreg, m, s)
    assume(np.linalg.cond(X[:, :, : min(m, s)]).max() < 1e3)
    assert_close_to_oracle(X, Y, x, tol=1e-8)
    if s > m:
        assert np.all(coefficients(X, x)[:, m:] == 0.0)


# --------------------------------------- smooth, nearly dependent
def smooth_history(rng, nreg, m, s, noise):
    """Columns sampled along a trajectory of three damped modes, as the
    corrections of consecutive time steps are: numerical rank ~6, the
    rest of each column is ``noise``."""
    rows = np.linspace(0.0, 1.0, m)[None, :, None]
    t = np.arange(s + 1)[None, None, :]
    H = np.zeros((nreg, m, s + 1))
    for _ in range(3):
        omega, phase = rng.uniform(0.05, 0.4), rng.uniform(0.0, 6.0, (nreg, 1, 1))
        shape = np.sin(rng.uniform(1.0, 9.0) * rows + phase)
        H += 0.99**t * (np.cos(omega * t) * shape + np.sin(omega * t) * shape[:, ::-1])
    H += noise * rng.standard_normal(H.shape)
    return H[:, :, :s], H[:, :, 1:], H[:, :, s]


@settings(max_examples=30, deadline=None)
@given(
    seed=seeds,
    nreg=st.integers(1, 3),
    s=st.integers(8, 16),
    noise=st.sampled_from([1e-11, 1e-12, 1e-13, 0.0]),
)
def test_ill_conditioned_history_is_least_squares_on_alive_columns(seed, nreg, s, noise):
    rng = np.random.default_rng(seed)
    X, Y, x = smooth_history(rng, nreg, 12 * s, s, noise)
    assert np.linalg.cond(X).min() >= 1e10  # the regime real runs are in
    w = coefficients(X, x)
    y = mgs_estimate(stacked(X, x), Y)
    assert np.all(np.isfinite(w)) and np.all(np.isfinite(y))
    eps = np.finfo(float).eps
    for r in range(nreg):
        alive = w[r] != 0.0
        assert alive.any()
        resid = x[r] - X[r] @ w[r]
        # backward stability of Householder least squares: the normal
        # equations of the alive columns hold to rounding of the data
        normX = np.linalg.norm(X[r])
        bound = 1e3 * eps * normX * (np.linalg.norm(x[r]) + normX * np.linalg.norm(w[r]))
        assert np.abs(X[r][:, alive].T @ resid).max() <= bound
        np.testing.assert_allclose(
            y[r], Y[r] @ w[r], rtol=0,
            atol=1e3 * eps * np.linalg.norm(Y[r]) * np.linalg.norm(w[r]),
        )


# ------------------------------------------------------ dead columns
@settings(max_examples=30, deadline=None)
@given(seed=seeds, s=st.integers(2, 8), data=st.data())
def test_duplicate_and_zero_columns_get_coefficient_zero(seed, s, data):
    """Exact repeats and all-zero columns are dead — coefficient
    exactly 0, everything finite — and the alive columns are fitted as
    the oracle fits them."""
    rng = np.random.default_rng(seed)
    X, Y, x = random_problem(rng, 2, 6 * s, s)
    assume(np.linalg.cond(X).max() < 1e3)
    dup = data.draw(st.integers(1, s - 1), label="duplicate column")
    src = data.draw(st.integers(0, dup - 1), label="of column")
    zero = data.draw(st.integers(0, s - 1), label="zero column")
    X[0, :, dup] = X[0, :, src]
    X[1, :, zero] = 0.0
    w = coefficients(X, x)
    assert np.all(np.isfinite(w))
    assert w[0, dup] == 0.0 and w[1, zero] == 0.0
    assert np.count_nonzero(w[0]) == s - 1 and np.count_nonzero(w[1]) == s - 1
    assert_close_to_oracle(X, Y, x)


@settings(max_examples=60, deadline=None)
@given(
    seed=seeds,
    kinds=st.lists(st.sampled_from(["fresh", "zero", "repeat", "combo"]), min_size=2, max_size=9),
)
def test_dead_columns_sharing_a_region(seed, kinds):
    """Several dead columns in one region, in any order — all-zero,
    exact repeats and sums of earlier columns: the dead set is the
    oracle's and the alive columns are fitted as the oracle fits them
    (a dead column must not change how a later one is judged)."""
    rng = np.random.default_rng(seed)
    s = len(kinds)
    X, Y, x = random_problem(rng, 1, 6 * s, s)
    dead = []
    for j, kind in enumerate(kinds):
        fresh = [i for i in range(j) if i not in dead]
        if kind == "fresh" or (kind != "zero" and not fresh):
            continue
        dead.append(j)
        if kind == "zero":
            X[0, :, j] = 0.0
        elif kind == "repeat":
            X[0, :, j] = X[0, :, rng.choice(fresh)]
        else:
            X[0, :, j] = X[0][:, fresh].sum(axis=1)
    alive = [j for j in range(s) if j not in dead]
    assume(alive and np.linalg.cond(X[0][:, alive]) < 1e3)
    w = coefficients(X, x)
    assert np.all(np.isfinite(w))
    assert np.all(w[0, dead] == 0.0) and np.all(w[0, alive] != 0.0)
    assert_close_to_oracle(X, Y, x)


def test_dead_column_examples_in_one_region():
    rng = np.random.default_rng(11)
    a, b, x = rng.standard_normal((3, 12))
    zero = np.zeros(12)
    for cols, dead in (
        ([zero, a, a], [0, 2]),
        ([a, a, b, b], [1, 3]),
        ([zero, a, b, a + b], [0, 3]),
    ):
        X = np.stack(cols, axis=1)[None]
        w = coefficients(X, x[None])
        assert np.all(w[0, dead] == 0.0)
        assert_close_to_oracle(X, np.eye(len(cols))[None], x[None])
    # a zero column first must not make an independent column look dead:
    # the third column's Householder pivot is exactly 0 here
    X = np.zeros((1, 4, 3))
    X[0, :2, 1] = 1.0
    X[0, 1, 2] = 1.0
    np.testing.assert_allclose(
        coefficients(X, np.array([[1.0, 2.0, 3.0, 4.0]])), [[0.0, 1.0, 1.0]],
        rtol=0, atol=1e-15,
    )


def test_zero_column_does_not_cost_later_columns_a_row():
    """A leading zero column followed by a column whose whole mass sits
    in the first row: Householder leaves that row out of the later
    reflections, so a drop rule on ``|R_jj|`` alone would kill the
    second column too."""
    X = np.zeros((1, 5, 2))
    X[0, 0, 1] = 1.0
    x = np.array([[2.0, 0.0, 0.0, 0.0, 0.0]])
    np.testing.assert_array_equal(coefficients(X, x), [[0.0, 2.0]])
    rng = np.random.default_rng(5)
    X, Y, x = random_problem(rng, 1, 50, 6)
    X[0, :, :3] = 0.0
    X[0, 0, 2] = 3.0
    assert_close_to_oracle(X, Y, x)


def test_all_zero_region_estimates_zero():
    rng = np.random.default_rng(6)
    X, Y, x = random_problem(rng, 3, 20, 4)
    X[1] = 0.0
    y = mgs_estimate(stacked(X, x), Y)
    np.testing.assert_array_equal(y[1], 0.0)
    np.testing.assert_array_equal(coefficients(X, x)[1], 0.0)
    assert_close_to_oracle(X, Y, x)
    # nothing at all to learn from: every region dead
    np.testing.assert_array_equal(mgs_estimate(stacked(np.zeros_like(X), x), Y), 0.0)


@settings(max_examples=20, deadline=None)
@given(seed=seeds, nreg=st.integers(1, 3), m=st.integers(1, 12))
def test_single_column_history(seed, nreg, m):
    rng = np.random.default_rng(seed)
    X, Y, x = random_problem(rng, nreg, m, 1)
    assert_close_to_oracle(X, Y, x)
    X[0] = 0.0
    w = coefficients(X, x)
    assert np.all(np.isfinite(w)) and w[0, 0] == 0.0


# ----------------------------------------------------------- batching
@settings(max_examples=20, deadline=None)
@given(seed=seeds, nreg=st.integers(2, 5), s=st.integers(1, 8), dead=st.booleans())
def test_batched_equals_per_region(seed, nreg, s, dead):
    rng = np.random.default_rng(seed)
    X, Y, x = random_problem(rng, nreg, 5 * s + 3, s)
    if dead:  # one region takes the dead-column path, the batch with it
        X[0, :, s - 1] = 0.0
    batched = mgs_estimate(stacked(X, x), Y)
    for r in range(nreg):
        solo = mgs_estimate(stacked(X[r : r + 1], x[r : r + 1]), Y[r : r + 1])
        np.testing.assert_allclose(batched[r], solo[0], rtol=1e-12, atol=1e-13)
