"""Data-driven predictor: the history estimate and the predictor around it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predictor.datadriven import DataDrivenPredictor, mgs_estimate


# ---------------------------------------------------------------- mgs
def test_mgs_recovers_exact_linear_map():
    """If y_k = L x_k and the new x lies in span(X), the estimate is
    exact — the core property behind the paper's predictor."""
    rng = np.random.default_rng(0)
    m, s = 40, 6
    L = rng.standard_normal((m, m))
    X = rng.standard_normal((1, m, s))
    Y = np.einsum("ij,rjs->ris", L, X)
    coeffs = rng.standard_normal(s)
    x_new = np.einsum("rms,s->rm", X, coeffs)
    y_hat = mgs_estimate(X, Y, x_new)
    np.testing.assert_allclose(y_hat, np.einsum("ij,rj->ri", L, x_new), rtol=1e-8)


def test_mgs_orthogonal_component_maps_to_zero():
    """Input orthogonal to the history basis produces zero estimate
    (the decomposition x = Pc + r keeps only the span part)."""
    rng = np.random.default_rng(1)
    m, s = 30, 4
    X = rng.standard_normal((1, m, s))
    Y = rng.standard_normal((1, m, s))
    # build x orthogonal to all columns of X
    Q, _ = np.linalg.qr(X[0])
    x = rng.standard_normal(m)
    x -= Q @ (Q.T @ x)
    y_hat = mgs_estimate(X, Y, x[None])
    assert np.abs(y_hat).max() < 1e-8 * np.abs(Y).max()


def test_mgs_handles_rank_deficiency():
    """Duplicate history columns must not produce NaNs or blowups."""
    rng = np.random.default_rng(2)
    m, s = 25, 5
    X = rng.standard_normal((1, m, s))
    X[0, :, 3] = X[0, :, 1]  # exact repeat
    Y = rng.standard_normal((1, m, s))
    y_hat = mgs_estimate(X, Y, X[0, :, 1][None])
    assert np.all(np.isfinite(y_hat))


def test_mgs_batched_regions_independent():
    """Each region's estimate equals its standalone computation."""
    rng = np.random.default_rng(3)
    nreg, m, s = 3, 20, 4
    X = rng.standard_normal((nreg, m, s))
    Y = rng.standard_normal((nreg, m, s))
    x = rng.standard_normal((nreg, m))
    batched = mgs_estimate(X, Y, x)
    for r in range(nreg):
        solo = mgs_estimate(X[r : r + 1], Y[r : r + 1], x[r : r + 1])
        np.testing.assert_allclose(batched[r], solo[0], rtol=1e-10, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    s=st.integers(min_value=1, max_value=8),
)
def test_property_mgs_exact_on_span(seed, s):
    rng = np.random.default_rng(seed)
    m = 5 * s + 10
    X = rng.standard_normal((1, m, s))
    Y = rng.standard_normal((1, m, s))
    c = rng.standard_normal(s)
    x = np.einsum("rms,s->rm", X, c)
    y_ref = np.einsum("rms,s->rm", Y, c)
    y_hat = mgs_estimate(X, Y, x)
    np.testing.assert_allclose(y_hat, y_ref, rtol=1e-6, atol=1e-8)


# ------------------------------------------------- full predictor
def _run_linear_recurrence(pred, nt, n, k_modes=4, seed=0):
    """Feed low-dimensional free-vibration-like dynamics: ``u_k`` lives
    in a ``2 k_modes``-dim invariant subspace and evolves by a damped
    rotation (exactly the post-impulse structure the paper's predictor
    exploits).  Velocities are the backward differences, so the whole
    observed sequence is a linear recurrence of the history."""
    rng = np.random.default_rng(seed)
    from scipy.linalg import block_diag

    Q, _ = np.linalg.qr(rng.standard_normal((n, 2 * k_modes)))
    blocks = []
    for _ in range(k_modes):
        th = rng.uniform(0.05, 0.3)
        z = 0.995
        blocks.append(z * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]]))
    R = block_diag(*blocks)
    w = rng.standard_normal(2 * k_modes)
    u_prev = Q @ w
    errs = []
    for _ in range(nt):
        w = R @ w
        u = Q @ w
        guess = pred.predict()
        errs.append(np.linalg.norm(guess - u) / np.linalg.norm(u))
        v = (u - u_prev) / pred.dt  # backward-difference velocity
        pred.observe(u, v)
        u_prev = u
    return np.asarray(errs)


def test_predictor_learns_linear_dynamics():
    n = 64
    pred = DataDrivenPredictor(n, dt=0.01, s_max=16, n_regions=1, s=16)
    errs = _run_linear_recurrence(pred, nt=80, n=n)
    # after warm-up the data-driven estimate must be far better than
    # the early AB-only steps
    assert np.median(errs[50:]) < 0.05 * np.median(errs[2:6])


def test_s_clamped_to_range():
    p = DataDrivenPredictor(1000, 0.01, s_max=8, n_regions=2)
    p.set_s(100)
    assert p.s == 8
    p.set_s(0)
    assert p.s == 1


def test_region_guard_prevents_tiny_regions():
    p = DataDrivenPredictor(100, 0.01, s_max=16, n_regions=64)
    # 100 dofs / (4*16) -> at most 1 region
    assert p.n_regions == 1


def test_s_effective_limited_by_history():
    p = DataDrivenPredictor(30, 0.01, s_max=8, n_regions=1, s=8)
    assert p.s_effective == 0
    for k in range(4):
        p.predict()
        p.observe(np.ones(30) * k, np.zeros(30))
    assert p.s_effective == 3


def test_memory_tracks_history():
    p = DataDrivenPredictor(500, 0.01, s_max=4, n_regions=1)
    m0 = p.memory_bytes()
    for k in range(3):
        p.predict()
        p.observe(np.zeros(500), np.zeros(500))
    assert p.memory_bytes() > m0


def test_charges_predictor_kernel():
    from repro.util.counters import tally_scope

    p = DataDrivenPredictor(200, 0.01, s_max=4, n_regions=1, s=4)
    for k in range(6):
        p.predict()
        p.observe(np.sin(np.arange(200) * 0.1 + k), np.zeros(200))
    with tally_scope() as t:
        p.predict()
    assert t.total_flops("predictor.mgs") > 0


def test_validation():
    with pytest.raises(ValueError):
        DataDrivenPredictor(10, 0.01, s_max=0)
    with pytest.raises(ValueError):
        DataDrivenPredictor(10, 0.01, n_regions=0)
