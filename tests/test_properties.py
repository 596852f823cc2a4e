"""Cross-cutting property-based tests (hypothesis).

These complement the per-module property tests with invariants that
span layers: operator algebra, Newmark energy behaviour, timeline
arithmetic, and predictor contracts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fem.newmark import NewmarkBeta, NewmarkState
from repro.hardware.roofline import kernel_time
from repro.hardware.specs import SINGLE_GH200
from repro.predictor.adams_bashforth import AdamsBashforth
from repro.sparse.cg import PCGWorkspace, pcg
from repro.util.timeline import Timeline


class _DenseOp:
    """A dense matrix as a ``pcg`` operator (``matvec(V, out=)``)."""

    def __init__(self, A: np.ndarray) -> None:
        self.A = A

    def matvec(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        return np.matmul(self.A, x, out=out)


def _random_spd(rng: np.random.Generator, n: int) -> np.ndarray:
    """Well-conditioned random SPD matrix."""
    m = rng.standard_normal((n, n))
    return m @ m.T + n * np.eye(n)


# ------------------------------------------------------------- solver
@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=24),
    r=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_pcg_converges_on_random_spd(n, r, seed):
    """Any (well-conditioned) random SPD system must converge with the
    reported final relative residual below tolerance — and the report
    must be honest (match a recomputed ||b - A x|| / ||b||)."""
    rng = np.random.default_rng(seed)
    A = _random_spd(rng, n)
    B = rng.standard_normal((n, r))
    eps = 1e-10
    res = pcg(_DenseOp(A), B, eps=eps)
    assert bool(np.all(res.converged))
    assert np.all(res.final_relres < eps)
    true_rel = np.linalg.norm(B - A @ res.x.reshape(n, r), axis=0) / np.linalg.norm(
        B, axis=0
    )
    np.testing.assert_allclose(true_rel, res.final_relres, rtol=1e-6, atol=1e-14)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=24),
    r=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_fused_multirhs_matches_sequential(n, r, seed):
    """Fused multi-RHS pcg must agree with per-case sequential solves
    to rounding: every case's scalar recurrence is independent, so the
    fused loop changes nothing but flop grouping."""
    rng = np.random.default_rng(seed)
    A = _random_spd(rng, n)
    B = rng.standard_normal((n, r))
    X0 = rng.standard_normal((n, r)) * 0.1
    fused = pcg(_DenseOp(A), B, x0=X0, eps=1e-10, workspace=PCGWorkspace())
    for k in range(r):
        single = pcg(_DenseOp(A), B[:, k], x0=X0[:, k], eps=1e-10)
        # norm-scaled comparison: elementwise rtol would demand 1e-9
        # relative accuracy of near-zero entries, which mere flop
        # regrouping (block matmul vs single-column BLAS) does not owe
        # (measured worst deviation over wide seed sweeps: ~4e-11)
        np.testing.assert_allclose(
            fused.x[:, k], single.x, rtol=0, atol=1e-9 * np.abs(single.x).max()
        )
        # a borderline eps crossing can flip by one iteration under
        # the different rounding; more would mean a real divergence
        assert abs(int(fused.iterations[k]) - int(single.iterations[0])) <= 1


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=16),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_pcg_workspace_reuse_is_transparent(n, seed):
    """Solving through a reused workspace gives the same answer as a
    fresh solve (the buffers carry no state between calls)."""
    rng = np.random.default_rng(seed)
    A = _random_spd(rng, n)
    ws = PCGWorkspace()
    b1 = rng.standard_normal(n)
    b2 = rng.standard_normal((n, 2))
    x1a = pcg(_DenseOp(A), b1, eps=1e-10, workspace=ws).x
    _ = pcg(_DenseOp(A), b2, eps=1e-10, workspace=ws)  # reshapes the buffers
    x1b = pcg(_DenseOp(A), b1, eps=1e-10, workspace=ws).x
    np.testing.assert_array_equal(x1a, x1b)


# ---------------------------------------------------------------- fem
@settings(max_examples=30, deadline=None)
@given(
    dt=st.floats(min_value=1e-4, max_value=1.0),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_newmark_advance_is_linear(dt, seed):
    """The Eq. 6-7 update is linear in (state, u_new): advancing a sum
    equals the sum of advances."""
    rng = np.random.default_rng(seed)
    nm = NewmarkBeta(dt)
    s1 = NewmarkState(*rng.standard_normal((3, 4)))
    s2 = NewmarkState(*rng.standard_normal((3, 4)))
    u1, u2 = rng.standard_normal((2, 4))
    both = nm.advance(
        NewmarkState(s1.u + s2.u, s1.v + s2.v, s1.a + s2.a), u1 + u2
    )
    a1 = nm.advance(s1, u1)
    a2 = nm.advance(s2, u2)
    np.testing.assert_allclose(both.v, a1.v + a2.v, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(both.a, a1.a + a2.a, rtol=1e-9, atol=1e-9)


@settings(max_examples=20, deadline=None)
@given(
    dt=st.floats(min_value=1e-3, max_value=0.5),
    c=st.floats(min_value=-5.0, max_value=5.0),
)
def test_ab_exact_for_linear_motion(dt, c):
    """Constant-velocity motion is extrapolated exactly at any order."""
    p = AdamsBashforth(3, dt)
    for k in range(1, 7):
        t = k * dt
        p.observe(np.full(3, c * t), np.full(3, c))
    np.testing.assert_allclose(p.predict(), c * 7 * dt, rtol=1e-10, atol=1e-12)


# ----------------------------------------------------------- hardware
@settings(max_examples=50, deadline=None)
@given(
    flops=st.floats(min_value=0, max_value=1e15),
    bytes_=st.floats(min_value=0, max_value=1e13),
    scale=st.floats(min_value=1.1, max_value=10.0),
)
def test_kernel_time_monotone_in_work(flops, bytes_, scale):
    """More work never takes less modeled time."""
    g = SINGLE_GH200.gpu
    t1 = kernel_time(flops, bytes_, g, "cg.vec")
    t2 = kernel_time(flops * scale, bytes_ * scale, g, "cg.vec")
    assert t2 >= t1


@settings(max_examples=50, deadline=None)
@given(
    flops=st.floats(min_value=1, max_value=1e15),
    bytes_=st.floats(min_value=1, max_value=1e13),
)
def test_kernel_time_superadditive_split(flops, bytes_):
    """Running two kernels separately can never beat running their
    combined work as one roofline evaluation (max is subadditive)."""
    g = SINGLE_GH200.gpu
    t_joint = kernel_time(flops, bytes_, g, "spmv.crs")
    t_split = kernel_time(flops, 0.0, g, "spmv.crs") + kernel_time(
        0.0, bytes_, g, "spmv.crs"
    )
    assert t_joint <= t_split + 1e-15


# ----------------------------------------------------------- timeline
@settings(max_examples=30, deadline=None)
@given(
    durations=st.lists(
        st.floats(min_value=0, max_value=10), min_size=1, max_size=20
    )
)
def test_timeline_single_lane_sums(durations):
    tl = Timeline()
    for i, d in enumerate(durations):
        tl.schedule("gpu", f"k{i}", d)
    assert tl.busy_time("gpu") == pytest.approx(sum(durations))
    assert tl.makespan == pytest.approx(sum(durations))
    tl.validate()


@settings(max_examples=30, deadline=None)
@given(
    a=st.lists(st.floats(min_value=0, max_value=5), min_size=1, max_size=10),
    b=st.lists(st.floats(min_value=0, max_value=5), min_size=1, max_size=10),
)
def test_timeline_parallel_lanes_makespan(a, b):
    """Two independent lanes: makespan is the max of lane totals."""
    tl = Timeline()
    for i, d in enumerate(a):
        tl.schedule("cpu", f"a{i}", d)
    for i, d in enumerate(b):
        tl.schedule("gpu", f"b{i}", d)
    assert tl.makespan == pytest.approx(max(sum(a), sum(b)))
    tl.validate()


@settings(max_examples=20, deadline=None)
@given(
    phases=st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=3),  # cpu work
            st.floats(min_value=0, max_value=3),  # gpu work
        ),
        min_size=1,
        max_size=12,
    )
)
def test_timeline_barriered_phases(phases):
    """Alternating overlapped phases with barriers: makespan equals the
    sum of per-phase maxima — the pipeline's scheduling identity."""
    tl = Timeline()
    expected = 0.0
    for i, (tc, tg) in enumerate(phases):
        tl.schedule("cpu", f"p{i}", tc)
        tl.schedule("gpu", f"s{i}", tg)
        tl.barrier(["cpu", "gpu"])
        expected += max(tc, tg)
    assert tl.makespan == pytest.approx(expected)
