"""Unit tests for the simulated timeline."""

import numpy as np
import pytest

from repro.util.timeline import Timeline


def test_sequential_scheduling_on_one_lane():
    tl = Timeline()
    a = tl.schedule("gpu", "k1", 1.0)
    b = tl.schedule("gpu", "k2", 2.0)
    assert a.start == 0.0 and a.end == 1.0
    assert b.start == 1.0 and b.end == 3.0
    assert tl.makespan == 3.0


def test_lanes_are_independent():
    tl = Timeline()
    tl.schedule("cpu", "pred", 5.0)
    tl.schedule("gpu", "solve", 2.0)
    assert tl.now("cpu") == 5.0
    assert tl.now("gpu") == 2.0
    assert tl.makespan == 5.0


def test_barrier_aligns_lanes():
    tl = Timeline()
    tl.schedule("cpu", "pred", 5.0)
    tl.schedule("gpu", "solve", 2.0)
    t = tl.barrier(["cpu", "gpu"])
    assert t == 5.0
    assert tl.now("gpu") == 5.0


def test_not_before_dependency():
    tl = Timeline()
    tl.schedule("gpu", "solve", 2.0)
    iv = tl.schedule("c2c", "xfer", 0.5, not_before=2.0)
    assert iv.start == 2.0


def test_negative_duration_rejected():
    tl = Timeline()
    with pytest.raises(ValueError):
        tl.schedule("gpu", "bad", -1.0)


def test_busy_time_and_utilization():
    tl = Timeline()
    tl.schedule("gpu", "a", 1.0)
    tl.schedule("cpu", "b", 3.0)
    tl.barrier(["cpu", "gpu"])
    tl.schedule("gpu", "c", 1.0)
    assert tl.busy_time("gpu") == 2.0
    assert tl.makespan == 4.0
    assert tl.utilization("gpu") == pytest.approx(0.5)


def test_busy_time_by_label():
    tl = Timeline()
    tl.schedule("gpu", "solver", 1.0)
    tl.schedule("gpu", "solver", 2.0)
    tl.schedule("gpu", "other", 0.5)
    by = tl.busy_time_by_label("gpu")
    assert by["solver"] == 3.0
    assert by["other"] == 0.5


def test_validate_passes_for_well_formed():
    tl = Timeline()
    tl.schedule("gpu", "a", 1.0)
    tl.schedule("gpu", "b", 1.0)
    tl.schedule("cpu", "c", 5.0)
    tl.validate()


def test_empty_timeline():
    tl = Timeline()
    assert tl.makespan == 0.0
    assert tl.utilization("gpu") == 0.0
    tl.validate()


def test_barrier_with_at_least():
    tl = Timeline()
    tl.schedule("cpu", "a", 1.0)
    t = tl.barrier(["cpu", "gpu"], at_least=10.0)
    assert t == 10.0
    assert tl.now("gpu") == 10.0


def test_count_per_label():
    tl = Timeline()
    tl.schedule("cpu", "predictor", 1.0)
    tl.schedule("cpu", "predictor", 1.0)
    tl.schedule("cpu", "other", 1.0)
    assert tl.count("cpu", "predictor") == 2
    assert tl.count("cpu", "other") == 1
    assert tl.count("cpu", "absent") == 0
    assert tl.count("gpu", "predictor") == 0


def _random_schedule(tl, rng, n=200):
    """Drive a pipeline-ish random schedule, returning the retained
    interval list the streaming aggregates must reproduce."""
    intervals = []
    for _ in range(n):
        res = rng.choice(["cpu", "gpu", "c2c"])
        dur = float(rng.uniform(0.0, 2.0))
        iv = tl.schedule(res, f"k{int(rng.integers(3))}", dur)
        intervals.append(iv)
        if rng.uniform() < 0.2:
            tl.barrier(["cpu", "gpu"])
    return intervals


def _brute_overlap(intervals):
    cpu = [(iv.start, iv.end) for iv in intervals if iv.resource == "cpu"]
    gpu = [(iv.start, iv.end) for iv in intervals if iv.resource == "gpu"]
    total = 0.0
    for cs, ce in cpu:
        for gs, ge in gpu:
            total += max(0.0, min(ce, ge) - max(cs, gs))
    return total


def test_streaming_overlap_matches_brute_force():
    """The incremental two-pointer sweep equals the O(n^2) pairwise
    overlap (per-lane intervals are disjoint, so pairwise sums are
    exact) on randomized barrier-y schedules."""
    for seed in range(5):
        tl = Timeline()
        intervals = _random_schedule(tl, np.random.default_rng(seed))
        assert tl.cpu_gpu_overlap() == pytest.approx(
            _brute_overlap(intervals), rel=1e-12, abs=1e-12
        )
        tl.validate()


def test_overlap_finalization_does_not_consume():
    """cpu_gpu_overlap() mid-run must not disturb later accounting."""
    tl = Timeline()
    rng = np.random.default_rng(99)
    intervals = _random_schedule(tl, rng, n=50)
    mid = tl.cpu_gpu_overlap()
    assert mid == tl.cpu_gpu_overlap()  # idempotent
    intervals += _random_schedule(tl, rng, n=50)
    assert tl.cpu_gpu_overlap() == pytest.approx(
        _brute_overlap(intervals), rel=1e-12, abs=1e-12
    )


def test_track_overlap_false_is_memory_flat_and_zero():
    """Single-lane baselines opt out: no pending growth, overlap 0."""
    tl = Timeline(track_overlap=False)
    for _ in range(1000):
        tl.schedule("cpu", "solver", 1.0)
    assert tl.cpu_gpu_overlap() == 0.0
    assert len(tl._pend_cpu) == 0 and len(tl._pend_gpu) == 0
    assert tl.busy_time("cpu") == pytest.approx(1000.0)
    tl.validate()


def test_state_roundtrip_is_exact():
    tl = Timeline()
    _random_schedule(tl, np.random.default_rng(3), n=100)
    doc = tl.state_dict()
    tl2 = Timeline.from_state(doc)
    assert tl2.makespan == tl.makespan
    assert tl2.cpu_gpu_overlap() == tl.cpu_gpu_overlap()
    for lane in ("cpu", "gpu", "c2c"):
        assert tl2.busy_time(lane) == tl.busy_time(lane)
        assert tl2.busy_time_by_label(lane) == tl.busy_time_by_label(lane)
    # continuing both timelines identically keeps them identical
    tl.schedule("cpu", "x", 1.5)
    tl2.schedule("cpu", "x", 1.5)
    assert tl2.state_dict() == tl.state_dict()


def test_state_dict_is_o1_in_schedule_length():
    """The snapshot must not retain the schedule — its JSON size stays
    flat as the run grows (the quadratic-checkpoint bug)."""
    import json

    def size(n):
        tl = Timeline()
        for _ in range(n):
            tl.schedule("cpu", "p", 1.0)
            tl.schedule("gpu", "s", 1.0)
            tl.barrier(["cpu", "gpu"])
        return len(json.dumps(tl.state_dict()))

    assert size(500) <= size(10) + 64  # cursors/floats may widen a bit
