"""Memory- and I/O-flatness of long runs (the endurance contract).

A million-step run must not hold a million step records, waveform
frames or schedule intervals in memory.  These tests prove the
streaming plumbing end to end at tier-1 scale: between two runs that
both overflow the ring, 400 extra steps add next to nothing to the
tracemalloc peak when the driver writes through bounded ring/spill
logs — with waveform recording on and off — and checkpoint flushes
stay O(1) bytes each.  The 10k-step gate is the nightly
``benchmarks/test_endurance.py``.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.methods import run_method
from repro.io.spill import RecordLog, WaveLog
from repro.workloads.ground import build_ground_problem, stratified_model

SHORT, LONG = 100, 300
KEEP = 64
#: Peak growth allowed over the LONG - SHORT extra steps: 40 bytes per
#: step.  Measured 1.1-1.2 KiB (2 KiB at 200/600 steps; 16 KiB or more
#: from SHORT <= 64 = KEEP on, before the logs spill); one retained
#: one-element array per step measured 27 KiB here, and a step record,
#: waveform frame or schedule interval is larger still.
GROWTH_BOUND = 8 * 1024


@pytest.fixture(scope="module")
def tiny_problem():
    return build_ground_problem(stratified_model(), resolution=(2, 2, 1))


def _run(problem, forces, nt, tmp_path, tag, waves):
    record_log = RecordLog(tmp_path / f"rec-{tag}.jsonl", keep=KEEP)
    wave_log = WaveLog(keep=KEEP) if waves else None
    kw = {}
    if waves:
        kw["waveform_dofs"] = np.arange(0, problem.n_dofs, 50)
        kw["wave_log"] = wave_log
    result = run_method(
        problem, forces, nt=nt, method="crs-cg@cpu", s_range=(2, 4),
        record_log=record_log, **kw,
    )
    assert len(record_log) == nt
    record_log.close()
    if waves:
        wave_log.close()
    return result


def _peak(problem, forces, nt, tmp_path, tag, waves):
    tracemalloc.start()
    _run(problem, forces, nt, tmp_path, tag, waves)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


@pytest.mark.parametrize("waves", [False, True], ids=["no-waves", "waves"])
def test_memory_flat_in_run_length(
    tiny_problem, make_forces, tmp_path, waves
):
    forces = make_forces(tiny_problem, 1)
    # warm-up run: import costs, ufunc buffers, solver workspaces
    _run(tiny_problem, forces, KEEP, tmp_path, "warm", waves)
    peak_short = _peak(tiny_problem, forces, SHORT, tmp_path, "s", waves)
    peak_long = _peak(tiny_problem, forces, LONG, tmp_path, "l", waves)
    # growth between two long runs, not a ratio: a constant offset
    # cannot hide a per-step leak, and none can hide behind slack
    assert peak_long - peak_short <= GROWTH_BOUND, (
        waves, peak_short, peak_long,
    )


def test_long_run_summary_comes_from_full_record(
    tiny_problem, make_forces, tmp_path
):
    """Spilling must be invisible to the numbers: a logged run's
    summary equals the plain in-memory run's exactly."""
    forces = make_forces(tiny_problem, 1)
    nt = 3 * KEEP  # force actual spill traffic
    window = (nt // 2, nt + 1)
    plain = run_method(
        tiny_problem, forces, nt=nt, method="crs-cg@cpu", s_range=(2, 4)
    )
    logged = _run(tiny_problem, forces, nt, tmp_path, "sum", waves=False)
    assert logged.summary(window) == plain.summary(window)
    assert [r.to_dict() for r in logged.records] == [
        r.to_dict() for r in plain.records
    ]


def test_waveforms_identical_through_wave_log(
    tiny_problem, make_forces, tmp_path
):
    """The spilled cube reassembles bit-identically to the in-memory
    waveform section."""
    forces = make_forces(tiny_problem, 1)
    nt = 2 * KEEP
    dofs = np.arange(0, tiny_problem.n_dofs, 50)
    plain = run_method(
        tiny_problem, forces, nt=nt, method="crs-cg@cpu", s_range=(2, 4),
        waveform_dofs=dofs,
    )
    wave_log = WaveLog(tmp_path / "waves.bin", keep=KEEP)
    logged = run_method(
        tiny_problem, forces, nt=nt, method="crs-cg@cpu", s_range=(2, 4),
        waveform_dofs=dofs, wave_log=wave_log,
    )
    assert logged.waveforms is None  # the caller owns the log
    np.testing.assert_array_equal(
        wave_log.stacked(), plain.waveforms, strict=True
    )
    wave_log.close()


def test_checkpoint_resume_bit_identical_through_logs(
    tiny_problem, make_forces, tmp_path
):
    """Incremental tails drawn from the ring resume to the same bits
    as an uninterrupted logged run."""
    from repro.io.golden import canonical, golden_diff
    from repro.io.results import merge_checkpoint_docs

    forces = make_forces(tiny_problem, 1)
    nt = 2 * KEEP
    window = (nt // 2, nt + 1)

    def doc(result):
        return canonical(
            {
                "summary": result.summary(window),
                "records": [r.to_dict() for r in result.records],
            }
        )

    straight = _run(tiny_problem, forces, nt, tmp_path, "a", waves=False)
    flushes = []
    log_b = RecordLog(tmp_path / "b.jsonl", keep=KEEP)
    run_method(
        tiny_problem, forces, nt=nt, method="crs-cg@cpu", s_range=(2, 4),
        record_log=log_b, checkpoint_every=KEEP // 2,
        on_checkpoint=flushes.append,
    )
    log_b.close()
    assert len(flushes) >= 3
    state = canonical(merge_checkpoint_docs(flushes))
    log_c = RecordLog(tmp_path / "c.jsonl", keep=KEEP)
    resumed = run_method(
        tiny_problem, forces, nt=nt, method="crs-cg@cpu", s_range=(2, 4),
        record_log=log_c, start_state=state,
    )
    assert golden_diff(doc(straight), doc(resumed)) == []
    log_c.close()
