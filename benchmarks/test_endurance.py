"""Endurance benchmark — the 10k-step streaming run with gates.

The nightly run of this module is the endurance contract's enforcement
point: a 10,000-step aftershock-sequence run through the bounded
ring/spill logs must stay memory-flat (tracemalloc peak at most 64 KiB
above a 1024-step reference run's — growth between two runs that both
overflow the ring, the slope formulation of
``tests/core/test_long_runs.py``), sustain a steps/sec floor, and flush
O(1) checkpoint bytes per step (incremental tails that do not grow
with the step index).

``benchmarks/results/BENCH_endurance.json`` records the full profile
point plus the gate verdicts, so CI trend lines can plot throughput
and checkpoint bytes/step across nights.
"""

from __future__ import annotations

import json

from benchmarks.conftest import RESULTS_DIR, write_table
from repro.studies.endurance import (
    endurance_gates,
    render_endurance_report,
    run_endurance,
)

STEPS = 10_000
REF_STEPS = 1024  # 2 x KEEP: the reference overflows the ring too
CHECKPOINT_EVERY = 256
KEEP = 512
#: bench-size gate floors — tiny mesh, CPU baseline, pure NumPy
MIN_STEPS_PER_SEC = 50.0
#: ~7 bytes per extra step; measured growth is a few hundred bytes
MAX_PEAK_GROWTH = 64 * 1024
MAX_TAIL_SPREAD = 1.5


def test_endurance(benchmark, tmp_path):
    point = benchmark.pedantic(
        run_endurance,
        kwargs=dict(
            scenario="aftershocks",
            steps=STEPS,
            ref_steps=REF_STEPS,
            checkpoint_every=CHECKPOINT_EVERY,
            keep=KEEP,
            spill_dir=tmp_path,
        ),
        rounds=1,
        iterations=1,
    )
    gates = endurance_gates(
        point,
        max_growth_bytes=MAX_PEAK_GROWTH,
        min_steps_per_sec=MIN_STEPS_PER_SEC,
        max_tail_spread=MAX_TAIL_SPREAD,
    )

    report = render_endurance_report(point)
    doc = {"point": point.to_dict(), "gates": gates}
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_endurance.json").write_text(
        json.dumps(doc, indent=1)
    )
    write_table("endurance", report + "\n")

    assert point.steps == STEPS and point.n_flushes == STEPS // CHECKPOINT_EVERY
    # gate 1: ~10x the steps must not grow the peak — memory-flat
    assert gates["memory_flat"], (point.peak_ref_bytes, point.peak_long_bytes)
    # gate 2: sustained throughput floor
    assert gates["throughput"], point.steps_per_sec
    # gate 3: checkpoint bytes per flush are O(1) in the step index
    assert gates["checkpoint_flat"], (
        point.first_flush_bytes, point.mean_tail_bytes, point.max_tail_bytes,
    )
    assert point.checkpoint_bytes_per_step < 10_000
