"""Endurance study: memory- and I/O-flat long runs.

The streaming source engine exists so a record can run for hours of
simulated time without the process growing: bounded ring/spill logs
replace the in-memory record/waveform lists
(:mod:`repro.io.spill`), checkpoint flushes carry only the records
since the previous flush (bytes per flush flat in the step index), and
silent source steps cost a memset.  This study measures all three on
one long scenario run:

* :func:`run_endurance` executes a *reference* run and a much longer
  run of the same cell under ``tracemalloc`` — both long enough to
  overflow the ring — through a :class:`~repro.io.spill.RecordLog`
  (and optionally a :class:`~repro.io.spill.WaveLog`), collecting
  throughput, the peak traced memory of both runs, and how many bytes
  each checkpoint flush appends to a real campaign checkpoint journal.
* :func:`endurance_gates` reduces a point to the pass/fail gates the
  nightly benchmark enforces (peak growth, checkpoint flatness).
* :func:`render_endurance_report` prints the human-readable summary
  (also consumed by ``benchmarks/test_endurance.py``, which persists
  the document as ``BENCH_endurance.json``).
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import asdict, dataclass

__all__ = [
    "EndurancePoint",
    "run_endurance",
    "endurance_gates",
    "render_endurance_report",
]


@dataclass(frozen=True)
class EndurancePoint:
    """Measured endurance profile of one long scenario run."""

    scenario: str
    method: str
    n_dofs: int
    steps: int
    ref_steps: int
    elapsed_s: float
    steps_per_sec: float
    peak_ref_bytes: int
    peak_long_bytes: int
    peak_growth_bytes: int  # long - ref — ~0 when memory-flat
    checkpoint_every: int
    n_flushes: int
    first_flush_bytes: int  # the full head document
    max_tail_bytes: int  # largest incremental flush
    mean_tail_bytes: float
    checkpoint_bytes_per_step: float  # total journal bytes / steps

    def to_dict(self) -> dict:
        return asdict(self)


def run_endurance(
    scenario: str = "aftershocks",
    model: str = "stratified",
    resolution: tuple[int, int, int] = (2, 2, 1),
    steps: int = 10_000,
    ref_steps: int = 1024,
    method: str = "crs-cg@cpu",
    s_range: tuple[int, int] = (2, 4),
    seed: int = 0,
    checkpoint_every: int = 256,
    keep: int = 512,
    spill_dir=None,
    waves: bool = False,
) -> EndurancePoint:
    """Measure one scenario cell's endurance profile.

    Three measured passes through bounded logs, after a warm-up:

    1. ``ref_steps`` under ``tracemalloc`` — the reference peak.
    2. ``steps`` under ``tracemalloc`` — the long-run peak.  Neither
       peak pass checkpoints: the flush-size measurement itself
       allocates an O(tail) document copy that would contaminate the
       comparison (and the tier-1 flatness test draws the same line).
       Both must overflow the ring (``ref_steps > keep``): against a
       reference that never filled it, the difference measures the
       ring filling up, not a leak.
    3. ``steps`` again with ``checkpoint_every`` flushes, timed — the
       throughput number.  Each flush goes through
       :func:`~repro.io.results.append_campaign_checkpoint` into
       ``journal-long.jsonl``; its size is the journal's growth.

    ``spill_dir`` receives the record (and wave) spill files and the
    journal; defaults to a temporary directory.  ``keep`` must exceed
    ``checkpoint_every`` so incremental tails come from the ring.
    """
    import tempfile

    import numpy as np

    from repro.core.methods import HETEROGENEOUS_METHODS, run_method
    from repro.io.results import append_campaign_checkpoint
    from repro.io.spill import RecordLog, WaveLog
    from repro.workloads.scenario import scenario_by_name

    if keep <= checkpoint_every:
        raise ValueError("keep must exceed checkpoint_every")
    if not keep < ref_steps < steps:
        raise ValueError(
            "need keep < ref_steps < steps: both measured runs must "
            "overflow the ring"
        )
    scen = scenario_by_name(scenario)()
    problem = scen.build_problem(model, tuple(resolution))
    n_cases = 2 if method in HETEROGENEOUS_METHODS else 1
    forces = scen.forces(problem, {}, seed=seed, n_cases=n_cases)

    tmp = None
    if spill_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-endurance-")
        spill_dir = tmp.name
    import pathlib

    spill_dir = pathlib.Path(spill_dir)

    def one_run(nt: int, tag: str, flush_sizes=None, trace=True):
        record_log = RecordLog(spill_dir / f"records-{tag}.jsonl", keep=keep)
        kw = {}
        wave_log = None
        if waves:
            wave_log = WaveLog(spill_dir / f"waves-{tag}.bin", keep=keep)
            kw["waveform_dofs"] = np.arange(0, problem.n_dofs, 50)
            kw["wave_log"] = wave_log
        if flush_sizes is not None:
            journal = spill_dir / f"journal-{tag}.jsonl"
            journal.unlink(missing_ok=True)

            def flush(doc: dict) -> None:
                append_campaign_checkpoint(
                    {"key": f"endurance-{tag}", "kind": "method",
                     "params": {}, "step": doc["step"], "state": doc},
                    journal,
                )
                flush_sizes.append(journal.stat().st_size - sum(flush_sizes))

            kw["checkpoint_every"] = checkpoint_every
            kw["on_checkpoint"] = flush
        if trace:
            tracemalloc.start()
        t0 = time.perf_counter()
        run_method(
            problem, forces, nt=nt, method=method, s_range=s_range,
            record_log=record_log, **kw,
        )
        elapsed = time.perf_counter() - t0
        peak = 0
        if trace:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        if len(record_log) != nt:
            raise AssertionError(
                f"record log holds {len(record_log)} records, ran {nt}"
            )
        record_log.close()
        if wave_log is not None:
            wave_log.close()
        return elapsed, peak

    one_run(ref_steps, "warm")  # warm-up: imports, workspaces
    _, peak_ref = one_run(ref_steps, "ref")
    _, peak_long = one_run(steps, "peak")
    flush_sizes: list[int] = []
    elapsed, _ = one_run(steps, "long", flush_sizes, trace=False)
    if tmp is not None:
        tmp.cleanup()

    tails = flush_sizes[1:] or [0]
    total = float(sum(flush_sizes))
    return EndurancePoint(
        scenario=str(scenario),
        method=str(method),
        n_dofs=int(problem.n_dofs),
        steps=int(steps),
        ref_steps=int(ref_steps),
        elapsed_s=float(elapsed),
        steps_per_sec=float(steps / elapsed) if elapsed > 0 else 0.0,
        peak_ref_bytes=int(peak_ref),
        peak_long_bytes=int(peak_long),
        peak_growth_bytes=int(peak_long - peak_ref),
        checkpoint_every=int(checkpoint_every),
        n_flushes=len(flush_sizes),
        first_flush_bytes=int(flush_sizes[0]) if flush_sizes else 0,
        max_tail_bytes=int(max(tails)),
        mean_tail_bytes=float(sum(tails) / len(tails)),
        checkpoint_bytes_per_step=total / steps if steps else 0.0,
    )


def endurance_gates(
    point: EndurancePoint,
    max_growth_bytes: int = 64 * 1024,
    min_steps_per_sec: float = 50.0,
    max_tail_spread: float = 1.5,
) -> dict[str, bool]:
    """The nightly gates, as named booleans.

    * ``memory_flat`` — the long run's tracemalloc peak exceeds the
      reference run's by at most ``max_growth_bytes``.  Growth between
      two runs that both overflowed the ring, under an absolute bound:
      a constant offset (the full ring, workspaces) cancels, so a
      per-step leak cannot hide behind it, and there is no slack for
      one to hide in.  Measured growth over ~9000 extra steps is a few
      hundred bytes; one retained float per step would be 70 KB.
    * ``throughput`` — the run sustains ``min_steps_per_sec``.
    * ``checkpoint_flat`` — incremental flushes stay within
      ``max_tail_spread`` of each other: bytes per flush do not grow
      with the step index (the O(n²/k) regression).
    """
    return {
        "memory_flat": point.peak_growth_bytes <= max_growth_bytes,
        "throughput": point.steps_per_sec >= min_steps_per_sec,
        "checkpoint_flat": (
            point.n_flushes < 3
            or point.max_tail_bytes <= max_tail_spread * point.mean_tail_bytes
        ),
    }


def render_endurance_report(point: EndurancePoint) -> str:
    """Human-readable endurance summary."""
    mib = 1024.0 * 1024.0
    lines = [
        f"endurance: {point.scenario} / {point.method} "
        f"({point.n_dofs} dofs, {point.steps} steps)",
        f"  throughput      {point.steps_per_sec:10.1f} steps/s "
        f"({point.elapsed_s:.2f} s total)",
        f"  peak memory     {point.peak_long_bytes / mib:10.2f} MiB long "
        f"vs {point.peak_ref_bytes / mib:.2f} MiB @ {point.ref_steps} steps "
        f"(growth {point.peak_growth_bytes:+d} B)",
        f"  checkpoints     {point.n_flushes} flushes every "
        f"{point.checkpoint_every} steps: head {point.first_flush_bytes} B, "
        f"tails mean {point.mean_tail_bytes:.0f} B / max "
        f"{point.max_tail_bytes} B "
        f"({point.checkpoint_bytes_per_step:.1f} B/step)",
    ]
    return "\n".join(lines)
