"""Two-grid preconditioner speedup — iteration collapse at bench size.

Pairs block-Jacobi against the geometric two-grid preconditioner on
the scenarios it exists for, at the finest tier-1 resolution, through
the full heterogeneous EBE-MCG pipeline (realistic Newmark stepping,
adaptive predictor, campaign-cell execution).

Acceptance (the PR's headline claim): on the ``soft-soil`` scenario —
the extreme soft/hard-contrast regime — the two-grid cycle cuts mean
CG iterations per step by at least 2x against block-Jacobi, while both
family members converge to the paper's eps on identical random draws.

Alongside the text table, a machine-readable
``benchmarks/results/BENCH_twogrid.json`` records iterations/step,
measured wall time and modeled time per family for trend tracking.
"""

from __future__ import annotations

import json
import time

import numpy as np

from benchmarks.conftest import RESULTS_DIR, write_table
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import WaveSpec
from repro.studies.twogrid import (
    render_twogrid_table,
    twogrid_cells,
    twogrid_table,
)

EPS = 1e-8
STEPS = 16
CASES = 2
#: finest tier-1 resolution (matches tests/core golden coverage)
RESOLUTION = (4, 4, 2)
SCENARIOS = ("soft-soil", "impulse")
WAVE = WaveSpec(name="bench")
#: the PR's acceptance bar on the anchor scenario
MIN_REDUCTION = 2.0


def _run_sweep():
    cells = twogrid_cells(
        scenarios=SCENARIOS,
        resolutions=(RESOLUTION,),
        wave=WAVE,
        cases=CASES,
        steps=STEPS,
        eps=EPS,
        s_range=(2, 8),
    )
    t0 = time.perf_counter()
    outcomes = CampaignRunner().run_cells(cells)
    wall = time.perf_counter() - t0
    failed = [o.error for o in outcomes if not o.ok]
    assert not failed, failed
    return twogrid_table(outcomes), outcomes, wall


def test_twogrid_speedup(benchmark):
    points, outcomes, wall = benchmark.pedantic(
        _run_sweep, rounds=1, iterations=1
    )

    assert len(points) == len(SCENARIOS)
    assert points[0].scenario == "soft-soil"  # the anchor leads

    for p in points:
        assert np.isfinite(p.time_bj) and np.isfinite(p.time_twogrid)
        assert p.iters_bj > 0 and p.iters_twogrid > 0
        # the cycle never makes iteration counts worse
        assert p.iteration_reduction > 1.0, p

    # headline acceptance: >= 2x fewer CG iterations on soft-soil at
    # the finest tier-1 resolution
    anchor = points[0]
    assert anchor.iteration_reduction >= MIN_REDUCTION, anchor

    # both families converged to eps on every windowed step
    for o in outcomes:
        relres = float(o.result["summary"]["achieved_relres"])
        assert 0.0 < relres <= EPS, (o.cell.label, relres)

    res_tag = "x".join(map(str, RESOLUTION))
    write_table(
        "twogrid_speedup",
        render_twogrid_table(
            points,
            title=(
                f"two-grid vs block-Jacobi (ebe-mcg@cpu-gpu, {res_tag} "
                f"mesh, {CASES} cases, {STEPS} steps, eps={EPS:g})"
            ),
        ),
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    doc = {
        "resolution": list(RESOLUTION),
        "cases": CASES,
        "steps": STEPS,
        "eps": EPS,
        "wall_time_s": wall,
        "rows": [
            {
                "scenario": p.scenario,
                "iters_per_step_bj": p.iters_bj,
                "iters_per_step_twogrid": p.iters_twogrid,
                "iteration_reduction": p.iteration_reduction,
                "modeled_time_per_step_bj_s": p.time_bj,
                "modeled_time_per_step_twogrid_s": p.time_twogrid,
                "modeled_speedup": p.modeled_speedup,
            }
            for p in points
        ],
    }
    (RESULTS_DIR / "BENCH_twogrid.json").write_text(json.dumps(doc, indent=1))
