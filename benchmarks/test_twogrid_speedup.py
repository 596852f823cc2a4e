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
from repro.studies import SWEEP

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
    cells = SWEEP["twogrid"].cells(
        scenario=SCENARIOS,
        resolution=(RESOLUTION,),
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
    return SWEEP["twogrid"].rows(outcomes), outcomes, wall


def test_twogrid_speedup(benchmark):
    rows, outcomes, wall = benchmark.pedantic(
        _run_sweep, rounds=1, iterations=1
    )

    # long form: each scenario's block-Jacobi row, then its two-grid row
    assert [(r["scenario"], r["precond"]) for r in rows] == [
        (scen, precond) for scen in SCENARIOS for precond in ("bj", "twogrid")
    ]
    assert rows[0]["scenario"] == "soft-soil"  # the anchor leads
    pairs = list(zip(rows[0::2], rows[1::2]))

    for bj, tg in pairs:
        assert bj["iteration_reduction"] == bj["modeled_speedup"] == 1.0
        for r in (bj, tg):
            assert np.isfinite(r["elapsed_per_step_per_case_s"])
            assert r["iterations_per_step"] > 0
        # the cycle never makes iteration counts worse
        assert tg["iteration_reduction"] > 1.0, tg

    # headline acceptance: >= 2x fewer CG iterations on soft-soil at
    # the finest tier-1 resolution
    anchor = pairs[0][1]
    assert anchor["iteration_reduction"] >= MIN_REDUCTION, anchor

    # both families converged to eps on every windowed step
    for o in outcomes:
        relres = float(o.result["summary"]["achieved_relres"])
        assert 0.0 < relres <= EPS, (o.cell.label, relres)

    res_tag = "x".join(map(str, RESOLUTION))
    write_table(
        "twogrid_speedup",
        SWEEP["twogrid"].render(
            rows,
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
                "scenario": tg["scenario"],
                "iters_per_step_bj": bj["iterations_per_step"],
                "iters_per_step_twogrid": tg["iterations_per_step"],
                "iteration_reduction": tg["iteration_reduction"],
                "modeled_time_per_step_bj_s": bj["elapsed_per_step_per_case_s"],
                "modeled_time_per_step_twogrid_s": tg["elapsed_per_step_per_case_s"],
                "modeled_speedup": tg["modeled_speedup"],
            }
            for bj, tg in pairs
        ],
    }
    (RESULTS_DIR / "BENCH_twogrid.json").write_text(json.dumps(doc, indent=1))
