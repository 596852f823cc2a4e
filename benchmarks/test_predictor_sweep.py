"""Predictor-zoo sweep — what each initial-guess accelerator earns.

Sweeps the classical accelerator ladder (Adams-Bashforth baseline,
Aitken relaxation, IQN-ILS quasi-Newton) against the paper's
data-driven predictor across three scenarios of increasing forcing
irregularity, through the full heterogeneous EBE-MCG pipeline at bench
size.

Acceptance (the PR's headline claim): on ``aftershocks`` — the
re-bootstrapping regime where plain extrapolation keeps overshooting
event arrivals — the IQN-ILS correction reduces mean CG iterations per
step against Adams-Bashforth (Aitken, the cheaper relaxation, must
too).  Every zoo member converges to the paper's eps on identical
random draws.

Alongside the text table, a machine-readable
``benchmarks/results/BENCH_predictors.json`` records iterations/step,
inflation vs the data-driven anchor and modeled time per row for trend
tracking.
"""

from __future__ import annotations

import json
import time

import numpy as np

from benchmarks.conftest import RESULTS_DIR, write_table
from repro.campaign.runner import CampaignRunner
from repro.studies import SWEEP

EPS = 1e-8
STEPS = 24
CASES = 2
RESOLUTION = (3, 3, 2)
#: ordered by forcing irregularity; the last is the acceptance anchor
SCENARIOS = ("impulse", "fault-rupture", "aftershocks")
PREDICTORS = ("adams-bashforth", "aitken", "iqn-ils", "data-driven")
S_RANGE = (2, 6)


def _run_sweep():
    cells = SWEEP["predictors"].cells(
        predictor=PREDICTORS,
        scenario=SCENARIOS,
        resolution=(RESOLUTION,),
        cases=CASES,
        steps=STEPS,
        eps=EPS,
        s_range=S_RANGE,
    )
    t0 = time.perf_counter()
    outcomes = CampaignRunner().run_cells(cells)
    wall = time.perf_counter() - t0
    failed = [o.error for o in outcomes if not o.ok]
    assert not failed, failed
    return SWEEP["predictors"].rows(outcomes), outcomes, wall


def test_predictor_sweep(benchmark):
    rows, outcomes, wall = benchmark.pedantic(
        _run_sweep, rounds=1, iterations=1
    )

    assert len(rows) == len(SCENARIOS) * len(PREDICTORS)
    by_cell = {(r["scenario"], r["predictor"]): r for r in rows}

    for r in rows:
        iters, t = r["iterations_per_step"], r["elapsed_per_step_per_case_s"]
        assert np.isfinite(iters) and iters > 0
        assert np.isfinite(t) and t > 0
        # history-bearing members earned their full window on a run
        # this long; the relaxation/extrapolation rungs honestly
        # report no history length
        if r["predictor"] in ("iqn-ils", "data-driven"):
            assert r["predictor_s_used"] == S_RANGE[1]
        else:
            assert r["predictor_s_used"] is None

    # headline acceptance: quasi-Newton correction beats plain AB on
    # the re-bootstrapping scenario (and the cheaper Aitken does too)
    ab = by_cell[("aftershocks", "adams-bashforth")]["iterations_per_step"]
    assert by_cell[("aftershocks", "iqn-ils")]["iterations_per_step"] < ab
    assert by_cell[("aftershocks", "aitken")]["iterations_per_step"] < ab

    # every zoo member converged to eps on every windowed step
    for o in outcomes:
        relres = float(o.result["summary"]["achieved_relres"])
        assert 0.0 < relres <= EPS, (o.cell.label, relres)

    res_tag = "x".join(map(str, RESOLUTION))
    write_table(
        "predictor_sweep",
        SWEEP["predictors"].render(
            rows,
            title=(
                f"predictor zoo (ebe-mcg@cpu-gpu, {res_tag} mesh, "
                f"{CASES} cases, {STEPS} steps, eps={EPS:g}, "
                "anchor: data-driven)"
            ),
        ),
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    doc = {
        "resolution": list(RESOLUTION),
        "cases": CASES,
        "steps": STEPS,
        "eps": EPS,
        "s_range": list(S_RANGE),
        "wall_time_s": wall,
        "rows": [
            {
                "scenario": r["scenario"],
                "predictor": r["predictor"],
                "iterations_per_step": r["iterations_per_step"],
                "iteration_inflation": r["iteration_inflation"],
                "predictor_s_used": r["predictor_s_used"],
                "modeled_time_per_step_s": r["elapsed_per_step_per_case_s"],
                "achieved_relres": r["achieved_relres"],
            }
            for r in rows
        ],
    }
    (RESULTS_DIR / "BENCH_predictors.json").write_text(
        json.dumps(doc, indent=1)
    )
