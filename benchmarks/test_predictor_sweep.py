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
import math
import time

import numpy as np

from benchmarks.conftest import RESULTS_DIR, write_table
from repro.campaign.runner import CampaignRunner
from repro.studies.predictors import (
    predictor_cells,
    predictor_table,
    render_predictor_table,
)

EPS = 1e-8
STEPS = 24
CASES = 2
RESOLUTION = (3, 3, 2)
#: ordered by forcing irregularity; the last is the acceptance anchor
SCENARIOS = ("impulse", "fault-rupture", "aftershocks")
PREDICTORS = ("adams-bashforth", "aitken", "iqn-ils", "data-driven")
S_RANGE = (2, 6)


def _run_sweep():
    cells = predictor_cells(
        predictors=PREDICTORS,
        scenarios=SCENARIOS,
        resolutions=(RESOLUTION,),
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
    return predictor_table(outcomes), outcomes, wall


def test_predictor_sweep(benchmark):
    points, outcomes, wall = benchmark.pedantic(
        _run_sweep, rounds=1, iterations=1
    )

    assert len(points) == len(SCENARIOS) * len(PREDICTORS)
    rows = {(p.scenario, p.predictor): p for p in points}

    for p in points:
        assert np.isfinite(p.iterations_per_step) and p.iterations_per_step > 0
        assert np.isfinite(p.elapsed_per_step) and p.elapsed_per_step > 0
        # history-bearing members earned their full window on a run
        # this long; the relaxation/extrapolation rungs honestly
        # report no history length
        if p.predictor in ("iqn-ils", "data-driven"):
            assert p.predictor_s_used == S_RANGE[1]
        else:
            assert math.isnan(p.predictor_s_used)

    # headline acceptance: quasi-Newton correction beats plain AB on
    # the re-bootstrapping scenario (and the cheaper Aitken does too)
    ab = rows[("aftershocks", "adams-bashforth")].iterations_per_step
    assert rows[("aftershocks", "iqn-ils")].iterations_per_step < ab
    assert rows[("aftershocks", "aitken")].iterations_per_step < ab

    # every zoo member converged to eps on every windowed step
    for o in outcomes:
        relres = float(o.result["summary"]["achieved_relres"])
        assert 0.0 < relres <= EPS, (o.cell.label, relres)

    res_tag = "x".join(map(str, RESOLUTION))
    write_table(
        "predictor_sweep",
        render_predictor_table(
            points,
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
                "scenario": p.scenario,
                "predictor": p.predictor,
                "iterations_per_step": p.iterations_per_step,
                "iteration_inflation": p.iteration_inflation,
                "predictor_s_used": (
                    None if math.isnan(p.predictor_s_used)
                    else p.predictor_s_used
                ),
                "modeled_time_per_step_s": p.elapsed_per_step,
                "achieved_relres": p.achieved_relres,
            }
            for p in points
        ],
    }
    (RESULTS_DIR / "BENCH_predictors.json").write_text(
        json.dumps(doc, indent=1)
    )
