"""Cross-scenario difficulty sweep — the scenario library at bench size.

Runs every registered scenario through the heterogeneous EBE-MCG
pipeline at bench resolution, long enough that the aftershock
sequence's second event (and its predictor re-bootstrap) lands inside
the measurement window, and regenerates the cross-scenario difficulty
table (iterations/step, earned predictor history ``s_used``, achieved
residual, iteration inflation vs the impulse anchor).

Acceptance: every scenario converges to the paper's eps at every
step, and the scenario axis is *real* — the per-scenario iteration
means are not all identical.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import write_table
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import WaveSpec
from repro.studies import SWEEP
from repro.workloads.scenario import DEFAULT_SCENARIO, scenario_names

EPS = 1e-8
STEPS = 48
CASES = 4
RESOLUTION = (5, 5, 3)
#: fast wave so multiple aftershock events land inside the run
WAVE = WaveSpec(name="bench", f0_factor=1.0)


def _run_sweep():
    cells = SWEEP["scenarios"].cells(
        wave=WAVE,
        resolution=RESOLUTION,
        cases=CASES,
        steps=STEPS,
        eps=EPS,
        s_range=(2, 8),
    )
    outcomes = CampaignRunner().run_cells(cells)
    failed = [o.error for o in outcomes if not o.ok]
    assert not failed, failed
    return SWEEP["scenarios"].rows(outcomes)


def test_scenario_sweep(benchmark):
    rows = benchmark.pedantic(_run_sweep, rounds=1, iterations=1)

    assert [r["scenario"] for r in rows] == list(scenario_names())
    assert len(rows) >= 5  # impulse + the four library scenarios

    for r in rows:
        # converged: the windowed worst residual respects eps
        assert 0.0 < r["achieved_relres"] <= EPS, r
        assert np.isfinite(r["elapsed_per_step_per_case_s"])
        assert r["iterations_per_step"] > 0
        assert r["predictor_s_used"] >= 2  # the adaptive controller engaged

    by_name = {r["scenario"]: r for r in rows}
    anchor = by_name[DEFAULT_SCENARIO]
    assert anchor["iteration_inflation"] == pytest.approx(1.0)
    # the axis is physics, not labeling: difficulty genuinely varies
    assert len({round(r["iterations_per_step"], 3) for r in rows}) > 1

    write_table(
        "scenario_sweep",
        SWEEP["scenarios"].render(
            rows,
            title=(
                f"cross-scenario difficulty (ebe-mcg@cpu-gpu, "
                f"{RESOLUTION[0]}x{RESOLUTION[1]}x{RESOLUTION[2]} mesh, "
                f"{CASES} cases, {STEPS} steps, eps={EPS:g})"
            ),
        ),
    )
