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
from repro.studies.scenarios import (
    render_scenario_table,
    scenario_cells,
    scenario_table,
)
from repro.workloads.scenario import DEFAULT_SCENARIO, scenario_names

EPS = 1e-8
STEPS = 48
CASES = 4
RESOLUTION = (5, 5, 3)
#: fast wave so multiple aftershock events land inside the run
WAVE = WaveSpec(name="bench", f0_factor=1.0)


def _run_sweep():
    cells = scenario_cells(
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
    return scenario_table(outcomes)


def test_scenario_sweep(benchmark):
    points = benchmark.pedantic(_run_sweep, rounds=1, iterations=1)

    assert [p.scenario for p in points] == list(scenario_names())
    assert len(points) >= 5  # impulse + the four library scenarios

    for p in points:
        # converged: the windowed worst residual respects eps
        assert 0.0 < p.achieved_relres <= EPS, p
        assert np.isfinite(p.elapsed_per_step)
        assert p.iterations_per_step > 0
        assert p.predictor_s_used >= 2  # the adaptive controller engaged

    by_name = {p.scenario: p for p in points}
    anchor = by_name[DEFAULT_SCENARIO]
    assert anchor.iteration_inflation == pytest.approx(1.0)
    # the axis is physics, not labeling: difficulty genuinely varies
    assert len({round(p.iterations_per_step, 3) for p in points}) > 1

    write_table(
        "scenario_sweep",
        render_scenario_table(
            points,
            title=(
                f"cross-scenario difficulty (ebe-mcg@cpu-gpu, "
                f"{RESOLUTION[0]}x{RESOLUTION[1]}x{RESOLUTION[2]} mesh, "
                f"{CASES} cases, {STEPS} steps, eps={EPS:g})"
            ),
        ),
    )
