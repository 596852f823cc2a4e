"""Cross-scenario difficulty study.

The scenario library (:mod:`repro.workloads.library`) exists to
stress-test the predictor/solver stack with heterogeneous inputs; this
study quantifies *how much harder* each scenario actually is, on real
executed ensembles:

* :func:`scenario_cells` emits one ordinary ``"method"`` campaign
  cell per registered scenario (same model, wave family, method and
  seed, so the scenario is the only thing that varies).  The default
  ``impulse`` cell hashes identically to the equivalent plain grid
  cell — the study and any campaign share one cache.
* :func:`scenario_table` reduces the outcomes to per-scenario
  difficulty rows: solver iterations per step, the history length the
  data-driven predictor actually earned (``s_used`` collapses when a
  source keeps re-bootstrapping, as the aftershock sequence forces),
  the achieved residual, and iteration inflation against the
  ``impulse`` anchor.
* :func:`render_scenario_table` prints them in the campaign table
  style (also consumed by ``benchmarks/test_scenario_sweep.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.campaign.aggregate import format_table
from repro.campaign.axes import AXIS
from repro.campaign.spec import CampaignCell, WaveSpec, method_cell_params
from repro.workloads.scenario import DEFAULT_SCENARIO, scenario_names

__all__ = [
    "ScenarioPoint",
    "scenario_cells",
    "scenario_table",
    "render_scenario_table",
]


def scenario_cells(
    scenarios: tuple[str, ...] | None = None,
    model: str = "stratified",
    wave: WaveSpec | None = None,
    resolution: tuple[int, int, int] = (2, 2, 1),
    cases: int = 2,
    steps: int = 8,
    method: str = "ebe-mcg@cpu-gpu",
    module: str = "single-gh200",
    seed: int = 0,
    eps: float = 1e-8,
    s_range: tuple[int, int] = (2, 8),
    precision: str = "fp64",
) -> list[CampaignCell]:
    """One ``"method"`` cell per scenario, identical everything else.

    ``scenarios=None`` sweeps the whole registry in its deterministic
    order (default scenario first).  The shared cell schema
    (:func:`~repro.campaign.spec.method_cell_params`) keeps the
    default-scenario cell's hash equal to the equivalent plain grid
    cell's, so the study and any grid campaign share one cache.
    """
    names = scenario_names() if scenarios is None else tuple(scenarios)
    if not names:
        raise ValueError("need at least one scenario")
    wave = wave if wave is not None else WaveSpec(name="w0")
    cells: list[CampaignCell] = []
    for scen in names:
        params, label = method_cell_params(
            model, wave, method, resolution,
            cases=cases, steps=steps, module=module, eps=eps,
            s_min=s_range[0], s_max=s_range[1], seed=seed,
            precision=precision, scenario=str(scen),
        )
        cells.append(
            CampaignCell(kind="method", params=params, label=f"scenario/{label}")
        )
    return cells


@dataclass(frozen=True)
class ScenarioPoint:
    """One row of the cross-scenario difficulty table (times per step
    *per case*, matching the campaign summary columns)."""

    scenario: str
    elapsed_per_step: float
    iterations_per_step: float
    iteration_inflation: float  # iters(scenario) / iters(impulse)
    predictor_s_used: float  # mean consumed history length
    achieved_relres: float  # worst windowed solver residual


def scenario_table(outcomes) -> list[ScenarioPoint]:
    """Reduce study outcomes to per-scenario difficulty rows.

    Iteration inflation is anchored at the default-scenario outcome;
    without one (or with it failed) the anchor falls back to the first
    successful row — never silently onto a failure.  Rows keep the
    registry's deterministic order (anchor first).
    """
    rows = []
    for o in outcomes:
        if not o.ok:
            continue
        s = o.result["summary"]
        rows.append(
            (
                AXIS["scenario"].of(o.cell.params),
                float(s["elapsed_per_step_per_case_s"]),
                float(s["iterations_per_step"]),
                # None = the run's predictor keeps no history length;
                # NaN keeps the row without faking an earned s of 0
                float("nan") if s.get("predictor_s_used") is None
                else float(s["predictor_s_used"]),
                float(s.get("achieved_relres", 0.0)),
            )
        )
    if not rows:
        return []
    anchor = next((r for r in rows if r[0] == DEFAULT_SCENARIO), rows[0])
    points = [
        ScenarioPoint(
            scenario=scen,
            elapsed_per_step=t,
            iterations_per_step=iters,
            iteration_inflation=iters / anchor[2] if anchor[2] > 0 else 0.0,
            predictor_s_used=s_used,
            achieved_relres=relres,
        )
        for scen, t, iters, s_used, relres in rows
    ]
    order = {name: i for i, name in enumerate(scenario_names())}
    points.sort(key=lambda p: (order.get(p.scenario, len(order)), p.scenario))
    return points


def render_scenario_table(
    points: list[ScenarioPoint], title: str = "cross-scenario difficulty"
) -> str:
    """Fixed-width text table of the difficulty rows."""
    rows = [
        [
            p.scenario,
            f"{p.elapsed_per_step:.3e}",
            f"{p.iterations_per_step:.1f}",
            f"{p.iteration_inflation:.2f}",
            "-" if np.isnan(p.predictor_s_used) else f"{p.predictor_s_used:.1f}",
            f"{p.achieved_relres:.2e}",
        ]
        for p in points
    ]
    return format_table(
        title,
        ["scenario", "t/step/case [s]", "iters/step", "inflation",
         "s_used", "achieved relres"],
        rows,
    )
