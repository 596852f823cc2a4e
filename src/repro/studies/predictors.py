"""Predictor-zoo ablation: what each initial-guess accelerator buys.

The registry (:mod:`repro.predictor.registry`) makes the predictor a
first-class axis; this study measures the zoo on real executed
ensembles:

* :func:`predictor_cells` emits ordinary ``"method"`` campaign cells —
  one per ``(scenario, predictor)`` — identical in every other respect
  (model, wave, method, resolution, seed), so the predictor is the
  only thing that varies.  Native-predictor cells are emitted with the
  explicit registered name (e.g. ``data-driven`` on the heterogeneous
  methods), which hashes *differently* from the ``auto`` default —
  deliberate, so the anchor row of this study never shadows a plain
  grid cell's cache entry while still computing identical numerics.
* :func:`predictor_table` reduces the outcomes to per-(scenario,
  predictor) rows: CG iterations/step, the iteration inflation
  against the scenario's ``data-driven`` anchor (values < 1 mean the
  predictor beats the paper's method), the earned history length
  where the predictor keeps one, and the modeled time per step per
  case.
* :func:`render_predictor_table` prints them campaign-style (also
  consumed by ``benchmarks/test_predictor_sweep.py``).

Rows anchor on ``data-driven`` because that is the paper's pairing —
the question the zoo answers is "does classical acceleration (Aitken,
IQN-ILS) close the gap to the data-driven predictor, and at what
history cost?".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.campaign.aggregate import format_table
from repro.campaign.axes import AXIS
from repro.campaign.spec import CampaignCell, WaveSpec, method_cell_params
from repro.predictor.registry import predictor_names

__all__ = [
    "PredictorPoint",
    "predictor_cells",
    "predictor_table",
    "render_predictor_table",
]

#: The predictor rows are anchored on (the paper's own pairing for the
#: heterogeneous methods): inflation = iters(predictor)/iters(anchor).
ANCHOR_PREDICTOR = "data-driven"

#: Default scenario pair: the smooth baseline workload plus the
#: re-bootstrapping one where history-based prediction is hardest —
#: the regime the relaxation/quasi-Newton accelerators target.
STUDY_SCENARIOS = ("impulse", "aftershocks")

#: Default wave: ``f0_factor=1.0`` compresses the source period to a
#: few time steps, so the aftershock sequence's quiescent gaps and
#: re-bootstraps land inside short study runs (at the grid default 0.3
#: the second event only arrives after ~40 steps and ``aftershocks``
#: would be indistinguishable from ``impulse`` here).
STUDY_WAVE = WaveSpec(name="w0", f0_factor=1.0)


def predictor_cells(
    predictors: tuple[str, ...] | None = None,
    scenarios: tuple[str, ...] = STUDY_SCENARIOS,
    resolutions: tuple[tuple[int, int, int], ...] = ((2, 2, 1),),
    model: str = "stratified",
    wave: WaveSpec | None = None,
    cases: int = 2,
    steps: int = 8,
    method: str = "ebe-mcg@cpu-gpu",
    module: str = "single-gh200",
    seed: int = 0,
    eps: float = 1e-8,
    s_range: tuple[int, int] = (2, 8),
) -> list[CampaignCell]:
    """One ``"method"`` cell per (scenario, resolution, predictor),
    identical everything else.

    ``predictors=None`` sweeps the whole registered zoo.  The shared
    cell schema (:func:`~repro.campaign.spec.method_cell_params`)
    keeps the scenario seed predictor-independent, so every zoo member
    integrates identical random draws.
    """
    if not scenarios:
        raise ValueError("need at least one scenario")
    if not resolutions:
        raise ValueError("need at least one resolution")
    preds = tuple(predictors) if predictors is not None else predictor_names()
    if not preds:
        raise ValueError("need at least one predictor")
    wave = wave if wave is not None else STUDY_WAVE
    cells: list[CampaignCell] = []
    for scen in scenarios:
        for res in resolutions:
            for pred in preds:
                params, label = method_cell_params(
                    model, wave, method, res,
                    cases=cases, steps=steps, module=module, eps=eps,
                    s_min=s_range[0], s_max=s_range[1], seed=seed,
                    scenario=str(scen), predictor=str(pred),
                )
                cells.append(
                    CampaignCell(
                        kind="method", params=params,
                        label=f"predictor/{label}",
                    )
                )
    return cells


@dataclass(frozen=True)
class PredictorPoint:
    """One row of the zoo comparison (times per step *per case*,
    matching the campaign summary columns)."""

    scenario: str
    predictor: str
    iterations_per_step: float
    iteration_inflation: float  # iters(predictor) / iters(anchor)
    predictor_s_used: float  # NaN for predictors without history length
    elapsed_per_step: float
    achieved_relres: float


def predictor_table(outcomes) -> list[PredictorPoint]:
    """Reduce study outcomes to per-(scenario, predictor) rows.

    Inflation anchors on each scenario's :data:`ANCHOR_PREDICTOR` row;
    a scenario without a successful anchor falls back to its first
    successful row — never silently onto a failure.  Rows keep
    scenario order of first appearance, zoo rows in registry order
    with the anchor first.
    """
    by_scen: dict[str, dict[str, dict]] = {}
    for o in outcomes:
        if not o.ok:
            continue
        p = o.cell.params
        pred = AXIS["predictor"].of(p)
        if pred == AXIS["predictor"].default:
            continue  # not a predictor-axis cell
        scen = AXIS["scenario"].of(p)
        by_scen.setdefault(scen, {})[pred] = o.result["summary"]
    points = []
    for scen, fam in by_scen.items():
        anchor = fam.get(ANCHOR_PREDICTOR) or next(iter(fam.values()))
        it_anchor = float(anchor["iterations_per_step"])
        order = {name: i for i, name in enumerate(predictor_names())}
        for pred in sorted(
            fam, key=lambda p: (p != ANCHOR_PREDICTOR, order.get(p, len(order)))
        ):
            s = fam[pred]
            it = float(s["iterations_per_step"])
            s_used = s.get("predictor_s_used")
            points.append(
                PredictorPoint(
                    scenario=scen,
                    predictor=pred,
                    iterations_per_step=it,
                    iteration_inflation=it / it_anchor if it_anchor > 0 else 0.0,
                    predictor_s_used=(
                        float("nan") if s_used is None else float(s_used)
                    ),
                    elapsed_per_step=float(s["elapsed_per_step_per_case_s"]),
                    achieved_relres=float(s.get("achieved_relres", 0.0)),
                )
            )
    return points


def render_predictor_table(
    points: list[PredictorPoint],
    title: str = "predictor zoo (anchor: data-driven)",
) -> str:
    """Fixed-width text table of the zoo comparison."""
    rows = [
        [
            p.scenario,
            p.predictor,
            f"{p.iterations_per_step:.1f}",
            f"{p.iteration_inflation:.2f}",
            "-" if math.isnan(p.predictor_s_used)
            else f"{p.predictor_s_used:.1f}",
            f"{p.elapsed_per_step:.3e}",
            f"{p.achieved_relres:.2e}",
        ]
        for p in points
    ]
    return format_table(
        title,
        ["scenario", "predictor", "iters/step", "inflation", "s_used",
         "t/step/case [s]", "achieved relres"],
        rows,
    )
