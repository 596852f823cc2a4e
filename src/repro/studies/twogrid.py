"""Two-grid preconditioner study: iteration collapse vs block-Jacobi.

The geometric two-grid preconditioner (:mod:`repro.sparse.twogrid`)
exists for the hard, strong-contrast scenarios where plain block-Jacobi
CG iteration counts blow up.  This study measures what it actually buys
on real executed ensembles:

* :func:`twogrid_cells` emits paired ordinary ``"method"`` campaign
  cells — one per ``(scenario, resolution)`` under each preconditioner
  family — identical in every other respect (model, wave, method,
  seed), so the preconditioner is the only thing that varies.  The
  ``"bj"`` cells hash identically to the equivalent plain grid cells:
  the study and any campaign share one cache.
* :func:`twogrid_table` reduces the outcomes to per-(scenario,
  resolution) rows: iterations/step under each family, the iteration
  reduction factor, and the modeled time per step per case under each
  family (the roofline-level answer to "do the cheaper iterations pay
  for the cycle?").
* :func:`render_twogrid_table` prints them in the campaign table style
  (also consumed by ``benchmarks/test_twogrid_speedup.py``).

Rows are anchored on the ``soft-soil`` scenario — the regime the
preconditioner exists for — which is listed first.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.campaign.aggregate import format_table
from repro.campaign.axes import AXIS
from repro.campaign.spec import CampaignCell, WaveSpec, method_cell_params
from repro.sparse.precond import DEFAULT_PRECONDITIONER

__all__ = [
    "TwoGridPoint",
    "twogrid_cells",
    "twogrid_table",
    "render_twogrid_table",
]

#: The scenario the study is anchored on (listed first in the table):
#: the extreme soft/hard-contrast regime where block-Jacobi iteration
#: counts blow up and the coarse-grid correction earns its keep.
ANCHOR_SCENARIO = "soft-soil"

#: Preconditioner families the study pairs per cell.
STUDY_PRECONDS = (DEFAULT_PRECONDITIONER, "twogrid")


def twogrid_cells(
    scenarios: tuple[str, ...] = (ANCHOR_SCENARIO, "impulse"),
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
    """Paired ``"method"`` cells: each (scenario, resolution) under
    both preconditioner families, identical everything else.

    The shared cell schema (:func:`~repro.campaign.spec.method_cell_params`)
    keeps the block-Jacobi cell's hash equal to the equivalent plain
    grid cell's, so the study and any grid campaign share one cache,
    and the scenario seed is preconditioner-independent — both family
    members of a pair integrate identical random draws.
    """
    if not scenarios:
        raise ValueError("need at least one scenario")
    if not resolutions:
        raise ValueError("need at least one resolution")
    wave = wave if wave is not None else WaveSpec(name="w0")
    cells: list[CampaignCell] = []
    for scen in scenarios:
        for res in resolutions:
            for precond in STUDY_PRECONDS:
                params, label = method_cell_params(
                    model, wave, method, res,
                    cases=cases, steps=steps, module=module, eps=eps,
                    s_min=s_range[0], s_max=s_range[1], seed=seed,
                    scenario=str(scen), precond=precond,
                )
                cells.append(
                    CampaignCell(
                        kind="method", params=params,
                        label=f"twogrid/{label}",
                    )
                )
    return cells


@dataclass(frozen=True)
class TwoGridPoint:
    """One row of the preconditioner comparison (times per step *per
    case*, matching the campaign summary columns)."""

    scenario: str
    resolution: tuple[int, int, int]
    iters_bj: float
    iters_twogrid: float
    iteration_reduction: float  # iters(bj) / iters(twogrid)
    time_bj: float  # modeled elapsed/step/case, block-Jacobi
    time_twogrid: float  # modeled elapsed/step/case, two-grid
    modeled_speedup: float  # time(bj) / time(twogrid)


def twogrid_table(outcomes) -> list[TwoGridPoint]:
    """Pair study outcomes into per-(scenario, resolution) rows.

    Pairs missing either family member (failed or absent) are dropped —
    a one-sided comparison would be meaningless.  Rows are ordered with
    the :data:`ANCHOR_SCENARIO` first, then by scenario name, then by
    resolution.
    """
    by_pair: dict[tuple[str, tuple[int, int, int]], dict[str, dict]] = {}
    for o in outcomes:
        if not o.ok:
            continue
        p = o.cell.params
        key = (AXIS["scenario"].of(p),
               tuple(int(x) for x in p["resolution"]))
        precond = AXIS["precond"].of(p)
        by_pair.setdefault(key, {})[precond] = o.result["summary"]
    points = []
    for (scen, res), fam in sorted(by_pair.items()):
        if DEFAULT_PRECONDITIONER not in fam or "twogrid" not in fam:
            continue
        bj, tg = fam[DEFAULT_PRECONDITIONER], fam["twogrid"]
        it_bj = float(bj["iterations_per_step"])
        it_tg = float(tg["iterations_per_step"])
        t_bj = float(bj["elapsed_per_step_per_case_s"])
        t_tg = float(tg["elapsed_per_step_per_case_s"])
        points.append(
            TwoGridPoint(
                scenario=scen,
                resolution=res,
                iters_bj=it_bj,
                iters_twogrid=it_tg,
                iteration_reduction=it_bj / it_tg if it_tg > 0 else 0.0,
                time_bj=t_bj,
                time_twogrid=t_tg,
                modeled_speedup=t_bj / t_tg if t_tg > 0 else 0.0,
            )
        )
    points.sort(
        key=lambda p: (p.scenario != ANCHOR_SCENARIO, p.scenario, p.resolution)
    )
    return points


def render_twogrid_table(
    points: list[TwoGridPoint],
    title: str = "two-grid vs block-Jacobi (anchor: soft-soil)",
) -> str:
    """Fixed-width text table of the preconditioner comparison."""
    rows = [
        [
            p.scenario,
            "x".join(map(str, p.resolution)),
            f"{p.iters_bj:.1f}",
            f"{p.iters_twogrid:.1f}",
            f"{p.iteration_reduction:.2f}",
            f"{p.time_bj:.3e}",
            f"{p.time_twogrid:.3e}",
            f"{p.modeled_speedup:.2f}",
        ]
        for p in points
    ]
    return format_table(
        title,
        ["scenario", "res", "iters/step bj", "iters/step 2g", "reduction",
         "t/step bj [s]", "t/step 2g [s]", "modeled speedup"],
        rows,
    )
