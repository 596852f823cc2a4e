"""Weak/strong-scaling sweeps as ordinary cached campaign cells.

The paper's Fig. 5 measures weak scaling: the ground model is tiled in
x-y with constant per-node size while the node count grows.  With the
distributed part-local solver (``nparts`` in
:func:`repro.core.methods.run_method`) those sweeps are just campaign
cells — one per part count — that ride the shared
:class:`~repro.campaign.runner.CampaignRunner` caching and process-pool
machinery:

* **weak** mode grows the x-y resolution with the part count (constant
  elements per part, the Fig. 5 protocol);
* **strong** mode keeps the resolution fixed and splits it ever finer.

Each cell's elapsed/halo times come from the executed pipeline
(bottleneck-part compute + modeled ``nic``-lane communication);
:func:`scaling_table` reduces the outcomes to the classic
per-part-count efficiency columns.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.campaign.axes import AXIS
from repro.campaign.spec import CampaignCell, WaveSpec, method_cell_params

__all__ = [
    "ScalingPoint",
    "scaling_cells",
    "scaling_table",
]


def _tile_factors(nparts: int) -> tuple[int, int]:
    """Near-square x-y tiling of ``nparts``: the divisor pair with the
    smallest aspect ratio (8 -> 4 x 2, 12 -> 4 x 3, 16 -> 4 x 4),
    minimizing the partition surface the halo pays for."""
    fy = max(d for d in range(1, int(nparts**0.5) + 1) if nparts % d == 0)
    return nparts // fy, fy


def scaling_cells(
    parts: tuple[int, ...] = (1, 2, 4, 8),
    mode: str = "weak",
    model: str = "stratified",
    wave: WaveSpec | None = None,
    base_resolution: tuple[int, int, int] = (2, 2, 1),
    cases: int = 2,
    steps: int = 8,
    module: str = "alps",
    seed: int = 0,
    eps: float = 1e-8,
    s_range: tuple[int, int] = (2, 8),
) -> list[CampaignCell]:
    """One ``ebe-mcg@cpu-gpu`` cell per part count.

    Weak mode tiles ``base_resolution`` in x-y by the part count
    (constant per-part size); strong mode fixes the resolution.  Cells
    are kind ``"method"`` — the ordinary campaign executor — so a
    :class:`~repro.campaign.store.ResultStore` caches them like any
    grid cell, and re-runs of a grown sweep only compute new part
    counts.
    """
    if mode not in ("weak", "strong"):
        raise ValueError("mode must be 'weak' or 'strong'")
    wave = wave if wave is not None else WaveSpec(name="w0")
    cells: list[CampaignCell] = []
    for p in parts:
        if p < 1:
            raise ValueError("part counts must be >= 1")
        nx, ny, nz = base_resolution
        if mode == "weak":
            fx, fy = _tile_factors(p)
            nx, ny = nx * fx, ny * fy
        # the shared schema keeps scaling-cell hashes identical to
        # equivalent grid cells, so the two entry points share a cache
        params, label = method_cell_params(
            model, wave, "ebe-mcg@cpu-gpu", (nx, ny, nz),
            cases=cases, steps=steps, module=module, eps=eps,
            s_min=s_range[0], s_max=s_range[1], seed=seed, nparts=p,
        )
        cells.append(
            CampaignCell(kind="method", params=params, label=f"{mode}/{label}")
        )
    return cells


@dataclass(frozen=True)
class ScalingPoint:
    """One row of the scaling table (times are per step *per case*,
    matching the campaign summary columns)."""

    nparts: int
    n_dofs: int
    elapsed_per_step: float
    halo_per_step: float
    efficiency: float


def scaling_table(outcomes, mode: str | None = None) -> list[ScalingPoint]:
    """Reduce scaling-cell outcomes to per-part-count efficiency rows.

    ``mode`` is read from the cell labels :func:`scaling_cells` stamped
    (``weak/...`` / ``strong/...``); pass it explicitly only for cells
    built elsewhere.  Rows are anchored at the smallest successful part
    count ``p0`` (failed cells are skipped, never silently rebased
    onto):

    * weak — per-part size is constant, so parallel efficiency is
      ``t(p0) / t(p)`` directly (the Fig. 5 column);
    * strong — total size is constant, so ideal time falls as ``1/p``
      and efficiency is ``(p0 * t(p0)) / (p * t(p))``.
    """
    if mode is None:
        stamped = {o.cell.label.split("/", 1)[0] for o in outcomes}
        if len(stamped) != 1 or not stamped <= {"weak", "strong"}:
            raise ValueError(
                "cannot infer the scaling mode from the cell labels; "
                "pass mode='weak' or mode='strong'"
            )
        (mode,) = stamped
    if mode not in ("weak", "strong"):
        raise ValueError("mode must be 'weak' or 'strong'")
    rows = []
    for o in outcomes:
        if not o.ok:
            continue
        rows.append(
            (
                int(AXIS["nparts"].of(o.cell.params)),
                float(o.result["summary"]["elapsed_per_step_per_case_s"]),
                int(o.result["n_dofs"]),
                float(o.result.get("halo_time_per_step_per_case", 0.0)),
            )
        )
    rows.sort(key=lambda r: r[0])
    points: list[ScalingPoint] = []
    base = None  # p0 * t(p0) (strong) or t(p0) (weak)
    for p, t, n_dofs, halo in rows:
        cost = p * t if mode == "strong" else t
        if base is None:
            base = cost
        points.append(
            ScalingPoint(
                nparts=p,
                n_dofs=n_dofs,
                elapsed_per_step=t,
                halo_per_step=halo,
                efficiency=float(base / cost) if cost > 0 else 0.0,
            )
        )
    return points
