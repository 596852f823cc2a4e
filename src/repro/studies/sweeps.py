"""The method-cell studies, declared once.

A *study* asks "the same problem, many times, along which dimension?":
vary a few :func:`~repro.campaign.spec.method_cell_params` keywords,
hold everything else, and report each cell against an anchor cell.
Each study is one row of :data:`SWEEPS`; three methods do the work for
every row:

* :meth:`Sweep.cells` expands the swept values into ordinary
  ``"method"`` campaign cells through the shared cell schema, so a cell
  at the defaults hashes identically to the plain grid cell and studies
  and grid campaigns share one cache;
* :meth:`Sweep.rows` flattens the outcomes once, groups them by the
  swept keys other than ``along``, orders each group and fills the
  ratio columns against the group's anchor row;
* :meth:`Sweep.render` prints the declared columns through
  :func:`~repro.campaign.aggregate.format_table`.

Adding a study is one row here — see :mod:`repro.studies`.

One missing-value rule: a metric a run did not report (or reported as
NaN) stays ``None``/NaN in the rows, leaves the ratios built on it
``None``, and prints ``-`` in every table; a failed cell is never a
row and never an anchor.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.campaign.aggregate import format_table
from repro.campaign.axes import AXIS, axis_values
from repro.campaign.spec import CampaignCell, WaveSpec, method_cell_params
from repro.core.methods import NATIVE_PREDICTORS
from repro.predictor.registry import predictor_names
from repro.sparse.precision import PRECISIONS
from repro.workloads.scenario import scenario_names

__all__ = ["Column", "Sweep", "SWEEPS", "SWEEP"]

_METHOD = "ebe-mcg@cpu-gpu"
_TIME = "elapsed_per_step_per_case_s"
_ITERS = "iterations_per_step"


@dataclass(frozen=True)
class Column:
    """One printed column of a study table."""

    #: the row entry printed (a swept key, ``res``, a summary metric, or
    #: the name the ratio below is stored under)
    key: str
    header: str
    #: format spec of a present value; absent ones print ``-``
    format: str = ""
    #: ``(metric, "row/anchor" | "anchor/row")`` — the column is that
    #: metric's ratio against the group's anchor row
    ratio: tuple[str, str] | None = None

    def text(self, row: dict) -> str:
        value = row.get(self.key)
        return "-" if _missing(value) else format(value, self.format)


def _missing(value) -> bool:
    return value is None or (isinstance(value, float) and math.isnan(value))


def _ratio(row: dict, anchor: dict, metric: str, sense: str) -> float | None:
    num, den = (row, anchor) if sense == "row/anchor" else (anchor, row)
    a, b = num.get(metric), den.get(metric)
    return None if _missing(a) or _missing(b) or b == 0 else a / b


def _res_tag(resolution) -> str:
    return "x".join(map(str, resolution))


@dataclass(frozen=True, eq=False)
class Sweep:
    """One study: what is swept, against which anchor, shown how."""

    #: the study's name in :data:`SWEEP`
    name: str
    #: cell-label prefix (``<label>/<model>/<wave>/...``) and what the
    #: CLI error messages call the study
    label: str
    #: default table title
    title: str
    #: the swept :func:`method_cell_params` keywords — ``AXES`` keys,
    #: ``resolution``, ``s_max``... — outermost first (the last varies
    #: fastest)
    swept: tuple[str, ...]
    #: swept key -> its default values, read from the owning registry
    #: when the cells are built
    values: dict[str, Callable[[], Sequence]]
    #: the swept key rows are compared along; the others group the rows
    along: str
    #: the ``along`` value the ratio columns are taken against
    anchor: object
    columns: tuple[Column, ...]
    #: presentation order of the ``along`` values, anchor first (a
    #: registry listing; values outside it — and all of them when
    #: ``None`` — follow in ascending order)
    order: Callable[[], Sequence] | None = None
    #: default input wave of the cells
    wave: WaveSpec = WaveSpec(name="w0")
    #: default hardware module of the cells
    module: str = "single-gh200"
    #: the mesh a cell runs on, from the base ``resolution`` and the
    #: cell's ``along`` value (``None``: the base resolution itself)
    resolution_of: Callable | None = None
    #: metric name -> the row entries it is the product of, for ratio
    #: columns over a quantity the run summary does not carry
    derived: dict[str, tuple[str, ...]] = field(default_factory=dict)

    # ------------------------------------------------------------ cells
    def cells(
        self,
        *,
        model: str = "stratified",
        wave: WaveSpec | None = None,
        cases: int = 2,
        steps: int = 8,
        method: str = _METHOD,
        module: str | None = None,
        seed: int = 0,
        eps: float = 1e-8,
        s_range: tuple[int, int] = (2, 8),
        **grid,
    ) -> list[CampaignCell]:
        """One ``"method"`` cell per combination of the swept values,
        identical in everything else (the seed included, so every cell
        of a sweep integrates the same random draws).

        ``grid`` takes any other :func:`method_cell_params` keyword —
        an ``AXES`` key or ``resolution`` (default 2x2x1): a sequence of
        values for a swept key (``None``: its registry default), one
        value for the others.
        """
        fixed = dict(
            resolution=(2, 2, 1), cases=cases, steps=steps,
            module=module or self.module, eps=eps,
            s_min=s_range[0], s_max=s_range[1], seed=seed,
        )
        fixed.update(grid)
        swept = []
        for key in self.swept:
            given = grid.get(key)
            values = tuple(self.values[key]() if given is None else given)
            if not values:
                raise ValueError(f"need at least one {key}")
            swept.append(values)
        wave = self.wave if wave is None else wave
        cells = []
        for combo in itertools.product(*swept):
            kw = {**fixed, **dict(zip(self.swept, combo))}
            resolution = kw.pop("resolution")
            if self.resolution_of is not None:
                resolution = self.resolution_of(resolution, kw[self.along])
            params, label = method_cell_params(
                model, wave, method, resolution, **kw
            )
            cells.append(
                CampaignCell(kind="method", params=params,
                             label=f"{self.label}/{label}")
            )
        return cells

    # ------------------------------------------------------------- rows
    def _flatten(self, outcome) -> dict:
        params, result = outcome.cell.params, outcome.result
        row = {**params, **axis_values(params)}
        row["resolution"] = tuple(params["resolution"])
        row["res"] = _res_tag(row["resolution"])
        row.update(
            (k, v) for k, v in result.items() if isinstance(v, (int, float))
        )
        row.update(result["summary"])
        for name, factors in self.derived.items():
            values = [row.get(f) for f in factors]
            row[name] = None if None in values else math.prod(values)
        return row

    def rows(self, outcomes) -> list[dict]:
        """Reduce outcomes to table rows, one per successful cell.

        A row carries the cell's params with the axis defaults filled
        in, ``res`` (the resolution tag), every scalar the run reported,
        the derived metrics, the ratio columns, ``group`` (the other
        swept values, ``/``-joined) and ``anchor`` — the ``along`` value
        its ratios are against: the declared anchor if that cell
        succeeded, else the group's first successful row in
        presentation order.  Groups keep the order their first cell was
        emitted in.
        """
        listing = tuple(self.order()) if self.order is not None else ()

        def rank(row: dict) -> tuple:
            value = row[self.along]
            known = value in listing
            return (
                value != self.anchor,
                listing.index(value) if known else len(listing),
                value,
            )

        others = [k for k in self.swept if k != self.along]
        groups: dict[tuple, list[dict]] = {}
        for o in outcomes:
            if o.ok:
                row = self._flatten(o)
                groups.setdefault(tuple(row[k] for k in others), []).append(row)
        out = []
        for key, members in groups.items():
            members.sort(key=rank)
            anchor = members[0]
            group = "/".join(
                _res_tag(v) if isinstance(v, tuple) else str(v) for v in key
            )
            for row in members:
                row["group"] = group
                row["anchor"] = anchor[self.along]
                for col in self.columns:
                    if col.ratio is not None:
                        row[col.key] = _ratio(row, anchor, *col.ratio)
            out += members
        return out

    # ----------------------------------------------------------- render
    def render(self, rows: list[dict], title: str | None = None) -> str:
        """Fixed-width text table of the declared columns."""
        return format_table(
            self.title if title is None else title,
            [c.header for c in self.columns],
            [[c.text(row) for c in self.columns] for row in rows],
        )


def _tile(base, nparts: int) -> tuple[int, int, int]:
    """``base`` tiled in x-y by the near-square divisor pair of
    ``nparts`` (8 -> 4 x 2, 12 -> 4 x 3, 16 -> 4 x 4): constant
    elements per part — the paper's Fig. 5 protocol — with the smallest
    partition surface for the halo to pay for."""
    nparts = AXIS["nparts"].validate(nparts)  # the divisor search needs >= 1
    fy = max(d for d in range(1, int(nparts**0.5) + 1) if nparts % d == 0)
    nx, ny, nz = base
    return nx * (nparts // fy), ny * fy, nz


_T = Column(_TIME, "t/step/case [s]", ".3e")
_IT = Column(_ITERS, "iters/step", ".1f")
_INFLATION = Column("iteration_inflation", "inflation", ".2f",
                    ratio=(_ITERS, "row/anchor"))
_S_USED = Column("predictor_s_used", "s_used", ".1f")
_RELRES = Column("achieved_relres", "achieved relres", ".2e")
_SCALING_COLUMNS = (
    Column("nparts", "nparts"),
    Column("n_dofs", "dofs"),
    _T,
    Column("halo_time_per_step_per_case", "halo/step/case [s]", ".3e"),
    Column("efficiency", "eff", "5.3f", ratio=("cost", "anchor/row")),
)
# registry listings, read when a sweep runs (a values entry / an order)
_NPARTS = {"nparts": lambda: (1, 2, 4, 8)}
_RESOLUTIONS = lambda: ((2, 2, 1),)  # noqa: E731
_PRECISIONS = lambda: tuple(PRECISIONS)  # noqa: E731 - widest storage first

#: Row order is the order the README and ``repro.studies`` list them in.
SWEEPS: tuple[Sweep, ...] = (
    # how much harder is each registered workload than the impulse?
    Sweep(
        name="scenarios", label="scenario",
        title="cross-scenario difficulty",
        swept=("scenario",), values={"scenario": scenario_names},
        along="scenario", anchor=AXIS["scenario"].default,
        order=scenario_names,
        columns=(Column("scenario", "scenario"), _T, _IT, _INFLATION,
                 _S_USED, _RELRES),
    ),
    # do FP32/FP21 stores buy modeled speed without losing convergence?
    Sweep(
        name="transprecision", label="transprec",
        title="transprecision accuracy vs speed (anchor: fp64)",
        swept=("precision",), values={"precision": _PRECISIONS},
        along="precision", anchor=AXIS["precision"].default,
        order=_PRECISIONS,
        columns=(
            Column("precision", "precision"), _T,
            Column("speedup", "speedup", ".2f", ratio=(_TIME, "anchor/row")),
            _IT, _INFLATION, _RELRES,
        ),
    ),
    # Fig. 5: the mesh grows with the part count, so ideal time is flat
    Sweep(
        name="weakscaling", label="weak",
        title="Weak scaling of the distributed part-local EBE-MCG solve",
        swept=("nparts",), values=_NPARTS,
        along="nparts", anchor=AXIS["nparts"].default,
        columns=_SCALING_COLUMNS, module="alps", resolution_of=_tile,
        derived={"cost": (_TIME,)},
    ),
    # one mesh split ever finer, so ideal time falls as 1/nparts
    Sweep(
        name="strongscaling", label="strong",
        title="Strong scaling of the distributed part-local EBE-MCG solve",
        swept=("nparts",), values=_NPARTS,
        along="nparts", anchor=AXIS["nparts"].default,
        columns=_SCALING_COLUMNS, module="alps",
        derived={"cost": ("nparts", _TIME)},
    ),
    # does classical acceleration close the gap to the paper's
    # data-driven predictor?  The explicit name hashes differently from
    # ``auto``, so the anchor never shadows a grid cell's cache entry.
    Sweep(
        name="predictors", label="predictor",
        title="predictor zoo (anchor: data-driven)",
        swept=("scenario", "resolution", "predictor"),
        # the smooth baseline plus the re-bootstrapping workload where
        # history-based prediction is hardest
        values={"scenario": lambda: ("impulse", "aftershocks"),
                "resolution": _RESOLUTIONS,
                "predictor": predictor_names},
        along="predictor", anchor=NATIVE_PREDICTORS[_METHOD],
        order=predictor_names,
        columns=(Column("scenario", "scenario"),
                 Column("predictor", "predictor"), _IT, _INFLATION,
                 _S_USED, _T, _RELRES),
        # f0_factor=1 compresses the source period to a few steps, so
        # the aftershock gaps and re-bootstraps land inside short runs
        wave=WaveSpec(name="w0", f0_factor=1.0),
    ),
)

SWEEP: dict[str, Sweep] = {s.name: s for s in SWEEPS}
