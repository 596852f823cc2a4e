"""The campaign axes, declared once.

Besides the plain grid (models x waves x methods x resolutions) a
campaign sweeps four *axes*.  Each is one row of :data:`AXES`; the spec
validation, grid expansion, cell schema, executor, report, study tables
and CLI flags all iterate the table, so adding an axis is one row here
plus one :class:`~repro.campaign.spec.CampaignSpec` field (plus a
:class:`~repro.core.methods.RunConfig` field when the solver consumes
it).

**Content addition** is the one rule every axis obeys: a value enters a
cell's params — and hence its content hash — and its label only when it
differs from the axis default.  Cells at the default keep the hash they
had before the axis existed, so introducing or growing an axis never
invalidates a cached result, and the cell's RNG seed depends on no
axis, so a sweep along any of them compares identical random draws.

Defaults and validators are the owning registries' own; nothing is
re-declared here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.methods import PARTITIONABLE_METHODS
from repro.predictor.registry import (
    DEFAULT_PREDICTOR,
    predictor_by_name,
    predictor_names,
)
from repro.sparse.precision import FP64, PRECISIONS, as_precision
from repro.workloads.scenario import (
    DEFAULT_SCENARIO,
    scenario_by_name,
    scenario_names,
)

__all__ = ["Axis", "AXES", "AXIS", "axis_values"]


def _every_method(method: str) -> bool:
    return True


@dataclass(frozen=True)
class Axis:
    """One swept dimension of a campaign."""

    #: cell-param key, ``run_method`` keyword and CLI flag (``--<key>``)
    key: str
    #: the :class:`~repro.campaign.spec.CampaignSpec` field listing the
    #: swept values
    field: str
    #: what error messages call one value
    noun: str
    #: the value every cell had before the axis existed; never stored
    default: object
    #: raw value (CLI text, JSON scalar) -> the type cells carry
    coerce: Callable
    #: canonical form of a non-default value; ``ValueError`` when unknown
    validate: Callable
    #: the admissible values, for CLI choices (``None``: open-ended)
    names: Callable[[], Sequence[str]] | None
    help: str
    #: how a non-default value reads in cell labels and report rows
    label: str = "{}"
    #: methods the axis fans out over; the others run once, at the default
    applies: Callable[[str], bool] = _every_method
    #: ``run_method`` takes it as a keyword (the scenario instead picks
    #: the problem and forces the executor hands to ``run_method``)
    solver: bool = True

    def of(self, params: dict):
        """This axis' value in a cell's params (absent = default)."""
        return params.get(self.key, self.default)


def _part_count(value: int) -> int:
    if value < 1:
        raise ValueError("nparts entries must be >= 1")
    return value


#: Row order is the order values enter cell params and labels, and the
#: nesting order of the grid expansion (last row varies fastest) — both
#: are pinned by ``tests/campaign/fixtures/axes_parent.json``.
AXES: tuple[Axis, ...] = (
    Axis(
        key="scenario", field="scenarios", noun="scenario",
        default=DEFAULT_SCENARIO, coerce=str,
        validate=lambda v: scenario_by_name(v).name, names=scenario_names,
        help="registered workload scenario: a ground structure x source "
             "process bundle (see `repro scenarios`)",
        solver=False,
    ),
    Axis(
        key="nparts", field="nparts", noun="nparts",
        default=1, coerce=int, validate=_part_count, names=None,
        help="mesh partitions of the distributed part-local solve "
             f"({', '.join(PARTITIONABLE_METHODS)} only)",
        label="p{}", applies=PARTITIONABLE_METHODS.__contains__,
    ),
    Axis(
        key="precision", field="precision", noun="precision",
        default=FP64.name, coerce=str,
        validate=lambda v: as_precision(v).name,
        names=lambda: tuple(sorted(PRECISIONS)),
        help="transprecision storage policy of the solver's streamed data",
    ),
    Axis(
        key="predictor", field="predictors", noun="predictor",
        default=DEFAULT_PREDICTOR, coerce=str,
        validate=lambda v: predictor_by_name(v).name,
        names=lambda: (DEFAULT_PREDICTOR, *predictor_names()),
        help="initial-guess predictor; 'auto' is the method's paper-native "
             "pairing (see `repro predictors`)",
    ),
)

AXIS: dict[str, Axis] = {ax.key: ax for ax in AXES}

_DEFAULTS = tuple((ax.key, ax.default) for ax in AXES)


def axis_values(params: dict) -> dict:
    """Every axis' value in a cell's params, defaults filled in (called
    per cell per report render, hence the precomputed pairs)."""
    return {key: params.get(key, default) for key, default in _DEFAULTS}
