"""Declarative campaign specifications.

A *campaign* is the paper's workload at system scale: a grid of
ground structures x input waves x methods x mesh resolutions, every
cell of which is an independent ensemble run.  :class:`CampaignSpec`
describes the grid declaratively; :meth:`CampaignSpec.cells` expands
it into :class:`CampaignCell` work items with deterministic, content-
derived RNG seeds, so a cell's numerics never depend on how many other
cells share the grid or which worker executes it.

Cells are identified by a content hash of their parameters — the key
of the on-disk :class:`~repro.campaign.store.ResultStore` — which is
what makes re-runs skip already-computed cells.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import pathlib
from dataclasses import dataclass, field, fields

from repro.campaign.axes import AXES, AXIS
from repro.core.methods import HETEROGENEOUS_METHODS, METHODS
from repro.hardware.specs import module_by_name
from repro.io.results import atomic_write_text
from repro.workloads.ground import GROUND_MODELS

__all__ = [
    "WaveSpec",
    "CampaignCell",
    "CampaignSpec",
    "cell_key",
    "default_waves",
    "method_cell_params",
    "METHOD_CELL_KEYS",
]


def _canonical(params: dict) -> str:
    """Stable JSON encoding used for hashing and storage."""
    return json.dumps(params, sort_keys=True, separators=(",", ":"))


def cell_key(kind: str, params: dict) -> str:
    """Content hash identifying one campaign cell (store filename)."""
    digest = hashlib.sha256(f"{kind}:{_canonical(params)}".encode())
    return digest.hexdigest()[:24]


def derive_seed(*parts) -> int:
    """Deterministic 32-bit seed from arbitrary labelled parts.

    Content-derived (not index-derived): growing the grid never
    changes the seed — and hence the cached result — of an existing
    cell.
    """
    text = "|".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "little")


@dataclass(frozen=True)
class WaveSpec:
    """One input-wave family: a band-limited random surface impulse.

    ``f0_factor`` scales the Ricker center frequency relative to the
    time step (``f0 = f0_factor / (pi dt)``), so the same wave spec is
    meaningful across resolutions.
    """

    name: str
    amplitude: float = 1e6
    f0_factor: float = 0.3
    cycles_to_onset: float = 1.0

    def to_dict(self) -> dict:
        # flat scalars: no deep copy (runs once per cell expanded)
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "WaveSpec":
        """Build from a dict, rejecting unknown keys loudly — a typoed
        wave parameter must not silently vanish into a default (same
        discipline as :func:`repro.workloads.scenario.wave_params`)."""
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(
                f"unknown wave spec keys {sorted(unknown)}; known keys: "
                f"{sorted(cls.__dataclass_fields__)}"
            )
        return cls(**d)


def default_waves(n: int) -> tuple[WaveSpec, ...]:
    """``n`` distinct wave families with staggered amplitude/frequency."""
    if n < 1:
        raise ValueError("need at least one wave")
    return tuple(
        WaveSpec(
            name=f"w{i}",
            amplitude=1e6 * (1.0 + 0.5 * i),
            f0_factor=0.3 * (1.0 + 0.25 * (i % 2)),
        )
        for i in range(n)
    )


#: the keys every method cell's params hold besides its non-default axes
METHOD_CELL_KEYS = frozenset({
    "model", "wave", "method", "resolution", "cases", "steps", "module",
    "eps", "s_min", "s_max", "seed",
})


def method_cell_params(
    model: str,
    wave: WaveSpec,
    method: str,
    resolution,
    *,
    cases: int,
    steps: int,
    module: str,
    eps: float,
    s_min: int,
    s_max: int,
    seed: int,
    **axes,
) -> tuple[dict, str]:
    """Canonical ``(params, label)`` of one ``"method"`` campaign cell.

    The single owner of the method-cell schema: grid expansion
    (:meth:`CampaignSpec.cells`) and every row of the study table
    (:meth:`repro.studies.sweeps.Sweep.cells`) build their cells here
    and nowhere else, so equivalent work always produces the same
    content hash.  ``axes`` holds one value per
    :data:`~repro.campaign.axes.AXES` key (omitted = default); each
    enters the params, the hash and the label only at a non-default
    value — the content-addition rule stated in
    :mod:`repro.campaign.axes` — and the scenario ``seed`` is
    independent of all of them.
    """
    res = tuple(int(x) for x in resolution)
    res_tag = "x".join(map(str, res))
    params = {
        "model": model,
        "wave": wave.to_dict(),
        "method": method,
        "resolution": list(res),
        "cases": cases,
        "steps": steps,
        "module": module,
        "eps": eps,
        "s_min": s_min,
        "s_max": s_max,
        "seed": derive_seed(seed, model, wave.name, method, res_tag),
    }
    label = f"{model}/{wave.name}/{method}/{res_tag}"
    if axes:  # none given is the common case: most grids sweep no axis
        if not axes.keys() <= AXIS.keys():
            raise TypeError(
                f"unknown campaign axes {sorted(axes.keys() - AXIS.keys())}; "
                f"known: {sorted(AXIS)}"
            )
        for ax in AXES:
            value = axes.get(ax.key, ax.default)
            if value != ax.default:
                value = params[ax.key] = ax.validate(ax.coerce(value))
                label += "/" + ax.label.format(value)
    return params, label


@dataclass(frozen=True)
class CampaignCell:
    """One executable unit of a campaign.

    ``kind`` selects the registered executor
    (:data:`repro.campaign.runner.CELL_EXECUTORS`); ``params`` must be
    JSON-serializable — it is both the executor input and the content
    that is hashed into the cache key.
    """

    kind: str
    params: dict = field(hash=False)
    label: str = ""

    @functools.cached_property
    def key(self) -> str:
        """Content hash, computed on first use and kept: ``params`` is
        read-only once the cell exists."""
        return cell_key(self.kind, self.params)


@dataclass(frozen=True)
class CampaignSpec:
    """A grid campaign: ground models x waves x methods x resolutions.

    Every combination becomes one :class:`CampaignCell` running
    ``cases`` ensemble members for ``steps`` time steps through
    :func:`repro.core.methods.run_method`.
    """

    name: str
    models: tuple[str, ...]
    waves: tuple[WaveSpec, ...]
    methods: tuple[str, ...]
    resolutions: tuple[tuple[int, int, int], ...] = ((2, 2, 1),)
    cases: int = 2
    steps: int = 8
    module: str = "single-gh200"
    seed: int = 0
    eps: float = 1e-8
    s_min: int = 2
    s_max: int = 8
    #: The swept values of each :data:`~repro.campaign.axes.AXES` row
    #: (what each axis means, and the content-addition rule that keeps
    #: default-valued cells on their pre-axis hash, is documented
    #: there).  Methods an axis does not apply to — ``nparts`` fans out
    #: only over the partitionable ones — ignore it and run once, so a
    #: grid can compare the distributed solve against the baselines in
    #: one campaign.
    nparts: tuple[int, ...] = (AXIS["nparts"].default,)
    precision: tuple[str, ...] = (AXIS["precision"].default,)
    scenarios: tuple[str, ...] = (AXIS["scenario"].default,)
    predictors: tuple[str, ...] = (AXIS["predictor"].default,)

    def __post_init__(self) -> None:
        object.__setattr__(self, "models", tuple(self.models))
        object.__setattr__(
            self,
            "waves",
            tuple(
                w if isinstance(w, WaveSpec) else WaveSpec.from_dict(dict(w))
                for w in self.waves
            ),
        )
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(
            self,
            "resolutions",
            tuple(tuple(int(x) for x in res) for res in self.resolutions),
        )
        if not (self.models and self.waves and self.methods and self.resolutions):
            raise ValueError("campaign grid has an empty axis")
        # a repeated entry would run one cell twice under one label (a
        # wave name is its label and seed) and double-weight it in every
        # aggregate
        for noun, values in (
            ("model", self.models),
            ("wave name", tuple(w.name for w in self.waves)),
            ("method", self.methods),
            ("resolution", self.resolutions),
        ):
            if len(set(values)) != len(values):
                raise ValueError(f"duplicate {noun} entries")
        for m in self.models:
            if m not in GROUND_MODELS:
                raise ValueError(f"unknown ground model {m!r}")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}; choose from {METHODS}")
        for res in self.resolutions:
            if len(res) != 3 or any(x < 1 for x in res):
                raise ValueError(f"bad resolution {res!r}")
        module_by_name(self.module)  # typos fail at spec time, loudly
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.cases < 1:
            raise ValueError("cases must be >= 1")
        if any(m in HETEROGENEOUS_METHODS for m in self.methods) and (
            self.cases < 2 or self.cases % 2
        ):
            raise ValueError(
                "heterogeneous methods need an even case count >= 2"
            )
        for ax in AXES:
            values = tuple(ax.coerce(v) for v in getattr(self, ax.field))
            object.__setattr__(self, ax.field, values)
            if not values:
                raise ValueError("campaign grid has an empty axis")
            for v in values:
                if v != ax.default:
                    ax.validate(v)
            if len(set(values)) != len(values):
                raise ValueError(f"duplicate {ax.noun} entries")
            if values != (ax.default,) and not any(
                map(ax.applies, self.methods)
            ):
                # worded for nparts, the one axis that applies to some
                # methods only
                takers = ", ".join(filter(ax.applies, METHODS))
                raise ValueError(
                    f"{ax.key} > {ax.default} needs at least one "
                    f"partitionable method ({takers})"
                )

    def _swept(self, ax, method: str) -> tuple:
        """The values of one axis one method expands over (methods the
        axis does not apply to run once, at the default)."""
        return getattr(self, ax.field) if ax.applies(method) else (ax.default,)

    @property
    def n_cells(self) -> int:
        return (
            len(self.models)
            * len(self.waves)
            * len(self.resolutions)
            * sum(
                math.prod(len(self._swept(ax, m)) for ax in AXES)
                for m in self.methods
            )
        )

    def cells(self) -> list[CampaignCell]:
        """Expand the grid in deterministic order.

        The expansion is made once per spec; each call returns a fresh
        list over the same (read-only) cells, so a cell's content hash
        is computed once over the spec's lifetime.
        """
        return list(self._cells)

    @functools.cached_property
    def _cells(self) -> tuple[CampaignCell, ...]:
        fixed = dict(
            cases=self.cases, steps=self.steps, module=self.module,
            eps=self.eps, s_min=self.s_min, s_max=self.s_max, seed=self.seed,
        )
        # axes the spec leaves at their default take no part: the
        # common all-default grid expands as if they did not exist
        active = [ax for ax in AXES if getattr(self, ax.field) != (ax.default,)]
        keys = [ax.key for ax in active]
        swept = {m: [self._swept(ax, m) for ax in active] for m in self.methods}
        out: list[CampaignCell] = []
        for model, wave, method, res in itertools.product(
            self.models, self.waves, self.methods, self.resolutions
        ):
            for combo in itertools.product(*swept[method]):
                params, label = method_cell_params(
                    model, wave, method, res, **fixed, **dict(zip(keys, combo))
                )
                out.append(
                    CampaignCell(kind="method", params=params, label=label)
                )
        return tuple(out)

    # -- (de)serialization --------------------------------------------
    def to_dict(self) -> dict:
        # every other field is a scalar or a tuple of scalars: shared,
        # not deep-copied (the manifest builds this once per pass)
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["waves"] = [w.to_dict() for w in self.waves]
        d["resolutions"] = [list(r) for r in self.resolutions]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "CampaignSpec":
        d = dict(d)
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown campaign spec keys {sorted(unknown)}")
        return cls(**d)

    def to_json(self, path) -> pathlib.Path:
        return atomic_write_text(
            pathlib.Path(path), json.dumps(self.to_dict(), indent=1)
        )

    @classmethod
    def from_json(cls, path) -> "CampaignSpec":
        return cls.from_dict(json.loads(pathlib.Path(path).read_text()))
