"""Every campaign axis, checked from the one table that declares them.

The content-addition discipline under test: introducing an axis, or
growing it, must never re-key — and therefore never recompute — a
previously cached cell.  The checks are parametrized over
:data:`repro.campaign.axes.AXES`, so a new row is covered the moment it
is added (and :func:`test_every_axis_is_wired` says what else the row
needs).  ``fixtures/axes_parent.json`` pins the cells, study cells and
checkpoint headers the hand-threaded code before the table produced.
"""

import dataclasses
import importlib.util
import inspect
import itertools
import json
import pathlib

import pytest

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    ResultStore,
    default_waves,
)
from repro.campaign.axes import AXES, AXIS
from repro.campaign.runner import run_method_cell
from repro.campaign.spec import METHOD_CELL_KEYS, CampaignCell, method_cell_params
from repro.core.methods import NATIVE_PREDICTORS, RunConfig, run_method

REPO = pathlib.Path(__file__).resolve().parents[2]

#: the one method every axis applies to
METHOD = "ebe-mcg@cpu-gpu"

#: per axis key: a non-default value that executes here, and one the
#: validator must reject with the message fragment given
SAMPLES = {
    "scenario": ("soft-soil", "marsquake", "unknown scenario"),
    "nparts": (2, 0, "nparts entries must be >= 1"),
    "precision": ("fp21", "fp8", "unknown precision"),
    "predictor": ("aitken", "broyden", "unknown predictor"),
}

axes = pytest.mark.parametrize("ax", AXES, ids=[ax.key for ax in AXES])


def make_spec(**over):
    kw = dict(
        name="t",
        models=("stratified",),
        waves=default_waves(2),
        methods=(METHOD,),
        resolutions=((2, 2, 1),),
        cases=2,
        steps=4,
    )
    kw.update(over)
    return CampaignSpec(**kw)


def swept(ax):
    """``{field: (default, sample)}`` for one axis."""
    return {ax.field: (ax.default, SAMPLES[ax.key][0])}


def test_every_axis_is_wired():
    """One row needs: a sample here, a ``CampaignSpec`` field defaulting
    to the axis default alone, and — when the solver consumes it — a
    ``run_method`` keyword and ``RunConfig`` field of the same name."""
    assert set(SAMPLES) == set(AXIS)
    fields = {f.name: f.default for f in dataclasses.fields(CampaignSpec)}
    run_keywords = inspect.signature(run_method).parameters
    config_fields = {f.name for f in dataclasses.fields(RunConfig)}
    for ax in AXES:
        assert fields[ax.field] == (ax.default,), ax.key
        if ax.solver:
            assert ax.key in run_keywords and ax.key in config_fields, ax.key


@axes
def test_axis_expands_cells(ax):
    spec = make_spec(**swept(ax))
    cells = spec.cells()
    assert spec.n_cells == 2 * 2 == len(cells)  # waves x axis
    assert len({c.key for c in cells}) == len(cells)
    suffix = "/" + ax.label.format(SAMPLES[ax.key][0])
    labels = [c.label for c in cells if ax.key in c.params]
    assert len(labels) == 2 and all(lb.endswith(suffix) for lb in labels)


@axes
def test_default_keeps_pre_axis_cell_hash(ax):
    """Adding the axis must not invalidate cached cells: the default
    leaves the cell params (and hash) untouched."""
    base = make_spec()
    grown = make_spec(**swept(ax))
    base_keys = {c.label: c.key for c in base.cells()}
    for cell in grown.cells():
        if ax.key not in cell.params:
            assert cell.key == base_keys[cell.label]
        else:
            assert cell.key not in base_keys.values()
    # the cell seed is axis-independent: a sweep compares identical
    # random draws
    seeds = {c.params["seed"] for c in grown.cells()}
    assert len(seeds) == len(base.cells())


@pytest.mark.parametrize(
    "a, b", list(itertools.combinations(AXES, 2)),
    ids=lambda ax: ax.key,
)
def test_axes_compose_pairwise(a, b):
    spec = make_spec(**swept(a), **swept(b))
    cells = spec.cells()
    assert spec.n_cells == 2 * 2 * 2 == len(cells)  # waves x a x b
    assert len({(a.of(c.params), b.of(c.params)) for c in cells}) == 4


def test_all_axes_compose_at_once():
    spec = make_spec(**{k: v for ax in AXES for k, v in swept(ax).items()})
    cells = spec.cells()
    assert spec.n_cells == 2 * 2 ** len(AXES) == len(cells)
    assert len({c.key for c in cells}) == len(cells)
    assert len({tuple(ax.of(c.params) for ax in AXES) for c in cells}) == (
        2 ** len(AXES)
    )


def test_axis_skipped_by_methods_it_does_not_apply_to():
    """A mixed grid fans an axis only over the methods it applies to;
    the others run once, at the default."""
    for ax in AXES:
        skipping = [m for m in NATIVE_PREDICTORS if not ax.applies(m)][:1]
        spec = make_spec(methods=(METHOD, *skipping), **swept(ax))
        assert spec.n_cells == len(spec.cells()) == 2 * (2 + len(skipping))
        for cell in spec.cells():
            if cell.params["method"] != METHOD:
                assert ax.key not in cell.params


@axes
def test_axis_validation(ax):
    _, bad, message = SAMPLES[ax.key]
    with pytest.raises(ValueError, match=message):
        make_spec(**{ax.field: (ax.default, bad)})
    with pytest.raises(ValueError, match="empty axis"):
        make_spec(**{ax.field: ()})
    # one uniform rule; nparts was the axis without it
    value = SAMPLES[ax.key][0]
    with pytest.raises(ValueError, match=f"duplicate {ax.noun} entries"):
        make_spec(**{ax.field: (value, value)})


@axes
def test_axis_roundtrips_through_json(ax, tmp_path):
    spec = make_spec(**swept(ax))
    again = CampaignSpec.from_json(spec.to_json(tmp_path / "spec.json"))
    assert getattr(again, ax.field) == getattr(spec, ax.field)
    assert again == spec
    assert [c.key for c in again.cells()] == [c.key for c in spec.cells()]


@axes
def test_method_cell_params_is_content_addition(ax):
    kw = dict(cases=2, steps=4, module="single-gh200", eps=1e-8,
              s_min=2, s_max=8, seed=0)
    wave = default_waves(1)[0]
    args = ("stratified", wave, METHOD, (2, 2, 1))
    value, bad, message = SAMPLES[ax.key]
    p_default, l_default = method_cell_params(*args, **kw)
    p_named, l_named = method_cell_params(*args, **{ax.key: ax.default}, **kw)
    assert p_default == p_named and ax.key not in p_default
    assert l_default == l_named
    p_new, l_new = method_cell_params(*args, **{ax.key: value}, **kw)
    assert p_new[ax.key] == value
    assert l_new == l_default + "/" + ax.label.format(value)
    assert p_new["seed"] == p_default["seed"]
    assert list(p_new) == [*p_default, ax.key]
    with pytest.raises(ValueError, match=message):
        method_cell_params(*args, **{ax.key: bad}, **kw)


def test_method_cell_params_rejects_unknown_axes():
    with pytest.raises(TypeError, match="unknown campaign axes"):
        method_cell_params(
            "stratified", default_waves(1)[0], METHOD, (2, 2, 1), cases=2,
            steps=4, module="single-gh200", eps=1e-8, s_min=2, s_max=8,
            seed=0, precond="bj",
        )


# ------------------------------------------------------------- execution
@axes
def test_executor_treats_explicit_default_identically(ax):
    """A cell that *names* the default computes bit-identical results
    to the pre-axis cell that omits it; for the predictor so does
    naming the method's native one."""
    spec = make_spec(waves=default_waves(1), steps=3)
    params = spec.cells()[0].params
    implicit = run_method_cell(dict(params))
    assert run_method_cell({**params, ax.key: ax.default}) == implicit
    if ax.key == "predictor":
        named = {**params, ax.key: NATIVE_PREDICTORS[METHOD]}
        assert run_method_cell(named) == implicit


@axes
def test_axis_cells_execute_and_cache(ax, tmp_path):
    """A two-value sweep runs end to end, each cell under its own key;
    a second run is all cache hits."""
    runner = CampaignRunner(store=ResultStore(tmp_path / "store"), jobs=1)
    spec = make_spec(waves=default_waves(1), steps=3, **swept(ax))
    rep = runner.run(spec)
    assert rep.n_failed == 0 and rep.n_computed == 2
    for o in rep.outcomes:
        assert o.result["summary"]["iterations_per_step"] > 0
    variants = set(rep.by_method())
    if ax.solver:  # solver axes name a method variant; the scenario does not
        assert variants == {
            METHOD, f"{METHOD}@{ax.label.format(SAMPLES[ax.key][0])}"
        }
    else:
        assert variants == {METHOD}
    again = runner.run(spec)
    assert again.n_cached == 2 and again.n_computed == 0


def _parent_fixture():
    """The fixture tool, and the fixture it wrote, split into the cells
    the axes still produce and the cells of the retired ``backend`` and
    ``precond`` axes (their params carry a key no axis reads any
    more)."""
    spec = importlib.util.spec_from_file_location(
        "axes_fixture", REPO / "tools" / "axes_fixture.py"
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    text = tool.FIXTURE.read_text()
    parent = json.loads(text)
    retired = [c for c in parent["cells"]
               if c[2].keys() - AXIS.keys() - METHOD_CELL_KEYS]
    kept = [c for c in parent["cells"] if c not in retired]
    return tool, text, parent, kept, retired


def test_executor_refuses_params_it_does_not_know(tmp_path):
    """A key outside the cell schema and the axis table — a retired
    axis, a typo — is a loud ``ValueError``, never a run that ignores
    it: through the runner the cell fails and nothing is cached under
    a key that names what was not computed."""
    *_, retired = _parent_fixture()
    params = make_spec(waves=default_waves(1), steps=3).cells()[0].params
    store = ResultStore(tmp_path / "store")
    for bad in (retired[0][2], {**params, "precondition": "bj"}):
        with pytest.raises(ValueError, match="unknown method-cell params"):
            run_method_cell(bad)
        cell = CampaignCell(kind="method", params=bad)
        [outcome] = CampaignRunner(store=store, jobs=1).run_cells([cell])
        assert not outcome.ok and "unknown method-cell params" in outcome.error
        assert not store.has(cell.key)


# --------------------------------------------------- the parent's bytes
def test_cells_studies_and_headers_match_the_parent_commit():
    """Cell labels, keys, params (key order included), the study cell
    builders' output and the checkpoint headers (key order included)
    are what the per-axis code before the table produced — byte for
    byte, bar what carries a retired axis value: the cells of the
    ``backend`` and ``precond`` axes, which the executor refuses, the
    ``twogrid`` study and the two-grid runs' headers, which a resume
    refuses (:func:`test_pinned_twogrid_header_does_not_resume`)."""
    tool, text, parent, kept, retired = _parent_fixture()
    assert tool.dumps(parent) == text  # the layout round-trips the file
    assert (len(retired), len(kept)) == (120, 40)
    studies = {k: v for k, v in parent["studies"].items() if k != "twogrid"}
    headers = {k: v for k, v in parent["checkpoint_headers"].items()
               if "/twogrid/" not in k}
    assert (len(studies), len(headers)) == (4, 13)
    assert tool.dumps(tool.build()) == tool.dumps(
        {"cells": kept, "studies": studies, "checkpoint_headers": headers})
    for _, _, params in retired:
        with pytest.raises(ValueError, match="unknown method-cell params"):
            run_method_cell(params)


def test_pinned_twogrid_header_does_not_resume():
    """A checkpoint a two-grid run wrote names ``precond`` in its
    header; no run takes that parameter any more, so resuming from it
    is a loud ``ValueError`` naming the key — never a silent
    block-Jacobi continuation.  The pinned header is given a real
    state (a block-Jacobi run's, same method and step) so nothing but
    the header can be what is refused."""
    from repro.workloads.scenario import scenario_by_name

    *_, parent, _, _ = _parent_fixture()
    pinned = parent["checkpoint_headers"]["ebe-mcg@cpu-gpu/twogrid/auto"][0]
    doc = dict(pinned)
    assert doc["precond"] == "twogrid" and doc["step"] == 1
    scen = scenario_by_name("impulse")()
    problem = scen.build_problem("stratified", (2, 2, 1))
    forces = scen.forces(problem, {}, seed=0, n_cases=2)
    kw = dict(method=METHOD, s_range=(2, 4))
    docs: list[dict] = []
    run_method(problem, forces, nt=3, checkpoint_every=1,
               on_checkpoint=docs.append, **kw)
    doc["state"] = docs[0]["state"]
    with pytest.raises(ValueError, match="'precond'"):
        run_method(problem, forces, nt=3, start_state=doc, **kw)
    # the same document without the retired key resumes
    del doc["precond"]
    run_method(problem, forces, nt=3, start_state=doc, **kw)
