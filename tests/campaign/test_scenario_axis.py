"""Campaign ``scenarios`` axis: hash stability, expansion, caching.

The content-addition discipline under test: introducing the scenario
axis (or growing it) must never re-key — and therefore never
recompute — any previously cached cell, exactly like the ``nparts``
and ``precision`` axes before it.
"""

import pytest

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    ResultStore,
    default_waves,
)
from repro.campaign.runner import run_method_cell
from repro.campaign.spec import method_cell_params
from repro.workloads.scenario import DEFAULT_SCENARIO


def make_spec(**over):
    kw = dict(
        name="t",
        models=("stratified", "basin"),
        waves=default_waves(2),
        methods=("crs-cg@gpu",),
        resolutions=((2, 2, 1),),
        cases=2,
        steps=4,
    )
    kw.update(over)
    return CampaignSpec(**kw)


def test_scenario_axis_expands_cells():
    spec = make_spec(models=("stratified",),
                     scenarios=("impulse", "soft-soil", "aftershocks"))
    cells = spec.cells()
    assert spec.n_cells == 1 * 2 * 1 * 1 * 3 == len(cells)
    assert len({c.key for c in cells}) == len(cells)
    labels = [c.label for c in cells if c.params.get("scenario")]
    assert labels and all(
        label.endswith(("/soft-soil", "/aftershocks")) for label in labels
    )


def test_default_scenario_keeps_pre_axis_cell_hash():
    """Adding the scenario axis must not invalidate cached impulse
    cells: the default scenario leaves the cell params (and hash)
    untouched."""
    base = make_spec(models=("stratified",))
    grown = make_spec(models=("stratified",),
                      scenarios=("impulse", "fault-rupture"))
    base_keys = {c.label: c.key for c in base.cells()}
    for cell in grown.cells():
        if "scenario" not in cell.params:
            assert cell.key == base_keys[cell.label]
        else:
            assert cell.key not in base_keys.values()
    # the cell seed is scenario-independent: every scenario compares
    # identical random draws
    seeds = {c.params["seed"] for c in grown.cells()}
    assert len(seeds) == len(base.cells())


def test_scenario_axis_composes_with_nparts_and_precision():
    spec = make_spec(
        models=("stratified",), methods=("ebe-mcg@cpu-gpu",),
        nparts=(1, 2), precision=("fp64", "fp21"),
        scenarios=("impulse", "layered-basin"),
    )
    cells = spec.cells()
    assert spec.n_cells == 2 * 2 * 2 * 2 == len(cells)  # waves x np x prec x scen
    combos = {
        (c.params.get("scenario", "impulse"), c.params.get("nparts", 1),
         c.params.get("precision", "fp64"))
        for c in cells
    }
    assert len(combos) == 8


def test_scenario_validation():
    with pytest.raises(ValueError, match="unknown scenario"):
        make_spec(scenarios=("impulse", "marsquake"))
    with pytest.raises(ValueError):
        make_spec(scenarios=())
    with pytest.raises(ValueError, match="duplicate"):
        make_spec(scenarios=("soft-soil", "soft-soil"))


def test_scenario_roundtrips_through_json(tmp_path):
    spec = make_spec(models=("stratified",),
                     scenarios=("impulse", "aftershocks"))
    path = spec.to_json(tmp_path / "spec.json")
    again = CampaignSpec.from_json(path)
    assert again.scenarios == ("impulse", "aftershocks")
    assert [c.key for c in again.cells()] == [c.key for c in spec.cells()]


def test_method_cell_params_scenario_is_content_addition():
    kw = dict(cases=2, steps=4, module="single-gh200", eps=1e-8,
              s_min=2, s_max=8, seed=0)
    wave = default_waves(1)[0]
    p_default, l_default = method_cell_params(
        "stratified", wave, "crs-cg@gpu", (2, 2, 1), **kw)
    p_named, l_named = method_cell_params(
        "stratified", wave, "crs-cg@gpu", (2, 2, 1),
        scenario=DEFAULT_SCENARIO, **kw)
    assert p_default == p_named and "scenario" not in p_default
    assert l_default == l_named
    p_new, l_new = method_cell_params(
        "stratified", wave, "crs-cg@gpu", (2, 2, 1),
        scenario="fault-rupture", **kw)
    assert p_new["scenario"] == "fault-rupture"
    assert l_new.endswith("/fault-rupture")
    assert p_new["seed"] == p_default["seed"]
    with pytest.raises(ValueError, match="unknown scenario"):
        method_cell_params("stratified", wave, "crs-cg@gpu", (2, 2, 1),
                           scenario="marsquake", **kw)


# ------------------------------------------------------------- execution
def test_executor_treats_explicit_default_scenario_identically():
    """A cell that *names* the default scenario computes bit-identical
    results to the pre-axis cell that omits it."""
    spec = make_spec(models=("stratified",), waves=default_waves(1),
                     cases=1, steps=3)
    params = spec.cells()[0].params
    implicit = run_method_cell(dict(params))
    explicit = run_method_cell({**params, "scenario": DEFAULT_SCENARIO})
    assert implicit == explicit


def test_store_cache_survives_axis_introduction(tmp_path):
    """A store filled before the scenario axis existed keeps serving
    its cells afterwards: growing the axis recomputes only the new
    scenarios (the ResultStore regression the axis must not cause)."""
    store = ResultStore(tmp_path / "store")
    runner = CampaignRunner(store=store, jobs=1)
    base = make_spec(models=("stratified",), waves=default_waves(1),
                     cases=1, steps=3)
    r1 = runner.run(base)
    assert r1.n_computed == 1 and r1.n_cached == 0

    grown = make_spec(models=("stratified",), waves=default_waves(1),
                      cases=1, steps=3,
                      scenarios=("impulse", "soft-soil"))
    r2 = runner.run(grown)
    assert r2.n_cells == 2
    assert r2.n_cached == 1 and r2.n_computed == 1
    cached = {o.cell.label: o for o in r2.outcomes}
    impulse = [o for o in r2.outcomes if "scenario" not in o.cell.params][0]
    assert impulse.cached
    assert impulse.result == r1.outcomes[0].result

    # third run: everything cached, nothing recomputed
    r3 = runner.run(grown)
    assert r3.n_cached == 2 and r3.n_computed == 0
    assert cached.keys() == {o.cell.label: o for o in r3.outcomes}.keys()


def test_scenario_cells_differ_numerically():
    """Different scenarios genuinely produce different numbers — the
    axis is physics, not labeling."""
    runner = CampaignRunner(store=None, jobs=1)
    spec = make_spec(models=("stratified",), waves=default_waves(1),
                     cases=1, steps=4,
                     scenarios=("impulse", "soft-soil"))
    rep = runner.run(spec)
    assert rep.n_failed == 0
    a, b = [o.result["summary"] for o in rep.outcomes]
    assert a["achieved_relres"] != b["achieved_relres"]


def test_report_scenario_table_lists_workloads():
    spec = make_spec(models=("stratified",), waves=default_waves(1),
                     cases=1, steps=3,
                     scenarios=("impulse", "layered-basin"))
    rep = CampaignRunner(store=None, jobs=1).run(spec)
    assert rep.n_failed == 0
    by_s = rep.by_scenario()
    assert ("impulse", "stratified", "w0") in by_s
    assert ("layered-basin", "stratified", "w0") in by_s
    text = rep.scenario_table()
    assert "layered-basin" in text and "impulse" in text
