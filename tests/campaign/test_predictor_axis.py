"""Campaign ``predictors`` axis: hash stability, expansion, execution.

Same content-addition discipline as the ``nparts`` / ``precision``
axes: introducing the predictor axis must never
re-key — and therefore never recompute — any previously cached cell.
The default ``auto`` family (method-native pairing) leaves cell params
untouched; only explicitly-named predictors carry a ``"predictor"``
entry and a ``/<name>`` label suffix.
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
from repro.predictor.registry import DEFAULT_PREDICTOR


def make_spec(**over):
    kw = dict(
        name="t",
        models=("stratified",),
        waves=default_waves(2),
        methods=("ebe-mcg@cpu-gpu",),
        resolutions=((2, 2, 1),),
        cases=2,
        steps=4,
    )
    kw.update(over)
    return CampaignSpec(**kw)


def test_predictor_axis_expands_cells():
    spec = make_spec(predictors=("auto", "aitken", "iqn-ils"))
    cells = spec.cells()
    assert spec.n_cells == 2 * 3 == len(cells)
    assert len({c.key for c in cells}) == len(cells)
    labels = [c.label for c in cells if c.params.get("predictor")]
    assert len(labels) == 4
    assert all(
        label.endswith("/aitken") or label.endswith("/iqn-ils")
        for label in labels
    )


def test_default_predictor_keeps_pre_axis_cell_hash():
    """Adding the axis must not invalidate cached cells: the ``auto``
    family leaves the cell params (and hash) untouched."""
    base = make_spec()
    grown = make_spec(predictors=("auto", "aitken"))
    base_keys = {c.label: c.key for c in base.cells()}
    for cell in grown.cells():
        if "predictor" not in cell.params:
            assert cell.key == base_keys[cell.label]
        else:
            assert cell.key not in base_keys.values()
    # the cell seed is predictor-independent: every zoo member
    # integrates identical physics on identical random draws
    seeds = {c.params["seed"] for c in grown.cells()}
    assert len(seeds) == len(base.cells())


def test_predictor_axis_composes_with_other_axes():
    spec = make_spec(
        nparts=(1, 2), precision=("fp64", "fp21"),
        predictors=("auto", "aitken"),
    )
    cells = spec.cells()
    assert spec.n_cells == 2 * 2 * 2 * 2 == len(cells)  # waves x np x prec x pred
    combos = {
        (c.params.get("nparts", 1), c.params.get("precision", "fp64"),
         c.params.get("predictor", "auto"))
        for c in cells
    }
    assert len(combos) == 8


def test_predictor_validation():
    with pytest.raises(ValueError, match="unknown predictor"):
        make_spec(predictors=("auto", "broyden"))
    with pytest.raises(ValueError):
        make_spec(predictors=())
    with pytest.raises(ValueError, match="duplicate"):
        make_spec(predictors=("aitken", "aitken"))


def test_predictor_roundtrips_through_json(tmp_path):
    spec = make_spec(predictors=("auto", "iqn-ils"))
    path = spec.to_json(tmp_path / "spec.json")
    again = CampaignSpec.from_json(path)
    assert again.predictors == ("auto", "iqn-ils")
    assert [c.key for c in again.cells()] == [c.key for c in spec.cells()]


def test_method_cell_params_predictor_is_content_addition():
    kw = dict(cases=2, steps=4, module="single-gh200", eps=1e-8,
              s_min=2, s_max=8, seed=0)
    wave = default_waves(1)[0]
    p_default, l_default = method_cell_params(
        "stratified", wave, "ebe-mcg@cpu-gpu", (2, 2, 1), **kw)
    p_named, l_named = method_cell_params(
        "stratified", wave, "ebe-mcg@cpu-gpu", (2, 2, 1),
        predictor=DEFAULT_PREDICTOR, **kw)
    assert p_default == p_named and "predictor" not in p_default
    assert l_default == l_named
    p_new, l_new = method_cell_params(
        "stratified", wave, "ebe-mcg@cpu-gpu", (2, 2, 1),
        predictor="aitken", **kw)
    assert p_new["predictor"] == "aitken"
    assert l_new.endswith("/aitken")
    assert p_new["seed"] == p_default["seed"]
    with pytest.raises(ValueError, match="unknown predictor"):
        method_cell_params("stratified", wave, "ebe-mcg@cpu-gpu", (2, 2, 1),
                           predictor="broyden", **kw)


# ------------------------------------------------------------- execution
def test_executor_treats_explicit_native_predictor_identically():
    """A cell that *names* the method's native predictor computes
    bit-identical results to the pre-axis cell that omits it
    (``data-driven`` is the native pairing for ebe-mcg@cpu-gpu)."""
    spec = make_spec(waves=default_waves(1), cases=2, steps=3)
    params = spec.cells()[0].params
    implicit = run_method_cell(dict(params))
    explicit = run_method_cell({**params, "predictor": "data-driven"})
    assert implicit == explicit


def test_predictor_cells_execute_and_cache(tmp_path):
    """An axis campaign (auto + aitken + iqn-ils) runs end-to-end and
    each cell caches under its own distinct key."""
    store = ResultStore(tmp_path / "store")
    runner = CampaignRunner(store=store, jobs=1)
    spec = make_spec(waves=default_waves(1), cases=2, steps=3,
                     predictors=("auto", "aitken", "iqn-ils"))
    rep = runner.run(spec)
    assert rep.n_failed == 0 and rep.n_computed == 3
    # every cell converged and reports per-step iteration counts
    for o in rep.outcomes:
        assert o.result["summary"]["iterations_per_step"] > 0
    # the explicit zoo rows surface in the aggregation under their
    # variant names, the auto row under the plain method name
    variants = set(rep.by_method())
    assert {"ebe-mcg@cpu-gpu", "ebe-mcg@cpu-gpu@aitken",
            "ebe-mcg@cpu-gpu@iqn-ils"} <= variants
    # re-run: all served from cache
    rep2 = runner.run(spec)
    assert rep2.n_cached == 3 and rep2.n_computed == 0
