"""Campaign ``preconditioners`` axis: hash stability, expansion, execution.

Same content-addition discipline as the ``nparts`` / ``precision``
axes: introducing the preconditioner axis must never re-key — and
therefore never recompute — any previously cached cell.  The default
block-Jacobi family leaves cell params untouched; only ``twogrid``
cells carry a ``"precond"`` entry and a ``/twogrid`` label suffix.
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
from repro.sparse.precond import DEFAULT_PRECONDITIONER


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


def test_precond_axis_expands_cells():
    spec = make_spec(preconditioners=("bj", "twogrid"))
    cells = spec.cells()
    assert spec.n_cells == 2 * 2 == len(cells)
    assert len({c.key for c in cells}) == len(cells)
    labels = [c.label for c in cells if c.params.get("precond")]
    assert labels and all(label.endswith("/twogrid") for label in labels)


def test_default_precond_keeps_pre_axis_cell_hash():
    """Adding the axis must not invalidate cached block-Jacobi cells:
    the default family leaves the cell params (and hash) untouched."""
    base = make_spec()
    grown = make_spec(preconditioners=("bj", "twogrid"))
    base_keys = {c.label: c.key for c in base.cells()}
    for cell in grown.cells():
        if "precond" not in cell.params:
            assert cell.key == base_keys[cell.label]
        else:
            assert cell.key not in base_keys.values()
    # the cell seed is precond-independent: both families solve
    # identical physics on identical random draws
    seeds = {c.params["seed"] for c in grown.cells()}
    assert len(seeds) == len(base.cells())


def test_precond_axis_composes_with_other_axes():
    spec = make_spec(
        nparts=(1, 2), precision=("fp64", "fp21"),
        preconditioners=("bj", "twogrid"),
    )
    cells = spec.cells()
    assert spec.n_cells == 2 * 2 * 2 * 2 == len(cells)  # waves x np x fp x pc
    combos = {
        (c.params.get("nparts", 1), c.params.get("precision", "fp64"),
         c.params.get("precond", "bj"))
        for c in cells
    }
    assert len(combos) == 8


def test_precond_validation():
    with pytest.raises(ValueError, match="unknown preconditioner"):
        make_spec(preconditioners=("bj", "ilu"))
    with pytest.raises(ValueError):
        make_spec(preconditioners=())
    with pytest.raises(ValueError, match="duplicate"):
        make_spec(preconditioners=("twogrid", "twogrid"))


def test_precond_roundtrips_through_json(tmp_path):
    spec = make_spec(preconditioners=("bj", "twogrid"))
    path = spec.to_json(tmp_path / "spec.json")
    again = CampaignSpec.from_json(path)
    assert again.preconditioners == ("bj", "twogrid")
    assert [c.key for c in again.cells()] == [c.key for c in spec.cells()]


def test_method_cell_params_precond_is_content_addition():
    kw = dict(cases=2, steps=4, module="single-gh200", eps=1e-8,
              s_min=2, s_max=8, seed=0)
    wave = default_waves(1)[0]
    p_default, l_default = method_cell_params(
        "stratified", wave, "ebe-mcg@cpu-gpu", (2, 2, 1), **kw)
    p_named, l_named = method_cell_params(
        "stratified", wave, "ebe-mcg@cpu-gpu", (2, 2, 1),
        precond=DEFAULT_PRECONDITIONER, **kw)
    assert p_default == p_named and "precond" not in p_default
    assert l_default == l_named
    p_new, l_new = method_cell_params(
        "stratified", wave, "ebe-mcg@cpu-gpu", (2, 2, 1),
        precond="twogrid", **kw)
    assert p_new["precond"] == "twogrid"
    assert l_new.endswith("/twogrid")
    assert p_new["seed"] == p_default["seed"]
    with pytest.raises(ValueError, match="unknown preconditioner"):
        method_cell_params("stratified", wave, "ebe-mcg@cpu-gpu", (2, 2, 1),
                           precond="ilu", **kw)


# ------------------------------------------------------------- execution
def test_executor_treats_explicit_default_precond_identically():
    """A cell that *names* block-Jacobi computes bit-identical results
    to the pre-axis cell that omits it."""
    spec = make_spec(waves=default_waves(1), cases=2, steps=3)
    params = spec.cells()[0].params
    implicit = run_method_cell(dict(params))
    explicit = run_method_cell({**params, "precond": "bj"})
    assert implicit == explicit


def test_precond_cells_execute_and_cache(tmp_path):
    """An axis campaign (bj + twogrid) runs end-to-end: the two-grid
    member converges in strictly fewer CG iterations per step, and both
    cells cache under distinct keys."""
    store = ResultStore(tmp_path / "store")
    runner = CampaignRunner(store=store, jobs=1)
    spec = make_spec(waves=default_waves(1), cases=2, steps=3,
                     preconditioners=("bj", "twogrid"))
    rep = runner.run(spec)
    assert rep.n_failed == 0 and rep.n_computed == 2
    bj, tg = [o.result for o in rep.outcomes]
    assert (tg["summary"]["iterations_per_step"]
            < bj["summary"]["iterations_per_step"])
    # re-run: both served from cache
    rep2 = runner.run(spec)
    assert rep2.n_cached == 2 and rep2.n_computed == 0
