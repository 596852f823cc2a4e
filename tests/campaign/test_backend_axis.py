"""Campaign ``backends`` axis: hash stability, expansion, execution.

Same content-addition discipline as the ``nparts`` / ``precision`` /
``scenarios`` axes: introducing the execution-backend axis must never
re-key — and therefore never recompute — any previously cached cell.
The axis-generic checks (composition, validation, the ambient
``REPRO_BACKEND`` and unavailable-engine cases) are rows of
``test_axes.py``; this module keeps the backend-specific spellings.
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
from repro.sparse.backend import DEFAULT_BACKEND


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


def test_backend_axis_expands_cells():
    spec = make_spec(models=("stratified",),
                     backends=("numpy", "numpy-blocked"))
    cells = spec.cells()
    assert spec.n_cells == 1 * 2 * 1 * 1 * 2 == len(cells)
    assert len({c.key for c in cells}) == len(cells)
    labels = [c.label for c in cells if c.params.get("backend")]
    assert labels and all(label.endswith("/numpy-blocked") for label in labels)


def test_default_backend_keeps_pre_axis_cell_hash():
    """Adding the backend axis must not invalidate cached numpy cells:
    the default backend leaves the cell params (and hash) untouched."""
    base = make_spec(models=("stratified",))
    grown = make_spec(models=("stratified",),
                      backends=("numpy", "numpy-blocked"))
    base_keys = {c.label: c.key for c in base.cells()}
    for cell in grown.cells():
        if "backend" not in cell.params:
            assert cell.key == base_keys[cell.label]
        else:
            assert cell.key not in base_keys.values()
    # the cell seed is backend-independent: every backend solves
    # identical physics
    seeds = {c.params["seed"] for c in grown.cells()}
    assert len(seeds) == len(base.cells())


def test_backend_roundtrips_through_json(tmp_path):
    spec = make_spec(models=("stratified",),
                     backends=("numpy", "numpy-blocked"))
    path = spec.to_json(tmp_path / "spec.json")
    again = CampaignSpec.from_json(path)
    assert again.backends == ("numpy", "numpy-blocked")
    assert [c.key for c in again.cells()] == [c.key for c in spec.cells()]


def test_method_cell_params_backend_is_content_addition():
    kw = dict(cases=2, steps=4, module="single-gh200", eps=1e-8,
              s_min=2, s_max=8, seed=0)
    wave = default_waves(1)[0]
    p_default, l_default = method_cell_params(
        "stratified", wave, "crs-cg@gpu", (2, 2, 1), **kw)
    p_named, l_named = method_cell_params(
        "stratified", wave, "crs-cg@gpu", (2, 2, 1),
        backend=DEFAULT_BACKEND, **kw)
    assert p_default == p_named and "backend" not in p_default
    assert l_default == l_named
    p_new, l_new = method_cell_params(
        "stratified", wave, "crs-cg@gpu", (2, 2, 1),
        backend="numpy-blocked", **kw)
    assert p_new["backend"] == "numpy-blocked"
    assert l_new.endswith("/numpy-blocked")
    assert p_new["seed"] == p_default["seed"]
    with pytest.raises(ValueError, match="unknown backend"):
        method_cell_params("stratified", wave, "crs-cg@gpu", (2, 2, 1),
                           backend="fortran", **kw)


# ------------------------------------------------------------- execution
def test_executor_treats_explicit_default_backend_identically():
    """A cell that *names* the numpy backend computes bit-identical
    results to the pre-axis cell that omits it."""
    spec = make_spec(models=("stratified",), waves=default_waves(1),
                     cases=1, steps=3)
    params = spec.cells()[0].params
    implicit = run_method_cell(dict(params))
    explicit = run_method_cell({**params, "backend": "numpy"})
    assert implicit == explicit


def test_backend_cells_execute_and_agree(tmp_path):
    """An axis campaign (numpy + numpy-blocked) runs end-to-end; on a
    sub-block-sized problem the modeled observables match exactly, and
    both cells cache under distinct keys."""
    store = ResultStore(tmp_path / "store")
    runner = CampaignRunner(store=store, jobs=1)
    spec = make_spec(models=("stratified",), waves=default_waves(1),
                     cases=1, steps=3,
                     backends=("numpy", "numpy-blocked"))
    rep = runner.run(spec)
    assert rep.n_failed == 0 and rep.n_computed == 2
    ref, blocked = [o.result for o in rep.outcomes]
    assert ref == blocked  # n_dofs << block_rows: bit-identical
    # re-run: both served from cache
    rep2 = runner.run(spec)
    assert rep2.n_cached == 2 and rep2.n_computed == 0
