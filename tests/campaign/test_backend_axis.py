"""Campaign ``backends`` axis: hash stability, expansion, execution.

Same content-addition discipline as the ``nparts`` / ``precision`` /
``scenarios`` axes: introducing the execution-backend axis must never
re-key — and therefore never recompute — any previously cached cell,
and a cell's backend must come from its params (never the
``REPRO_BACKEND`` ambient default: a content-addressed cache cannot
change meaning with the environment).
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


def test_backend_axis_composes_with_other_axes():
    spec = make_spec(
        models=("stratified",), methods=("ebe-mcg@cpu-gpu",),
        nparts=(1, 2), precision=("fp64", "fp21"),
        backends=("numpy", "numpy-blocked"),
    )
    cells = spec.cells()
    assert spec.n_cells == 2 * 2 * 2 * 2 == len(cells)  # waves x np x prec x bk
    combos = {
        (c.params.get("nparts", 1), c.params.get("precision", "fp64"),
         c.params.get("backend", "numpy"))
        for c in cells
    }
    assert len(combos) == 8


def test_backend_validation():
    """Registered-but-unavailable names (numba here) are *valid*
    spec entries — availability is an execution-time concern — while
    unknown names fail at spec time."""
    make_spec(backends=("numpy", "numba"))  # registered though absent
    with pytest.raises(ValueError, match="unknown backend"):
        make_spec(backends=("numpy", "fortran"))
    with pytest.raises(ValueError):
        make_spec(backends=())
    with pytest.raises(ValueError, match="duplicate"):
        make_spec(backends=("numpy", "numpy"))


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


def test_executor_ignores_ambient_backend_env(monkeypatch):
    """The executor takes the backend from the cell params only: with
    ``REPRO_BACKEND`` naming an engine that does not exist, a
    backend-less cell still runs and equals the unset-environment
    result — the environment cannot change what a content hash means.
    (A *registered* name would pass even if some operator of the run
    resolved the ambient engine; an unknown one makes that a
    ``ValueError``.)  One cell per operator family a run can build:
    fused EBE, BCRS, the ``nparts`` partition, the two-grid cycle."""
    hetero = dict(methods=("ebe-mcg@cpu-gpu",), cases=2)
    for over in (
        hetero,
        dict(methods=("crs-cg@cpu",), cases=1),
        dict(hetero, nparts=(2,)),
        dict(hetero, preconditioners=("twogrid",)),
    ):
        spec = make_spec(models=("stratified",), waves=default_waves(1),
                         steps=3, **over)
        params = spec.cells()[0].params
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        reference = run_method_cell(dict(params))
        monkeypatch.setenv("REPRO_BACKEND", "no-such-engine")
        assert run_method_cell(dict(params)) == reference, spec.cells()[0].label


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


def test_unavailable_backend_cell_fails_loudly_not_silently():
    """A cell demanding an absent engine must fail (and say why), never
    silently fall back to numpy and poison the cache."""
    from repro.sparse.backend import available_backend_names

    if "numba" in available_backend_names():  # pragma: no cover
        pytest.skip("numba installed: unavailability cannot be staged")
    spec = make_spec(models=("stratified",), waves=default_waves(1),
                     cases=1, steps=3, backends=("numba",))
    rep = CampaignRunner(store=None, jobs=1).run(spec)
    assert rep.n_failed == 1
    assert "numba" in rep.outcomes[0].error
