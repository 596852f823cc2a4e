"""Campaign runner, store, and aggregation."""

import json

import pytest

from repro.campaign import (
    CampaignCell,
    CampaignRunner,
    CampaignSpec,
    ResultStore,
    default_waves,
    register_executor,
)
from repro.campaign.runner import CELL_EXECUTORS
from repro.io.results import load_campaign_cell, save_campaign_cell


@pytest.fixture()
def tiny_spec():
    return CampaignSpec(
        name="tiny",
        models=("stratified",),
        waves=default_waves(1),
        methods=("crs-cg@gpu",),
        resolutions=((2, 2, 1),),
        cases=1,
        steps=3,
    )


def test_run_and_cache(tiny_spec, tmp_path):
    store = ResultStore(tmp_path / "store")
    r1 = CampaignRunner(store=store, jobs=1).run(tiny_spec)
    assert r1.n_cells == 1 and r1.n_computed == 1 and r1.n_cached == 0
    assert len(store) == 1
    # identical spec -> pure cache hit, result survives the round trip
    r2 = CampaignRunner(store=store, jobs=1).run(tiny_spec)
    assert r2.n_cached == 1 and r2.n_computed == 0
    assert r2.outcomes[0].result == r1.outcomes[0].result
    # manifest written
    manifest = json.loads((store.root / "manifest.json").read_text())
    assert manifest["cells"][0]["key"] == tiny_spec.cells()[0].key


def test_cache_hit_skips_executor(tiny_spec, tmp_path, monkeypatch):
    store = ResultStore(tmp_path / "store")
    CampaignRunner(store=store, jobs=1).run(tiny_spec)

    def boom(params):
        raise AssertionError("executor must not run on a cache hit")

    monkeypatch.setitem(CELL_EXECUTORS, "method", boom)
    rep = CampaignRunner(store=store, jobs=1).run(tiny_spec)
    assert rep.n_cached == 1 and rep.n_failed == 0


def test_process_pool_matches_inline(tiny_spec, tmp_path):
    """jobs=2 produces byte-identical summaries to inline execution."""
    spec = CampaignSpec(
        name="pool",
        models=("stratified", "basin"),
        waves=default_waves(1),
        methods=("crs-cg@gpu",),
        resolutions=((2, 2, 1),),
        cases=1,
        steps=3,
    )
    inline = CampaignRunner(store=None, jobs=1).run(spec)
    pooled = CampaignRunner(store=None, jobs=2).run(spec)
    assert [o.result for o in inline.outcomes] == [o.result for o in pooled.outcomes]


def test_failure_isolated(tmp_path):
    @register_executor("always-fails")
    def _fail(params):
        raise RuntimeError("boom")

    try:
        cells = [
            CampaignCell(kind="always-fails", params={"i": 0}, label="bad"),
        ]
        store = ResultStore(tmp_path / "store")
        outcomes = CampaignRunner(store=store, jobs=1).run_cells(cells)
        assert not outcomes[0].ok
        assert "boom" in outcomes[0].error
        assert len(store) == 0  # failures are never cached
    finally:
        CELL_EXECUTORS.pop("always-fails", None)


def test_unknown_kind_reported():
    outcomes = CampaignRunner(store=None, jobs=1).run_cells(
        [CampaignCell(kind="no-such-kind", params={}, label="x")]
    )
    assert not outcomes[0].ok
    assert "no executor" in outcomes[0].error


def test_report_tables(tiny_spec, tmp_path):
    rep = CampaignRunner(store=ResultStore(tmp_path), jobs=1).run(tiny_spec)
    text = rep.render()
    assert "per-method summary" in text
    assert "crs-cg@gpu" in text
    assert "per-scenario summary" in text
    assert "1 computed" in text
    by_m = rep.by_method()
    assert by_m["crs-cg@gpu"]["n_cells"] == 1
    assert by_m["crs-cg@gpu"]["elapsed_per_step_per_case_s"] > 0
    by_s = rep.by_scenario()
    assert ("impulse", "stratified", "w0") in by_s


def test_report_separates_part_counts(tmp_path):
    """Distributed cells aggregate per part count (method@pN) instead
    of blending nparts=1 and nparts>1 into one meaningless mean."""
    from repro.campaign.spec import CampaignSpec, default_waves

    spec = CampaignSpec(
        name="np", models=("stratified",), waves=default_waves(1),
        methods=("ebe-mcg@cpu-gpu",), resolutions=((2, 2, 1),),
        cases=2, steps=3, module="alps", nparts=(1, 2), s_min=2, s_max=4,
    )
    rep = CampaignRunner(store=ResultStore(tmp_path), jobs=1).run(spec)
    by_m = rep.by_method()
    assert set(by_m) == {"ebe-mcg@cpu-gpu", "ebe-mcg@cpu-gpu@p2"}
    assert all(a["n_cells"] == 1 for a in by_m.values())
    assert "ebe-mcg@cpu-gpu@p2" in rep.render()


def test_store_artifact_schema(tiny_spec, tmp_path):
    store = ResultStore(tmp_path)
    CampaignRunner(store=store, jobs=1).run(tiny_spec)
    key = tiny_spec.cells()[0].key
    doc = load_campaign_cell(store.path_for(key))
    assert doc["key"] == key
    assert doc["kind"] == "method"
    assert doc["params"]["model"] == "stratified"
    assert doc["result"]["summary"]["iterations_per_step"] > 0


def test_campaign_cell_io_validation(tmp_path):
    with pytest.raises(ValueError):
        save_campaign_cell({"key": "k"}, tmp_path / "x.json")
    p = save_campaign_cell(
        {"key": "k", "kind": "method", "params": {}, "result": {"a": 1}},
        tmp_path / "x.json",
    )
    assert load_campaign_cell(p)["result"] == {"a": 1}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": 999}))
    with pytest.raises(ValueError):
        load_campaign_cell(bad)


def test_results_persisted_incrementally(tmp_path):
    """Each cell's artifact lands the moment the cell completes, so an
    interrupted campaign keeps the finished cells; a failure mid-grid
    does not discard earlier results."""
    calls = {"n": 0}

    @register_executor("half-fails")
    def _half(params):
        calls["n"] += 1
        if params["i"] >= 2:
            raise RuntimeError("interrupted")
        return {"i": params["i"]}

    try:
        cells = [
            CampaignCell(kind="half-fails", params={"i": i}, label=f"c{i}")
            for i in range(4)
        ]
        store = ResultStore(tmp_path)
        outcomes = CampaignRunner(store=store, jobs=1).run_cells(cells)
        assert [o.ok for o in outcomes] == [True, True, False, False]
        assert len(store) == 2  # the two successes are on disk
        # re-run: successes are cache hits, only failures re-execute
        calls["n"] = 0
        CampaignRunner(store=store, jobs=1).run_cells(cells)
        assert calls["n"] == 2
    finally:
        CELL_EXECUTORS.pop("half-fails", None)


@pytest.mark.parametrize(
    "garbage",
    ['{"schema": 999}', '{"schema": 1, "key": "k", "trunc'],
    ids=["schema-mismatch", "truncated"],
)
def test_corrupt_artifact_recomputed(tiny_spec, tmp_path, garbage):
    """A half-written (truncated) or schema-mismatched artifact is a
    cache miss, not a crash — the cell recomputes and the artifact
    heals.  One runner and store throughout: the store's index, warm
    from the first cache hit, must not serve the overwritten artifact."""
    store = ResultStore(tmp_path)
    runner = CampaignRunner(store=store, jobs=1)
    first = runner.run(tiny_spec)
    assert runner.run(tiny_spec).n_cached == 1  # now indexed
    key = tiny_spec.cells()[0].key
    store.path_for(key).write_text(garbage)  # in place: same inode
    rep = runner.run(tiny_spec)
    assert rep.n_computed == 1 and rep.n_cached == 0 and rep.n_failed == 0
    healed = runner.run(tiny_spec)
    assert healed.n_cached == 1
    assert healed.outcomes[0].result == first.outcomes[0].result


def test_runner_validates_jobs():
    with pytest.raises(ValueError):
        CampaignRunner(jobs=0)


def test_deterministic_results_across_runs(tiny_spec):
    """Same spec without a store recomputes to identical numbers."""
    a = CampaignRunner(store=None).run(tiny_spec).outcomes[0].result
    b = CampaignRunner(store=None).run(tiny_spec).outcomes[0].result
    assert a["summary"]["iterations_per_step"] == b["summary"]["iterations_per_step"]
