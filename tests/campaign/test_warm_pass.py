"""A warm campaign pass: only what a cache hit needs, and no stale hit.

Gates on a store filled by one cold pass: a repeated warm pass writes
nothing, parses nothing, hashes nothing and renders what the first
warm pass rendered.  Invalidation: whatever another store, another
campaign or a deleting/truncating hand does to the files is seen on
the next pass — the store's index is checked against each artifact's
``(st_ino, st_size, st_mtime_ns)`` on every probe.
"""

import json
import os
import shutil

import pytest

import repro.campaign.spec as spec_mod
import repro.campaign.store as store_mod
import repro.io.results as results_io
from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    ResultStore,
    default_waves,
)
from repro.campaign.runner import CELL_EXECUTORS

#: CI sets REPRO_TEST_START_METHOD=spawn to re-run this module with the
#: pool on the spawn start method; unset, the platform default.
POOL_START = os.environ.get("REPRO_TEST_START_METHOD") or None


def make_spec(**over):
    kw = dict(
        name="warm",
        models=("stratified", "basin"),
        waves=default_waves(2),
        methods=("crs-cg@gpu",),
        resolutions=((2, 2, 1),),
        cases=1,
        steps=3,
    )
    kw.update(over)
    return CampaignSpec(**kw)


@pytest.fixture(scope="module")
def cold_root(tmp_path_factory):
    """A store root filled by one cold pass; each test gets a copy."""
    root = tmp_path_factory.mktemp("cold") / "store"
    rep = CampaignRunner(store=ResultStore(root), jobs=1).run(make_spec())
    assert rep.n_computed == 4 and rep.n_failed == 0
    return root


@pytest.fixture()
def root(cold_root, tmp_path):
    return shutil.copytree(cold_root, tmp_path / "store")


def tree(root):
    """``(path, st_ino, st_mtime_ns)`` of everything under ``root``."""
    out = set()
    for p in root.rglob("*"):
        st = p.stat()
        out.add((str(p), st.st_ino, st.st_mtime_ns))
    return out


def manifest_state(root):
    path = root / "manifest.json"
    return path.stat().st_ino, path.read_bytes()


def counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


# ------------------------------------------------------------- gates
def test_second_warm_pass_writes_nothing(root):
    runner = CampaignRunner(store=ResultStore(root), jobs=1)
    spec = make_spec()
    runner.run(spec).render()
    before = tree(root)
    rep = runner.run(spec)
    rep.render()
    assert rep.n_cached == rep.n_cells == 4
    assert tree(root) == before


def test_second_warm_pass_parses_no_artifact(root, monkeypatch):
    runner = CampaignRunner(store=ResultStore(root), jobs=1)
    spec = make_spec()
    loads = counting(monkeypatch, store_mod, "load_campaign_cell")
    runner.run(spec)
    assert len(loads) == 4  # a new store instance reads each artifact once
    del loads[:]
    also = counting(monkeypatch, results_io, "load_campaign_cell")
    runner.run(spec).render()
    assert loads == [] and also == []


def test_cell_key_runs_once_per_cell(root, monkeypatch):
    hashes = counting(monkeypatch, spec_mod, "cell_key")
    spec = make_spec()
    cells = spec.cells()
    assert hashes == []  # expanding the grid hashes nothing
    assert spec.cells() == cells and spec.cells() is not spec.cells()
    runner = CampaignRunner(store=ResultStore(root), jobs=1)
    for _ in range(3):
        runner.run(spec).render()
    assert len(hashes) == spec.n_cells == 4


def test_warm_reports_are_stable(root):
    runner = CampaignRunner(store=ResultStore(root), jobs=1)
    spec = make_spec()
    first = runner.run(spec)
    text, by_method = first.render(), repr(first.by_method())
    again = runner.run(spec)
    assert again.render() == text
    assert repr(again.by_method()) == by_method  # NaN-safe: s_used of CG


def test_shared_results_are_never_mutated(root):
    """Every indexed doc still equals a fresh parse of its file after
    the reports rendered from it: nothing in the package writes into a
    shared result."""
    store = ResultStore(root)
    runner = CampaignRunner(store=store, jobs=1)
    spec = make_spec()
    for _ in range(2):
        rep = runner.run(spec)
        rep.render()
        rep.by_precision()
        rep.rows()
    for cell in spec.cells():
        doc = store.load(cell.key)
        assert doc is store.load(cell.key)  # served from the index
        assert doc == json.loads(store.path_for(cell.key).read_text())


# ------------------------------------------------------ invalidation
def test_replace_by_another_store_is_seen(root):
    runner = CampaignRunner(store=ResultStore(root), jobs=1)
    spec = make_spec()
    runner.run(spec)
    cell = spec.cells()[1]
    other = ResultStore(root)
    doc = other.load(cell.key)
    other.save(cell, {**doc["result"], "marker": 7})
    rep = runner.run(spec)
    assert rep.n_cached == 4
    assert rep.outcomes[1].result["marker"] == 7
    assert all("marker" not in o.result for i, o in enumerate(rep.outcomes)
               if i != 1)


def test_deleted_artifact_recomputes(root):
    runner = CampaignRunner(store=ResultStore(root), jobs=1)
    spec = make_spec()
    ref = runner.run(spec)
    key = spec.cells()[2].key
    runner.store.path_for(key).unlink()
    rep = runner.run(spec)
    assert rep.n_computed == 1 and rep.n_cached == 3
    assert rep.outcomes[2].result == ref.outcomes[2].result
    assert runner.store.path_for(key).exists()
    assert runner.run(spec).n_cached == 4


def test_manifest_in_progress_while_a_miss_computes(root, monkeypatch):
    runner = CampaignRunner(store=ResultStore(root), jobs=1)
    spec = make_spec()
    runner.run(spec)
    runner.store.path_for(spec.cells()[0].key).unlink()
    real = CELL_EXECUTORS["method"]
    seen = []

    def reading(params, ctx=None):
        seen.append(runner.store.load_manifest())
        return real(params, ctx=ctx)

    monkeypatch.setitem(CELL_EXECUTORS, "method", reading)
    rep = runner.run(spec)
    assert rep.n_computed == 1
    [during] = seen
    assert during["in_progress"] is True
    assert [c["status"] for c in during["cells"]] == ["pending"] * 4
    after = runner.store.load_manifest()
    assert after["in_progress"] is False
    assert [c["status"] for c in after["cells"]] == ["done", *["cached"] * 3]


def test_all_hit_pass_keeps_the_manifest(root):
    runner = CampaignRunner(store=ResultStore(root), jobs=1)
    spec = make_spec()
    runner.run(spec)  # cold statuses -> cached statuses: one rewrite
    before = manifest_state(root)
    assert json.loads(before[1])["cells"][0]["status"] == "cached"
    for _ in range(2):
        runner.run(spec)
        assert manifest_state(root) == before


def test_manifest_rewritten_by_another_spec_is_rewritten(root):
    runner = CampaignRunner(store=ResultStore(root), jobs=1)
    spec = make_spec()
    runner.run(spec)
    subset = make_spec(name="subset", models=("basin",))
    assert CampaignRunner(store=ResultStore(root), jobs=1).run(
        subset
    ).n_cached == 2
    assert json.loads(manifest_state(root)[1])["spec"]["name"] == "subset"
    runner.run(spec)
    manifest = json.loads(manifest_state(root)[1])
    assert manifest["spec"]["name"] == "warm"
    assert len(manifest["cells"]) == 4


def test_pool_workers_publish_into_a_warm_index(root):
    """Artifacts published by pool workers (their own store instances)
    are picked up by the parent's warm index on the next pass."""
    runner = CampaignRunner(store=ResultStore(root), jobs=2,
                            mp_start_method=POOL_START)
    spec = make_spec()
    ref = runner.run(spec)
    for cell in spec.cells()[:2]:
        runner.store.path_for(cell.key).unlink()
    rep = runner.run(spec)
    assert rep.n_computed == 2 and rep.n_cached == 2
    again = runner.run(spec)
    assert again.n_cached == 4
    assert [o.result for o in again.outcomes] == [o.result for o in ref.outcomes]
