"""Crash-safe campaigns: checkpoint/resume, locks, dedupe, manifests.

The scenarios a real cluster produces: a worker killed mid-cell, a
half-written artifact, two campaigns racing for one store, the same
cell appearing twice in one grid.  The invariants: nothing computes
twice, nothing resumes into wrong numbers silently, and a resumed
campaign's report is bit-identical to one that never crashed.
"""

import json
import os

import pytest

import repro.core.methods as methods_mod
import repro.io.results as results_io
from repro.campaign import (
    CampaignCell,
    CampaignRunner,
    CampaignSpec,
    ResultStore,
    default_waves,
    register_executor,
)
from repro.campaign.runner import CELL_EXECUTORS
from repro.io.golden import canonical, golden_diff
from repro.io.results import _jsonable

#: CI sets REPRO_TEST_START_METHOD=spawn to re-run this module with
#: the pool on the spawn start method (workers re-import everything);
#: unset, the pool uses the platform default (fork on Linux).
POOL_START = os.environ.get("REPRO_TEST_START_METHOD") or None


@pytest.fixture()
def spec():
    return CampaignSpec(
        name="ck",
        models=("stratified",),
        waves=default_waves(1),
        methods=("crs-cg@gpu",),
        resolutions=((2, 2, 1),),
        cases=1,
        steps=6,
    )


def _kill_after_flush(monkeypatch, n_flushes: int = 1):
    """Make run_method die right after its ``n_flushes``-th checkpoint
    flush — the observable effect of a SIGKILL between two flushes
    (state on disk, no artifact)."""
    real = methods_mod.run_method

    def killing(problem, forces, **kw):
        orig_cb = kw.get("on_checkpoint")
        seen = {"n": 0}

        def cb(doc):
            orig_cb(doc)
            seen["n"] += 1
            if seen["n"] >= n_flushes:
                raise RuntimeError("simulated kill")

        if orig_cb is not None:
            kw["on_checkpoint"] = cb
        return real(problem, forces, **kw)

    monkeypatch.setattr(methods_mod, "run_method", killing)
    return real


def _kill_after_first_flush(monkeypatch):
    return _kill_after_flush(monkeypatch, 1)


def test_interrupted_campaign_resumes_from_checkpoint(
    spec, tmp_path, monkeypatch
):
    ref = CampaignRunner(store=ResultStore(tmp_path / "ref"), jobs=1).run(spec)
    key = spec.cells()[0].key

    store = ResultStore(tmp_path / "store")
    real = _kill_after_first_flush(monkeypatch)
    crashed = CampaignRunner(store=store, jobs=1, checkpoint_every=2).run(spec)
    assert crashed.n_failed == 1
    assert "simulated kill" in crashed.outcomes[0].error
    # the dead cell left its state behind, and the manifest says so
    assert store.checkpoint_keys() == [key]
    assert store.load_checkpoint(key)["step"] == 2
    assert len(store) == 0  # no artifact for the unfinished cell
    manifest = store.load_manifest()
    assert manifest["in_progress"] is False
    assert manifest["cells"][0]["status"] == "failed"

    # resume: restarts from step 2, not step 0, and finishes
    monkeypatch.setattr(methods_mod, "run_method", real)
    seen = {}

    def recording(problem, forces, **kw):
        seen["start_state"] = kw.get("start_state")
        return real(problem, forces, **kw)

    monkeypatch.setattr(methods_mod, "run_method", recording)
    resumed = CampaignRunner(store=store, jobs=1, checkpoint_every=2).run(
        spec, resume=True
    )
    assert seen["start_state"] is not None
    assert seen["start_state"]["step"] == 2
    assert resumed.n_computed == 1 and resumed.n_failed == 0
    # bit-identical to the never-crashed reference
    assert golden_diff(
        canonical(ref.outcomes[0].result), canonical(resumed.outcomes[0].result)
    ) == []
    # the checkpoint is consumed, the manifest closes out
    assert store.checkpoint_keys() == []
    assert store.load_manifest()["cells"][0]["status"] == "done"


def test_without_resume_interrupted_cell_restarts_from_zero(
    spec, tmp_path, monkeypatch
):
    store = ResultStore(tmp_path / "store")
    real = _kill_after_first_flush(monkeypatch)
    CampaignRunner(store=store, jobs=1, checkpoint_every=2).run(spec)
    monkeypatch.setattr(methods_mod, "run_method", real)

    seen = {}

    def recording(problem, forces, **kw):
        seen["start_state"] = kw.get("start_state")
        return real(problem, forces, **kw)

    monkeypatch.setattr(methods_mod, "run_method", recording)
    rep = CampaignRunner(store=store, jobs=1).run(spec)  # no resume flag
    assert rep.n_computed == 1
    assert seen["start_state"] is None  # from step 0, checkpoint ignored


def test_multi_flush_journal_merges_on_resume(spec, tmp_path, monkeypatch):
    """A cell killed after several flushes leaves a multi-line journal
    of incremental tails; resume merges it and finishes bit-identical
    to a never-crashed run — the O(1)-bytes-per-step checkpoint path
    end to end."""
    ref = CampaignRunner(store=ResultStore(tmp_path / "ref"), jobs=1).run(spec)
    key = spec.cells()[0].key
    store = ResultStore(tmp_path / "store")
    real = _kill_after_flush(monkeypatch, 2)
    CampaignRunner(store=store, jobs=1, checkpoint_every=2).run(spec)
    lines = store.checkpoint_path(key).read_text().splitlines()
    assert len(lines) == 2  # full head at step 2, tail at step 4
    docs = [json.loads(ln) for ln in lines]
    assert [d["step"] for d in docs] == [2, 4]
    assert "tail_from" not in docs[0]["state"]["state"]
    assert docs[1]["state"]["state"]["tail_from"] == 2
    # only the tail since the previous flush rides in each later line
    assert len(docs[1]["state"]["state"]["records"]) == 2

    merged = store.load_checkpoint(key)
    assert merged["step"] == 4
    assert len(merged["state"]["state"]["records"]) == 4

    monkeypatch.setattr(methods_mod, "run_method", real)
    resumed = CampaignRunner(store=store, jobs=1, checkpoint_every=2).run(
        spec, resume=True
    )
    assert resumed.n_computed == 1 and resumed.n_failed == 0
    assert golden_diff(
        canonical(ref.outcomes[0].result),
        canonical(resumed.outcomes[0].result),
    ) == []
    assert store.checkpoint_keys() == []


def test_resume_after_torn_final_journal_line(spec, tmp_path, monkeypatch):
    """A crash mid-append can only tear the journal's last line: the
    intact prefix resumes, and the compaction rewrite keeps the
    journal clean for the flushes the resumed run appends."""
    ref = CampaignRunner(store=ResultStore(tmp_path / "ref"), jobs=1).run(spec)
    key = spec.cells()[0].key
    store = ResultStore(tmp_path / "store")
    real = _kill_after_flush(monkeypatch, 2)
    CampaignRunner(store=store, jobs=1, checkpoint_every=2).run(spec)
    path = store.checkpoint_path(key)
    intact = path.read_text().splitlines()[0]
    path.write_text(intact + "\n" + '{"schema": 1, "torn')  # no newline

    assert store.load_checkpoint(key)["step"] == 2  # tear discarded
    monkeypatch.setattr(methods_mod, "run_method", real)
    resumed = CampaignRunner(store=store, jobs=1, checkpoint_every=2).run(
        spec, resume=True
    )
    assert resumed.n_computed == 1 and resumed.n_failed == 0
    assert golden_diff(
        canonical(ref.outcomes[0].result),
        canonical(resumed.outcomes[0].result),
    ) == []


def test_torn_mid_journal_line_fails_loudly(spec, tmp_path, monkeypatch):
    """A tear anywhere but the final line is not something an O_APPEND
    crash produces — it means store corruption and must not be
    silently skipped."""
    key = spec.cells()[0].key
    store = ResultStore(tmp_path / "store")
    _kill_after_flush(monkeypatch, 2)
    CampaignRunner(store=store, jobs=1, checkpoint_every=2).run(spec)
    monkeypatch.undo()
    path = store.checkpoint_path(key)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(['{"schema": 1, "torn', *lines[1:]]) + "\n")
    with pytest.raises(ValueError, match="torn"):
        store.load_checkpoint(key)
    rep = CampaignRunner(store=store, jobs=1).run(spec, resume=True)
    assert rep.n_failed == 1 and "torn" in rep.outcomes[0].error


def test_fresh_start_truncates_stale_journal(spec, tmp_path, monkeypatch):
    """Without ``resume``, a leftover journal from an abandoned run is
    dropped before the first flush — appended lines never concatenate
    onto stale history."""
    key = spec.cells()[0].key
    store = ResultStore(tmp_path / "store")
    _kill_after_flush(monkeypatch, 1)
    CampaignRunner(store=store, jobs=1, checkpoint_every=2).run(spec)
    assert store.load_checkpoint(key)["step"] == 2
    # second crashed run WITHOUT resume: journal restarts from scratch
    CampaignRunner(store=store, jobs=1, checkpoint_every=2).run(spec)
    lines = store.checkpoint_path(key).read_text().splitlines()
    assert len(lines) == 1  # not 2: the stale line is gone
    assert json.loads(lines[0])["step"] == 2
    assert "tail_from" not in json.loads(lines[0])["state"]["state"]


def test_resume_with_unreadable_checkpoint_recomputes(spec, tmp_path):
    """A truncated checkpoint is disposable: resume quietly restarts
    the cell from step 0 instead of crashing the campaign."""
    store = ResultStore(tmp_path / "store")
    key = spec.cells()[0].key
    store.checkpoint_dir.mkdir(parents=True, exist_ok=True)
    store.checkpoint_path(key).write_text('{"schema": 1, "trunc')
    rep = CampaignRunner(store=store, jobs=1).run(spec, resume=True)
    assert rep.n_computed == 1 and rep.n_failed == 0


def test_resume_over_empty_journal_starts_from_zero(spec, tmp_path):
    """A kill between the journal's creation and its first write leaves
    a zero-byte file: the cell restarts from step 0 instead of failing."""
    store = ResultStore(tmp_path / "store")
    key = spec.cells()[0].key
    store.checkpoint_dir.mkdir(parents=True, exist_ok=True)
    store.checkpoint_path(key).write_bytes(b"")
    assert store.load_checkpoint(key) is None
    rep = CampaignRunner(store=store, jobs=1, checkpoint_every=2).run(
        spec, resume=True
    )
    assert rep.n_computed == 1 and rep.n_failed == 0
    assert store.checkpoint_keys() == []


def test_schema_1_journal_resumes_bit_identical(spec, tmp_path, monkeypatch):
    """A journal left pending by the float-text encoding (schema 1)
    resumes after the upgrade, under the pool, to the straight run's
    bits."""
    ref = CampaignRunner(store=ResultStore(tmp_path / "ref"), jobs=1).run(spec)
    key = spec.cells()[0].key
    store = ResultStore(tmp_path / "store")

    def schema_1_append(doc, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "a") as fh:
            fh.write(json.dumps({**_jsonable(doc), "schema": 1}) + "\n")

    monkeypatch.setattr(results_io, "append_campaign_checkpoint", schema_1_append)
    _kill_after_flush(monkeypatch, 2)
    CampaignRunner(store=store, jobs=1, checkpoint_every=2).run(spec)
    monkeypatch.undo()
    text = store.checkpoint_path(key).read_text()
    assert [json.loads(ln)["schema"] for ln in text.splitlines()] == [1, 1]
    assert "__nd__" not in text
    assert store.load_checkpoint(key)["step"] == 4

    resumed = CampaignRunner(
        store=store, jobs=2, checkpoint_every=2, mp_start_method=POOL_START,
    ).run(spec, resume=True)
    assert resumed.n_computed == 1 and resumed.n_failed == 0
    assert golden_diff(
        canonical(ref.outcomes[0].result),
        canonical(resumed.outcomes[0].result),
    ) == []
    assert store.checkpoint_keys() == []


def test_resume_with_schema_mismatch_fails_loudly(spec, tmp_path):
    """A checkpoint from an incompatible version must NOT silently
    recompute — it fails the cell with a schema error the operator
    has to acknowledge (by deleting the checkpoint)."""
    store = ResultStore(tmp_path / "store")
    cell = spec.cells()[0]
    store.checkpoint_dir.mkdir(parents=True, exist_ok=True)
    store.checkpoint_path(cell.key).write_text(
        json.dumps(
            {"schema": 999, "key": cell.key, "kind": cell.kind,
             "params": cell.params, "step": 2, "state": {}}
        )
    )
    rep = CampaignRunner(store=store, jobs=1).run(spec, resume=True)
    assert rep.n_failed == 1
    assert "schema" in rep.outcomes[0].error


def test_duplicate_key_cells_computed_once(tmp_path):
    """Two cells with identical params are one computation: the
    result fans out to both indices, the store holds one artifact."""
    calls = {"n": 0}

    @register_executor("dup-count")
    def _count(params):
        calls["n"] += 1
        return {"v": params["v"]}

    try:
        cells = [
            CampaignCell(kind="dup-count", params={"v": 7}, label="a"),
            CampaignCell(kind="dup-count", params={"v": 8}, label="b"),
            CampaignCell(kind="dup-count", params={"v": 7}, label="a2"),
        ]
        assert cells[0].key == cells[2].key
        store = ResultStore(tmp_path)
        outcomes = CampaignRunner(store=store, jobs=1).run_cells(cells)
        assert calls["n"] == 2  # three cells, two unique keys
        assert [o.result["v"] for o in outcomes] == [7, 8, 7]
        assert all(o.ok for o in outcomes)
        assert not outcomes[0].cached and not outcomes[2].cached
        assert len(store) == 2
    finally:
        CELL_EXECUTORS.pop("dup-count", None)


def test_duplicate_key_failure_fans_out(tmp_path):
    """A failing representative marks *every* index of its key."""

    @register_executor("dup-fail")
    def _fail(params):
        raise RuntimeError("boom")

    try:
        cells = [
            CampaignCell(kind="dup-fail", params={}, label="x"),
            CampaignCell(kind="dup-fail", params={}, label="y"),
        ]
        outcomes = CampaignRunner(store=None, jobs=1).run_cells(cells)
        assert [o.ok for o in outcomes] == [False, False]
        assert outcomes[0].error == outcomes[1].error
    finally:
        CELL_EXECUTORS.pop("dup-fail", None)


def test_error_format_identical_inline_and_pool():
    """Satellite regression: the inline and pool paths used to format
    the same failure differently; both now go through one formatter."""

    @register_executor("err-fmt")
    def _fail(params):
        raise RuntimeError("boom with detail")

    try:
        cells = [CampaignCell(kind="err-fmt", params={}, label="x")]
        inline = CampaignRunner(store=None, jobs=1).run_cells(cells)
        pooled = CampaignRunner(store=None, jobs=2).run_cells(cells)
        assert inline[0].error == "RuntimeError: boom with detail"
        assert pooled[0].error == inline[0].error
    finally:
        CELL_EXECUTORS.pop("err-fmt", None)


def test_lock_mutual_exclusion(tmp_path):
    store = ResultStore(tmp_path)
    with store.lock("k") as got:
        assert got is True
        with store.lock("k", blocking=False) as second:
            assert second is False  # held elsewhere
        with store.lock("other", blocking=False) as other:
            assert other is True  # per-key, not store-wide
    with store.lock("k", blocking=False) as again:
        assert again is True  # released on exit


def test_compute_under_lock_reprobes(tmp_path):
    """A loser of the lock race finds the winner's artifact when it
    re-probes under the lock and never recomputes."""
    from repro.campaign.runner import _compute_miss

    calls = {"n": 0}

    @register_executor("race")
    def _exec(params):
        calls["n"] += 1
        return {"ok": True}

    try:
        store = ResultStore(tmp_path)
        cell = CampaignCell(kind="race", params={}, label="x")
        first = _compute_miss(cell, str(store.root), 0, False)
        second = _compute_miss(cell, str(store.root), 0, False)
        assert calls["n"] == 1
        assert first == {"result": {"ok": True}, "cached": False}
        assert second == {"result": {"ok": True}, "cached": True}
    finally:
        CELL_EXECUTORS.pop("race", None)


def test_pool_spawn_resume_bit_identical(spec, tmp_path, monkeypatch):
    """The acceptance scenario end-to-end under the pool: seed an
    interrupted cell, then finish the campaign with jobs=2 under the
    spawn start method and require bit-identity with a never-crashed
    run.  (Spawn workers import the runner fresh, so this also proves
    resume needs no state smuggled from the parent.)"""
    ref = CampaignRunner(store=ResultStore(tmp_path / "ref"), jobs=1).run(spec)
    store = ResultStore(tmp_path / "store")
    _kill_after_first_flush(monkeypatch)
    CampaignRunner(store=store, jobs=1, checkpoint_every=2).run(spec)
    assert store.checkpoint_keys() == [spec.cells()[0].key]
    monkeypatch.undo()

    resumed = CampaignRunner(
        store=store, jobs=2, checkpoint_every=2,
        mp_start_method=POOL_START or "spawn",
    ).run(spec, resume=True)
    assert resumed.n_computed == 1 and resumed.n_failed == 0
    assert golden_diff(
        canonical(ref.outcomes[0].result),
        canonical(resumed.outcomes[0].result),
    ) == []
    assert store.checkpoint_keys() == []
    # the second run from the same store is a pure cache hit
    again = CampaignRunner(
        store=store, jobs=2, mp_start_method=POOL_START or "spawn"
    ).run(spec, resume=True)
    assert again.n_cached == 1


def test_manifest_lifecycle(spec, tmp_path):
    store = ResultStore(tmp_path)
    CampaignRunner(store=store, jobs=1).run(spec)
    m1 = store.load_manifest()
    assert m1["in_progress"] is False
    assert [c["status"] for c in m1["cells"]] == ["done"]
    CampaignRunner(store=store, jobs=1).run(spec)
    m2 = store.load_manifest()
    assert [c["status"] for c in m2["cells"]] == ["cached"]
    assert m2["cells"][0]["ok"] is True


def test_runner_validates_checkpoint_every():
    with pytest.raises(ValueError):
        CampaignRunner(checkpoint_every=-1)
