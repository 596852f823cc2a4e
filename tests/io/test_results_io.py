"""Result JSON persistence."""

import json

import numpy as np
import pytest

from repro.core.results import RunResult, StepRecord
from repro.io.results import (
    append_campaign_checkpoint,
    atomic_write_text,
    load_campaign_checkpoint,
    load_result_summary,
    save_result,
)
from repro.util.timeline import Timeline


@pytest.fixture()
def result():
    records = [
        StepRecord(
            step=i,
            iterations=np.array([30 + i, 31 + i]),
            t_solver=0.1 * i,
            t_predictor=0.05 * i,
            t_transfer=0.001,
            t_step=0.11 * i,
            s_used=8 + i,
        )
        for i in range(1, 6)
    ]
    tl = Timeline()
    tl.schedule("gpu", "solver", 1.0)
    return RunResult(
        method="ebe-mcg@cpu-gpu",
        module_name="single-GH200",
        n_cases=2,
        n_dofs=100,
        records=records,
        timeline=tl,
        cpu_memory_bytes=1e6,
        gpu_memory_bytes=5e5,
        power={"module_power": 800.0, "gpu_power": 600.0, "energy": 100.0},
    )


def test_roundtrip(tmp_path, result):
    path = save_result(result, tmp_path / "run.json", window=(2, 5))
    doc = load_result_summary(path)
    assert doc["summary"]["method"] == "ebe-mcg@cpu-gpu"
    assert doc["window"] == [2, 5]
    assert len(doc["records"]) == 5
    assert doc["records"][0]["iterations"] == [31, 32]
    assert doc["records"][4]["s_used"] == 13


def test_summary_values_preserved(tmp_path, result):
    path = save_result(result, tmp_path / "run.json", window=(2, 5))
    doc = load_result_summary(path)
    expected = result.summary((2, 5))
    for k, v in expected.items():
        if isinstance(v, float):
            assert doc["summary"][k] == pytest.approx(v)
        else:
            assert doc["summary"][k] == v


def test_json_is_plain(tmp_path, result):
    path = save_result(result, tmp_path / "run.json")
    raw = json.loads(path.read_text())  # must parse as standard JSON
    assert raw["schema"] == 1


def test_creates_parent_dirs(tmp_path, result):
    path = save_result(result, tmp_path / "a" / "b" / "run.json")
    assert path.exists()


def test_schema_check(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": 99}))
    with pytest.raises(ValueError):
        load_result_summary(bad)


def test_atomic_write_replaces_and_leaves_no_temps(tmp_path):
    path = tmp_path / "doc.json"
    atomic_write_text(path, "old")
    assert atomic_write_text(path, "new") == path
    assert path.read_text() == "new"
    # the staging files are gone: publication is rename-only
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


def test_atomic_write_failure_leaves_previous_content(tmp_path, monkeypatch):
    path = tmp_path / "doc.json"
    atomic_write_text(path, "good")

    import os as _os

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("repro.io.results.os.replace", refuse)
    with pytest.raises(OSError):
        atomic_write_text(path, "half")
    monkeypatch.undo()
    # the old document survives untorn and no temp file leaks
    assert path.read_text() == "good"
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


def test_step_record_dict_roundtrip():
    rec = StepRecord(
        step=3, iterations=np.array([5, 6]), t_solver=0.5, t_predictor=0.2,
        t_transfer=0.01, t_step=0.71, s_used=4, s_used_b=6, t_halo=0.03,
        relres=1e-9,
    )
    back = StepRecord.from_dict(json.loads(json.dumps(rec.to_dict())))
    assert back.to_dict() == rec.to_dict()
    assert list(back.iterations) == [5, 6]


def test_campaign_checkpoint_io_validation(tmp_path):
    with pytest.raises(ValueError):  # identity fields are mandatory
        append_campaign_checkpoint({"key": "k", "state": {}}, tmp_path / "c.json")
    p = append_campaign_checkpoint(
        {"key": "k", "kind": "method", "params": {"a": 1}, "step": 4,
         "state": {"x": 0.1}},
        tmp_path / "c.json",
    )
    doc = load_campaign_checkpoint(p)
    assert doc["step"] == 4 and doc["state"] == {"x": 0.1}
    p.write_text(json.dumps({"schema": 999}))
    with pytest.raises(ValueError, match="schema"):
        load_campaign_checkpoint(p)
    p.write_text('{"torn')
    with pytest.raises(json.JSONDecodeError):
        load_campaign_checkpoint(p)
