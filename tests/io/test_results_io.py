"""Result JSON persistence."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.campaign.store import resume_checkpoint
from repro.core.results import RunResult, StepRecord
from repro.io.results import (
    _jsonable,
    append_campaign_checkpoint,
    atomic_write_text,
    compact_campaign_checkpoint,
    load_campaign_checkpoint,
    load_result_summary,
    read_campaign_journal,
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


# -- journal encoding: array leaves as raw little-endian bytes ----------

SHAPES = hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4)
#: quiet and signalling NaN with payloads, +-inf, -0.0, the smallest
#: subnormal, a negative subnormal and 1.0, as a 2-D array
SPECIAL = np.concatenate([
    np.array([0x7FF8_0000_0000_0123, 0xFFF4_0000_0000_0042], dtype="<u8").view("<f8"),
    [np.inf, -np.inf, -0.0, 5e-324, -2.2250738585072e-308, 1.0],
]).reshape(2, 4)


def _ck(state: dict, step: int = 1) -> dict:
    return {"key": "k", "kind": "method", "params": {}, "step": step,
            "state": state}


def _roundtrip(a: np.ndarray, path) -> np.ndarray:
    path.unlink(missing_ok=True)
    append_campaign_checkpoint(_ck({"a": a, "nested": [{"b": a}]}), path)
    state = load_campaign_checkpoint(path)["state"]
    assert state["nested"][0]["b"] is not state["a"]  # no aliasing
    return state["a"]


def test_special_values_keep_their_bits():
    assert SPECIAL.view("<u8")[0, :2].tolist() == [
        0x7FF8_0000_0000_0123, 0xFFF4_0000_0000_0042,
    ]


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(
    hnp.arrays(np.uint64, SHAPES).map(lambda a: a.view(np.float64)),  # any bits
    hnp.arrays(np.float64, SHAPES, elements=st.floats(allow_subnormal=True)),
    hnp.arrays(np.int64, SHAPES),
    hnp.arrays(np.bool_, SHAPES),
))
@example(SPECIAL)
@example(np.zeros((0, 3)))
@example(np.array([], dtype=np.int64))
@example(np.asfortranarray(np.arange(6.0).reshape(2, 3)))
def test_journal_arrays_roundtrip_bit_exact(tmp_path, a):
    back = _roundtrip(a, tmp_path / "j.json")
    assert (back.dtype, back.shape) == (a.dtype, a.shape)
    assert back.tobytes() == a.tobytes()
    assert back.flags.writeable and back.flags.owndata
    assert back.flags.c_contiguous


def test_big_endian_arrays_read_back_little_endian(tmp_path):
    a = np.array([1.5, -0.0, np.inf], dtype=">f8")
    back = _roundtrip(a, tmp_path / "j.json")
    assert back.dtype == np.dtype("<f8")
    assert back.tobytes() == a.astype("<f8").tobytes()


def test_float64_leaf_costs_at_most_11_bytes_per_value(tmp_path):
    """Text floats cost ~20 bytes a value; the raw encoding is 8 bytes
    x 4/3 for base64 plus a constant per leaf."""
    n = 4096
    sizes = []
    for a in (np.zeros(0), np.random.default_rng(0).standard_normal(n)):
        p = tmp_path / f"{a.size}.json"
        sizes.append(append_campaign_checkpoint(_ck({"u": a}), p).stat().st_size)
    assert (sizes[1] - sizes[0]) / n <= 11


def test_unknown_checkpoint_schema_is_loud(tmp_path):
    p = append_campaign_checkpoint(_ck({"u": np.ones(3)}), tmp_path / "j.json")
    line = json.loads(p.read_text())
    assert line["schema"] == 2
    p.write_text(json.dumps({**line, "schema": 3}) + "\n")
    with pytest.raises(ValueError, match="schema 3"):
        load_campaign_checkpoint(p)


def test_schema_1_line_reads_as_lists(tmp_path):
    """A line written by the float-text encoding still loads: its list
    leaves are values every ``load_state_dict`` accepts."""
    doc = _ck({"u": np.array([0.1, -0.0])})
    p = tmp_path / "j.json"
    p.write_text(json.dumps({**_jsonable(doc), "schema": 1}) + "\n")
    assert load_campaign_checkpoint(p)["state"] == {"u": [0.1, -0.0]}


@pytest.mark.parametrize("text", ["", "\n", "  \n\n"])
def test_journal_without_a_line_is_no_checkpoint(tmp_path, text):
    """A kill between the journal's ``O_CREAT`` open and its first write
    leaves an empty file: nothing to resume, not an error."""
    p = tmp_path / "c.json"
    p.write_text(text)
    with pytest.raises(json.JSONDecodeError):
        load_campaign_checkpoint(p)
    assert resume_checkpoint(p, "k") is None


def test_resume_checkpoint_checks_key_and_params(tmp_path):
    p = append_campaign_checkpoint(_ck({"u": np.ones(2)}), tmp_path / "c.json")
    assert resume_checkpoint(tmp_path / "absent.json", "k") is None
    assert resume_checkpoint(p, "k", {})["step"] == 1
    with pytest.raises(ValueError, match="key"):
        resume_checkpoint(p, "other")
    with pytest.raises(ValueError, match="params"):
        resume_checkpoint(p, "k", {"steps": 6})


def test_compaction_rewrites_one_equal_line(tmp_path):
    p = tmp_path / "c.json"
    append_campaign_checkpoint(_ck({"u": SPECIAL}), p)
    p.write_bytes(p.read_bytes() + b'{"schema": 2, "torn')  # a crash mid-append
    doc = load_campaign_checkpoint(p)
    compact_campaign_checkpoint(doc, p)
    assert p.read_bytes().count(b"\n") == 1 and p.read_bytes().endswith(b"\n")
    [(nbytes, line)] = read_campaign_journal(p)
    assert nbytes == p.stat().st_size
    assert line["state"]["u"].tobytes() == SPECIAL.tobytes()
