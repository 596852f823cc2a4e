"""The golden-regeneration gate (tools/golden_drift.py)."""

import copy
import importlib.util
import json
import pathlib
import shutil
import subprocess

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]
spec = importlib.util.spec_from_file_location(
    "golden_drift", REPO / "tools" / "golden_drift.py"
)
drift = importlib.util.module_from_spec(spec)
spec.loader.exec_module(drift)


def make_doc():
    return {
        "params": {"steps": 18, "method": "ebe-mcg@cpu-gpu"},
        "result": {
            "iterations_per_step": 40.25,
            "summary": {
                "achieved_relres": 9.6e-09,
                "elapsed_per_step_per_case_s": 6.0e-06,
                "predictor_s_used": 4.0,
                "n_cases": 2,
            },
            "window": [11, 19],
        },
    }


def rows_for(mutate):
    old = {"a.json": make_doc()}
    new = copy.deepcopy(old)
    mutate(new["a.json"])
    return drift.compare_trees(old, new)


def test_identical_trees_have_no_rows():
    assert rows_for(lambda d: None) == []
    assert "no leaf changed" in drift.render_markdown([])


def test_residual_drift_is_listed_but_accepted():
    def mutate(d):
        d["result"]["summary"]["achieved_relres"] = 9.7e-09

    ((name, path, old, new, rel, why),) = rows_for(mutate)
    assert (name, path) == ("a.json", "$.result.summary.achieved_relres")
    assert (old, new, why) == (9.6e-09, 9.7e-09, "ok")
    assert rel == pytest.approx(0.1 / 9.7)


def test_float_drift_gated_at_tolerance():
    def within(d):
        d["result"]["summary"]["elapsed_per_step_per_case_s"] *= 1 + 1e-9

    def beyond(d):
        d["result"]["iterations_per_step"] = 40.5  # one iteration more

    assert [r[5] for r in rows_for(within)] == ["ok"]
    assert [r[5] for r in rows_for(beyond)] == ["> 1e-06"]


def test_integer_leaves_may_not_move():
    def mutate(d):
        d["result"]["summary"]["n_cases"] = 3
        d["result"]["window"][1] = 20

    assert [r[5] for r in rows_for(mutate)] == ["integer moved"] * 2


def test_structure_changes_fail():
    def mutate(d):
        d["params"]["method"] = "crs-cg@cpu"
        del d["result"]["summary"]["predictor_s_used"]
        d["result"]["window"] = [11]

    assert [r[5] for r in rows_for(mutate)] == ["changed"] * 3
    rows = drift.compare_trees({"a.json": {}}, {"b.json": {}})
    assert [r[5] for r in rows] == ["file removed", "file added"]


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_cli_against_a_git_revision(tmp_path, monkeypatch, capsys):
    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=tmp_path, check=True, capture_output=True,
        )

    fixture = tmp_path / drift.FIXTURES / "predictors" / "a.json"
    fixture.parent.mkdir(parents=True)
    fixture.write_text(json.dumps(make_doc()))
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "fixtures")
    monkeypatch.setattr(drift, "REPO", tmp_path)

    doc = make_doc()
    doc["result"]["summary"]["achieved_relres"] = 9.5e-09
    fixture.write_text(json.dumps(doc))
    assert drift.main(["--rev", "HEAD"]) == 0
    out = capsys.readouterr().out
    assert "| `predictors/a.json` | `$.result.summary.achieved_relres` |" in out

    doc["params"]["steps"] = 19
    fixture.write_text(json.dumps(doc))
    assert drift.main(["--rev", "HEAD"]) == 1
    captured = capsys.readouterr()
    assert "| `predictors/a.json` | `$.params.steps` | 18 | 19 |" in captured.out
    assert "moved beyond rounding" in captured.err
