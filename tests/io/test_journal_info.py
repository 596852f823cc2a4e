"""The journal inspector (tools/journal_info.py) on a real cell journal."""

import importlib.util
import pathlib

import pytest

from repro.campaign import CampaignSpec, default_waves
from repro.campaign.runner import run_method_cell

REPO = pathlib.Path(__file__).resolve().parents[2]
spec = importlib.util.spec_from_file_location(
    "journal_info", REPO / "tools" / "journal_info.py"
)
journal_info = importlib.util.module_from_spec(spec)
spec.loader.exec_module(journal_info)


@pytest.fixture(scope="module")
def journal(tmp_path_factory):
    """The journal a checkpointed ``crs-cg@gpu`` cell leaves: flushes at
    steps 2 and 4 of 6 (a run that finishes does not flush)."""
    cell = CampaignSpec(
        name="ji", models=("stratified",), waves=default_waves(1),
        methods=("crs-cg@gpu",), resolutions=((2, 2, 1),), cases=1, steps=6,
    ).cells()[0]
    path = tmp_path_factory.mktemp("journal") / "c.json"
    run_method_cell(cell.params, ctx={
        "key": cell.key, "checkpoint_path": str(path), "checkpoint_every": 2,
    })
    return path


def test_reports_every_line_and_the_resume_step(journal, capsys):
    assert journal_info.main([str(journal)]) == 0
    out = capsys.readouterr().out.splitlines()
    sizes = [len(ln) for ln in journal.read_bytes().splitlines(keepends=True)]
    heads = [ln for ln in out if ln.startswith("line ")]
    assert heads == [
        f"line 1: step 2, tail_from -, 2 records, {sizes[0]} B",
        f"line 2: step 4, tail_from 2, 2 records, {sizes[1]} B",
    ]
    assert out[-1] == "resume step: 4"
    # the Newmark state of the one case, in both lines
    u = [ln for ln in out if ln.startswith("  $.state.state.sets[0].states[0].u ")]
    assert len(u) == 2 and u[0].endswith(" float64 (225,)")


def test_exits_nonzero_when_the_journal_does_not_decode(journal, tmp_path, capsys):
    lines = journal.read_bytes().splitlines(keepends=True)
    torn = tmp_path / "torn.json"
    torn.write_bytes(lines[0][:50] + b"\n" + lines[1])
    empty = tmp_path / "empty.json"
    empty.write_bytes(b"")
    for bad in (torn, empty, tmp_path / "absent.json"):
        assert journal_info.main([str(bad)]) == 1
        assert str(bad) in capsys.readouterr().err
