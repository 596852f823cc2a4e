"""Checkpoint/resume of the method drivers.

The contract under test: a run interrupted at any checkpoint and
resumed from the *JSON-persisted* state is bit-identical — summaries,
per-step records, timeline totals, power — to a run that never
stopped.  That exactness is what lets the campaign layer resume
killed cells without invalidating golden fixtures.

Flushes after the first carry only the records/waves tail since the
previous flush (O(1) checkpoint bytes per step); a resumable state is
reconstructed by merging the flush sequence with
:func:`repro.io.results.merge_checkpoint_docs` — exactly what the
campaign journal reader does.
"""

import json

import pytest

from repro.core.methods import HETEROGENEOUS_METHODS, run_method
from repro.core.pipeline import PipelineState
from repro.io.golden import canonical, golden_diff
from repro.io.results import (
    load_pipeline_state,
    merge_checkpoint_docs,
    save_pipeline_state,
)

NT = 8
WINDOW = (max(1, NT * 5 // 8), NT + 1)

CONFIGS = [
    # (method, nparts, precision) — every driver family, plus the
    # distributed and transprecision axes
    ("crs-cg@cpu", 1, "fp64"),
    ("crs-cg@gpu", 1, "fp64"),
    ("crs-cg@cpu-gpu", 1, "fp64"),
    ("ebe-mcg@cpu-gpu", 1, "fp64"),
    ("ebe-mcg@cpu-gpu", 2, "fp64"),
    ("ebe-mcg@cpu-gpu", 2, "fp21"),
]


def _doc(result) -> dict:
    """Everything a resumed run must reproduce exactly."""
    return canonical(
        {
            "summary": result.summary(WINDOW),
            "records": [r.to_dict() for r in result.records],
            "power": result.power,
            "busy": {
                lane: result.timeline.busy_time(lane)
                for lane in ("cpu", "gpu", "c2c", "nic")
            },
        }
    )


def _forces_for(method, problem, make_forces):
    return make_forces(problem, 2 if method in HETEROGENEOUS_METHODS else 1)


@pytest.mark.parametrize("method,nparts,precision", CONFIGS)
def test_resume_bit_identical(
    method, nparts, precision, ground_problem, make_forces, tmp_path
):
    forces = _forces_for(method, ground_problem, make_forces)
    kw = dict(
        method=method, s_range=(2, 4), nparts=nparts, precision=precision
    )
    straight = run_method(ground_problem, forces, nt=NT, **kw)

    # interrupted run: checkpoint every 3 steps, keep the full flush
    # journal (as a crashed campaign's checkpoint file would), merge
    # it into one resumable state and round-trip it through JSON
    flushes = []
    run_method(
        ground_problem, forces, nt=NT, checkpoint_every=3,
        on_checkpoint=flushes.append, **kw
    )
    saved = merge_checkpoint_docs(flushes)
    assert saved["step"] == 6  # flushes at 3 and 6; 8 is the finish
    assert "tail_from" not in saved["state"]  # merged = self-contained
    path = save_pipeline_state(saved, tmp_path / "state.json")
    resumed = run_method(
        ground_problem, forces, nt=NT,
        start_state=load_pipeline_state(path), **kw
    )

    assert golden_diff(_doc(straight), _doc(resumed)) == []
    assert len(resumed.records) == NT


def test_chunked_equals_uninterrupted(ground_problem, make_forces):
    """Checkpoint flushes alone (no kill, no resume) must not perturb
    the numerics — chunked stepping is invisible."""
    forces = make_forces(ground_problem, 2)
    kw = dict(method="ebe-mcg@cpu-gpu", s_range=(2, 4))
    straight = run_method(ground_problem, forces, nt=NT, **kw)
    chunked = run_method(
        ground_problem, forces, nt=NT, checkpoint_every=1,
        on_checkpoint=lambda doc: None, **kw
    )
    assert golden_diff(_doc(straight), _doc(chunked)) == []


def test_resume_from_every_checkpoint(ground_problem, make_forces):
    """Bit-identity holds from *any* interruption point, not just the
    last flush."""
    forces = make_forces(ground_problem, 2)
    kw = dict(method="crs-cg@cpu-gpu", s_range=(2, 4))
    straight = _doc(run_method(ground_problem, forces, nt=NT, **kw))
    flushes = []
    run_method(
        ground_problem, forces, nt=NT, checkpoint_every=2,
        on_checkpoint=flushes.append, **kw
    )
    assert [f["step"] for f in flushes] == [2, 4, 6]
    # later flushes are incremental tails continuing the previous one
    assert [f["state"].get("tail_from") for f in flushes] == [None, 2, 4]
    for upto in range(1, len(flushes) + 1):
        # what disk would return after merging the journal prefix
        state = canonical(merge_checkpoint_docs(flushes[:upto]))
        resumed = run_method(
            ground_problem, forces, nt=NT, start_state=state, **kw
        )
        assert golden_diff(straight, _doc(resumed)) == [], state["step"]


def test_resume_bit_identical_under_twogrid(
    ground_problem, make_forces, tmp_path
):
    """The preconditioner axis threads through checkpoint/resume: a
    two-grid run interrupted mid-campaign resumes to the same bits."""
    forces = make_forces(ground_problem, 2)
    kw = dict(method="ebe-mcg@cpu-gpu", s_range=(2, 4), precond="twogrid")
    straight = run_method(ground_problem, forces, nt=NT, **kw)

    flushes = []
    run_method(
        ground_problem, forces, nt=NT, checkpoint_every=3,
        on_checkpoint=flushes.append, **kw
    )
    saved = merge_checkpoint_docs(flushes)
    assert saved["precond"] == "twogrid"  # family stamped in the header
    path = save_pipeline_state(saved, tmp_path / "state.json")
    resumed = run_method(
        ground_problem, forces, nt=NT,
        start_state=load_pipeline_state(path), **kw
    )
    assert golden_diff(_doc(straight), _doc(resumed)) == []


def test_default_precond_absent_from_checkpoint_header(
    ground_problem, make_forces
):
    """Block-Jacobi runs write exactly the pre-axis state document, so
    old checkpoints keep resuming (and old goldens keep matching)."""
    forces = make_forces(ground_problem, 2)
    saved = {}
    run_method(
        ground_problem, forces, nt=4, method="ebe-mcg@cpu-gpu",
        s_range=(2, 4), checkpoint_every=2,
        on_checkpoint=lambda doc: saved.update(doc),
    )
    assert "precond" not in saved


def test_header_mismatch_rejected(ground_problem, make_forces):
    """A state document only resumes the exact configuration that
    wrote it — method, nparts, precision and step range all guard."""
    forces = make_forces(ground_problem, 2)
    saved = {}
    run_method(
        ground_problem, forces, nt=4, method="ebe-mcg@cpu-gpu",
        s_range=(2, 4), checkpoint_every=2,
        on_checkpoint=lambda doc: saved.update(doc),
    )
    kw = dict(s_range=(2, 4), start_state=saved)
    with pytest.raises(ValueError, match="method"):
        run_method(ground_problem, forces, nt=4, method="crs-cg@cpu-gpu", **kw)
    with pytest.raises(ValueError, match="nparts"):
        run_method(
            ground_problem, forces, nt=4, method="ebe-mcg@cpu-gpu",
            nparts=2, **kw
        )
    with pytest.raises(ValueError, match="precision"):
        run_method(
            ground_problem, forces, nt=4, method="ebe-mcg@cpu-gpu",
            precision="fp21", **kw
        )
    with pytest.raises(ValueError, match="precond"):
        run_method(
            ground_problem, forces, nt=4, method="ebe-mcg@cpu-gpu",
            precond="twogrid", **kw
        )
    with pytest.raises(ValueError, match="step"):
        # the checkpoint (step 2) is already past this run's end
        run_method(
            ground_problem, forces, nt=1, method="ebe-mcg@cpu-gpu",
            s_range=(2, 4), start_state=saved,
        )

    # a header whose step disagrees with the records it carries: both
    # families refuse to replay steps on a state that is elsewhere
    for method in ("crs-cg@cpu", "ebe-mcg@cpu-gpu"):
        flushes = []
        kw = dict(method=method, s_range=(2, 4))
        run_method(
            ground_problem, forces, nt=NT, checkpoint_every=3,
            on_checkpoint=flushes.append, **kw
        )
        merged = merge_checkpoint_docs(flushes)  # step 6, records 1..6
        cut = {**merged["state"], "records": merged["state"]["records"][:4]}
        for tampered in (
            {**merged, "state": cut},  # records cut to step 4
            {**merged, "step": 4},  # header rewritten 6 -> 4
        ):
            with pytest.raises(ValueError, match="does not match its records"):
                run_method(
                    ground_problem, forces, nt=NT, start_state=tampered, **kw
                )


def test_state_schema_mismatch_fails_loudly(tmp_path):
    path = save_pipeline_state({"method": "x", "step": 1}, tmp_path / "s.json")
    doc = json.loads(path.read_text())
    doc["schema"] = 999
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="schema"):
        load_pipeline_state(path)


def test_pipeline_state_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown"):
        PipelineState.from_dict({"step": 1, "bogus": 2})


def test_bare_tail_refuses_direct_resume(ground_problem, make_forces):
    """An incremental tail is not a resumable state on its own — both
    driver families must fail loudly rather than resume with a
    truncated history."""
    forces = make_forces(ground_problem, 2)
    for method in ("crs-cg@cpu-gpu", "ebe-mcg@cpu-gpu"):
        flushes = []
        run_method(
            ground_problem, forces, nt=NT, method=method,
            s_range=(2, 4), checkpoint_every=3,
            on_checkpoint=flushes.append,
        )
        tail = flushes[-1]
        assert tail["state"]["tail_from"] == 3
        with pytest.raises(ValueError, match="tail"):
            run_method(
                ground_problem, forces, nt=NT, method=method,
                s_range=(2, 4), start_state=tail,
            )


def test_merge_rejects_gaps_and_missing_head(ground_problem, make_forces):
    """A journal with a hole (or whose full head flush is missing)
    cannot be silently stitched — the merged history would be wrong."""
    forces = make_forces(ground_problem, 2)
    flushes = []
    run_method(
        ground_problem, forces, nt=NT, method="crs-cg@cpu-gpu",
        s_range=(2, 4), checkpoint_every=2,
        on_checkpoint=flushes.append,
    )
    assert len(flushes) == 3
    with pytest.raises(ValueError, match="head"):
        merge_checkpoint_docs(flushes[1:])  # tail without the full head
    with pytest.raises(ValueError, match="gap"):
        merge_checkpoint_docs([flushes[0], flushes[2]])  # hole at step 4
    with pytest.raises(ValueError, match="no checkpoint"):
        merge_checkpoint_docs([])


def test_checkpoint_bytes_per_flush_bounded(ground_problem, make_forces):
    """The O(n²/k) payload bug: every flush used to snapshot the full
    records/waves history, so flush size grew linearly with the step.
    With incremental tails each flush carries only ``checkpoint_every``
    steps of history — flush sizes must stay flat."""
    forces = make_forces(ground_problem, 2)
    for method in ("crs-cg@cpu-gpu", "ebe-mcg@cpu-gpu"):
        sizes = []
        run_method(
            ground_problem, forces, nt=16, method=method, s_range=(2, 4),
            checkpoint_every=2,
            on_checkpoint=lambda doc: sizes.append(
                len(json.dumps(canonical(doc)))
            ),
        )
        assert len(sizes) >= 6
        # every incremental flush stays within a constant factor of the
        # first tail (solver state is O(1); only record tails vary)
        tails = sizes[1:]
        assert max(tails) <= 1.5 * min(tails), (method, sizes)


def test_checkpoint_every_validated(ground_problem, make_forces):
    forces = make_forces(ground_problem, 1)
    with pytest.raises(ValueError):
        run_method(
            ground_problem, forces, nt=2, method="crs-cg@gpu",
            checkpoint_every=-1,
        )
