"""The on-disk checkpoint format, pinned byte for byte to the parent.

``fixtures/checkpoint_parent.json`` was written once, by the code of
commit 5a540b8 — the last one where Algorithm 2 (``_BaselineDriver``)
and Algorithms 3/4 (``HeterogeneousPipeline`` behind ``_PipelineDriver``)
each carried their own step loop and their own snapshot plumbing.  The
resume tests of ``test_method_checkpoint.py`` write and read with the
same code, so they cannot notice a format change; this file can.  For
every driver family it pins the SHA-256 of each flushed document exactly
as :func:`repro.io.results.save_pipeline_state` writes it (key order
included) and of the waveform cube, and it carries two complete
parent-written step-3 documents that today's code must resume to the
straight run's bits.  Never regenerate the fixture: a checkpoint written
before a refactor has to resume after it.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.methods import run_method
from repro.io.results import save_pipeline_state
from repro.workloads.ground import build_ground_problem, stratified_model

FIXTURE = Path(__file__).parent / "fixtures" / "checkpoint_parent.json"
PINNED = json.loads(FIXTURE.read_text())

NT, EVERY = 7, 3
#: name -> (method, cases, nparts): both schedules, both operator kinds,
#: fused and per-case sets, and the part-local solve.
CONFIGS = {
    "crs-cg@cpu": ("crs-cg@cpu", 1, 1),
    "crs-cg@gpu": ("crs-cg@gpu", 2, 1),
    "crs-cg@cpu-gpu": ("crs-cg@cpu-gpu", 2, 1),
    "ebe-mcg@cpu-gpu": ("ebe-mcg@cpu-gpu", 4, 1),
    "ebe-mcg@cpu-gpu/nparts2": ("ebe-mcg@cpu-gpu", 2, 2),
}
#: The configurations whose first flush is committed whole.
COMMITTED = ("crs-cg@cpu", "ebe-mcg@cpu-gpu")


@pytest.fixture(scope="module")
def problem():
    return build_ground_problem(stratified_model(), resolution=(2, 2, 2))


def _run(problem, make_forces, name, **kwargs):
    method, cases, nparts = CONFIGS[name]
    return run_method(
        problem, make_forces(problem, cases), nt=NT, method=method,
        nparts=nparts, s_range=(2, 4),
        waveform_dofs=np.arange(0, problem.n_dofs, 53), **kwargs,
    )


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def measure(problem, make_forces, name, tmp_path) -> tuple[dict, list[dict]]:
    """``(digests, flushed documents)`` of one checkpointed run."""
    flushes = []
    result = _run(
        problem, make_forces, name,
        checkpoint_every=EVERY, on_checkpoint=flushes.append,
    )
    digests = {
        f"step{doc['step']}": _sha(
            save_pipeline_state(doc, tmp_path / "flush.json").read_bytes()
        )
        for doc in flushes
    }
    digests["waveforms"] = _sha(np.ascontiguousarray(result.waveforms).tobytes())
    return digests, flushes


@pytest.mark.parametrize("name", CONFIGS)
def test_flushed_documents_are_the_parents_bytes(
    problem, make_forces, name, tmp_path
):
    digests, flushes = measure(problem, make_forces, name, tmp_path)
    assert [doc["step"] for doc in flushes] == [3, 6]
    assert digests == PINNED["digests"][name]


@pytest.mark.parametrize("name", COMMITTED)
def test_parent_written_document_resumes_to_straight_bits(
    problem, make_forces, name, tmp_path
):
    doc = PINNED["documents"][name]
    # the committed document is the one whose digest is pinned above
    path = save_pipeline_state(doc, tmp_path / "doc.json")
    assert _sha(path.read_bytes()) == PINNED["digests"][name]["step3"]

    straight = _run(problem, make_forces, name)
    resumed = _run(problem, make_forces, name, start_state=doc)
    assert [r.to_dict() for r in resumed.records] == [
        r.to_dict() for r in straight.records
    ]
    np.testing.assert_array_equal(resumed.waveforms, straight.waveforms, strict=True)
    for a, b in zip(resumed.final_states, straight.final_states, strict=True):
        for field in ("u", "v", "a"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
    assert resumed.power == straight.power
    assert resumed.timeline.state_dict() == straight.timeline.state_dict()
