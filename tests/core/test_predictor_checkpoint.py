"""Checkpoint/resume with the predictor axis.

Contract: every registered predictor's internal state (Aitken's
relaxation factor, IQN-ILS's correction window, the AB/data-driven
histories) is part of the persisted pipeline state, so a run
interrupted at any checkpoint and resumed from the JSON round-trip is
bit-identical to one that never stopped — and a checkpoint only
resumes under the predictor that wrote it.
"""

import pytest

from repro.core.methods import (
    HETEROGENEOUS_METHODS,
    native_predictor,
    run_method,
)
from repro.io.golden import canonical, golden_diff
from repro.io.results import (
    load_pipeline_state,
    merge_checkpoint_docs,
    save_pipeline_state,
)
from repro.predictor.registry import predictor_names

NT = 8
WINDOW = (max(1, NT * 5 // 8), NT + 1)

# every zoo member on the paper's main heterogeneous method, plus the
# stateful accelerators across the other driver families / distribution
CONFIGS = [
    *[(pred, "ebe-mcg@cpu-gpu", 1) for pred in predictor_names()],
    ("aitken", "crs-cg@gpu", 1),
    ("iqn-ils", "crs-cg@gpu", 1),
    ("aitken", "ebe-mcg@cpu-gpu", 2),
    ("iqn-ils", "ebe-mcg@cpu-gpu", 2),
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


@pytest.mark.parametrize("predictor,method,nparts", CONFIGS)
def test_resume_bit_identical_per_predictor(
    predictor, method, nparts, ground_problem, make_forces, tmp_path
):
    forces = _forces_for(method, ground_problem, make_forces)
    kw = dict(method=method, s_range=(2, 4), nparts=nparts,
              predictor=predictor)
    straight = run_method(ground_problem, forces, nt=NT, **kw)

    # interrupted run: checkpoint every 3 steps, merge the flush
    # journal (as a crashed campaign's reader would), round-trip the
    # merged state through JSON
    flushes = []
    run_method(
        ground_problem, forces, nt=NT, checkpoint_every=3,
        on_checkpoint=flushes.append, **kw
    )
    saved = merge_checkpoint_docs(flushes)
    assert saved["step"] == 6  # flushes at 3 and 6; 8 is the finish
    if predictor != native_predictor(method):
        assert saved["predictor"] == predictor  # stamped in the header
    else:
        assert "predictor" not in saved  # native pairing = pre-axis doc
    path = save_pipeline_state(saved, tmp_path / "state.json")
    resumed = run_method(
        ground_problem, forces, nt=NT,
        start_state=load_pipeline_state(path), **kw
    )

    assert golden_diff(_doc(straight), _doc(resumed)) == []
    assert len(resumed.records) == NT


def test_explicit_native_equals_auto(ground_problem, make_forces):
    """Naming the method's native predictor is indistinguishable from
    the ``auto`` default — numerics and checkpoint header alike."""
    forces = make_forces(ground_problem, 2)
    kw = dict(method="ebe-mcg@cpu-gpu", s_range=(2, 4))
    auto = run_method(ground_problem, forces, nt=NT, **kw)
    named = run_method(
        ground_problem, forces, nt=NT, predictor="data-driven", **kw
    )
    assert golden_diff(_doc(auto), _doc(named)) == []

    flushes = []
    run_method(
        ground_problem, forces, nt=NT, predictor="data-driven",
        checkpoint_every=3, on_checkpoint=flushes.append, **kw
    )
    saved = merge_checkpoint_docs(flushes)
    assert "predictor" not in saved
    # ...so an old (pre-axis) checkpoint resumes under either spelling
    resumed = run_method(
        ground_problem, forces, nt=NT, predictor="data-driven",
        start_state=saved, **kw
    )
    assert golden_diff(_doc(auto), _doc(resumed)) == []


def test_predictor_mismatch_rejected(ground_problem, make_forces):
    """A checkpoint written under one predictor refuses to resume under
    another — silently swapping the accelerator mid-run would corrupt
    the very histories the state exists to preserve."""
    forces = make_forces(ground_problem, 2)
    kw = dict(method="ebe-mcg@cpu-gpu", s_range=(2, 4))
    saved = {}
    run_method(
        ground_problem, forces, nt=4, predictor="aitken",
        checkpoint_every=2, on_checkpoint=lambda doc: saved.update(doc), **kw
    )
    with pytest.raises(ValueError, match="predictor"):
        run_method(
            ground_problem, forces, nt=4, predictor="iqn-ils",
            start_state=saved, **kw
        )
    with pytest.raises(ValueError, match="predictor"):
        # auto resolves to data-driven here, which != aitken
        run_method(ground_problem, forces, nt=4, start_state=saved, **kw)
    # and the converse: an auto checkpoint won't resume as aitken
    saved_auto = {}
    run_method(
        ground_problem, forces, nt=4, checkpoint_every=2,
        on_checkpoint=lambda doc: saved_auto.update(doc), **kw
    )
    with pytest.raises(ValueError, match="predictor"):
        run_method(
            ground_problem, forces, nt=4, predictor="aitken",
            start_state=saved_auto, **kw
        )


def test_aitken_omega_survives_roundtrip():
    """The relaxation factor is part of the predictor state: a
    non-default omega reached by observation survives save/load."""
    import numpy as np

    from repro.predictor.aitken import AitkenPredictor

    rng = np.random.default_rng(7)
    p = AitkenPredictor(12, 0.01)
    for _ in range(6):
        p.predict()
        p.observe(rng.normal(size=12), rng.normal(size=12))
    assert p.omega != 1.0  # the secant update actually moved it
    q = AitkenPredictor(12, 0.01)
    q.load_state_dict(canonical(p.state_dict()))
    assert q.omega == p.omega
    assert np.array_equal(q.predict(), p.predict())


def test_iqn_history_survives_roundtrip():
    """The IQN-ILS correction window (and the earned s_effective) is
    part of the predictor state."""
    import numpy as np

    from repro.predictor.iqn import IQNILSPredictor

    rng = np.random.default_rng(11)
    p = IQNILSPredictor(12, 0.01, window=4)
    for _ in range(8):
        p.predict()
        p.observe(rng.normal(size=12), rng.normal(size=12))
    assert p.s_effective == 4  # window earned in full
    q = IQNILSPredictor(12, 0.01, window=4)
    q.load_state_dict(canonical(p.state_dict()))
    assert q.s_effective == p.s_effective
    assert np.array_equal(q.predict(), p.predict())
