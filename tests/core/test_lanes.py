"""The two-lane heterogeneous step is invisible in every output.

``HeterogeneousPipeline`` runs set B's chain (solve, then the next
step's predict) on a second thread while set A predicts and solves on
the caller's, once a set's ``n_dofs * r`` reaches ``MIN_LANE_WORK``.
Here the gate is forced open (``MIN_LANE_WORK = 0``) and the interpreter
switches threads every 10 us, so the lanes interleave finely through
every buffer both sets reach; records, final states, the modeled
timeline and a mid-run checkpoint must equal the one-lane run's byte
for byte.  Every buffer both sets reach is a
``repro.util.lanes.LaneLocal``; sharing the tally stack, the EBE element
buffers or the two-grid or partitioned staging again fails here.  (The
backend's column-scaling scratch, reached by the grouped ``(4, 4, 2)``
problem, races only within one microseconds-long multiply: too narrow
a window to fail reliably at these sizes.)
"""

from __future__ import annotations

import multiprocessing
import sys
import threading

import numpy as np
import pytest

from repro.analysis.waves import BandlimitedImpulse
from repro.core import pipeline
from repro.core.methods import run_method
from repro.core.pipeline import CaseSet
from repro.fem.nonlinear import EquivalentLinearMaterial
from repro.io.results import append_campaign_checkpoint
from repro.sparse import ebe
from repro.workloads.ground import build_ground_problem, stratified_model
from repro.workloads.scenario import scenario_by_name

STEPS, EVERY = 4, 2  # two run() calls: steps 2 and 4 take two lanes
NEVER = float("inf")


@pytest.fixture(autouse=True)
def fine_switching():
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(old)


def _problem(material=None):
    return build_ground_problem(stratified_model(), resolution=(2, 2, 2),
                                material=material)


@pytest.fixture(scope="module")
def problems():
    linear = _problem()
    with pytest.MonkeyPatch.context() as m:  # class-stored at a small size
        m.setattr(ebe, "MIN_MEAN_CLASS_SIZE", 1)
        # 1215 rows: the class GEMMs and the backend's wide column scaling
        grouped = build_ground_problem(stratified_model(), resolution=(4, 4, 2))
    return {
        "linear": linear,
        "nonlinear": _problem(EquivalentLinearMaterial(gamma_ref=1e-7,
                                                       update_interval=2)),
        "aftershocks": linear,
        "grouped": grouped,
    }


def _forces(problem, kind, n_cases=4):
    if kind == "aftershocks":
        wave = {"amplitude": 1e6, "f0_factor": 0.3, "cycles_to_onset": 1.0}
        return scenario_by_name("aftershocks")().forces(problem, wave, seed=0,
                                                        n_cases=n_cases)
    return [BandlimitedImpulse.random(problem.mesh, problem.dt, rng=i,
                                      amplitude=1e6,
                                      f0=0.3 / (np.pi * problem.dt),
                                      cycles_to_onset=0.8)
            for i in range(n_cases)]


def _journal(monkeypatch, tmp_path, gate, problem, forces, method, **kw):
    """One run at ``MIN_LANE_WORK = gate`` as journal bytes: its mid-run
    checkpoint, then its records, timeline and final u/v/a; and whether
    any solve ran off the caller's thread."""
    monkeypatch.setattr(pipeline, "MIN_LANE_WORK", gate)
    solve, threads = CaseSet.solve, set()

    def traced_solve(self, it, guesses):
        threads.add(threading.current_thread())
        return solve(self, it, guesses)

    monkeypatch.setattr(CaseSet, "solve", traced_solve)
    path = tmp_path / f"{gate}.jsonl"

    def flush(state):
        append_campaign_checkpoint({"key": "k", "kind": "method", "params": {},
                                    "step": state["step"], "state": state}, path)

    result = run_method(problem, forces, STEPS, method, s_range=(2, 4),
                        backend="numpy", checkpoint_every=EVERY,
                        on_checkpoint=flush, **kw)
    flush({"step": STEPS, "records": [r.to_dict() for r in result.records],
           "timeline": result.timeline.state_dict(),
           "final": [[s.u, s.v, s.a] for s in result.final_states]})
    return path.read_bytes(), threads != {threading.main_thread()}


def _assert_lanes_invisible(monkeypatch, tmp_path, problem, forces, method,
                            gate=0, **kw):
    one, off_main = _journal(monkeypatch, tmp_path, NEVER, problem, forces,
                             method, **kw)
    assert not off_main
    two, off_main = _journal(monkeypatch, tmp_path, gate, problem, forces,
                             method, **kw)
    assert off_main  # the lanes did run
    assert two == one


@pytest.mark.parametrize("precision", ["fp64", "fp21"])
@pytest.mark.parametrize("precond", ["bj", "twogrid"])
@pytest.mark.parametrize("method, nparts", [  # the partitioned solve is EBE-only
    ("ebe-mcg@cpu-gpu", 1), ("ebe-mcg@cpu-gpu", 2), ("crs-cg@cpu-gpu", 1)])
def test_two_lanes_are_byte_identical_to_one(monkeypatch, tmp_path, problems,
                                             method, nparts, precond, precision):
    problem = problems["linear"]
    _assert_lanes_invisible(monkeypatch, tmp_path, problem,
                            _forces(problem, "linear"), method,
                            precond=precond, precision=precision, nparts=nparts)


@pytest.mark.parametrize("kind", ["nonlinear", "aftershocks", "grouped"])
def test_material_updates_sources_and_classes_under_two_lanes(
        monkeypatch, tmp_path, problems, kind):
    problem = problems[kind]
    _assert_lanes_invisible(monkeypatch, tmp_path, problem,
                            _forces(problem, kind), "ebe-mcg@cpu-gpu")


def test_the_headline_mesh_takes_two_lanes_at_the_default_gate(monkeypatch,
                                                                tmp_path):
    """``hetero-3k``'s shape — the grouped ``(6, 6, 3)`` mesh, 8 cases —
    takes two lanes at the default ``MIN_LANE_WORK``, and they stay
    invisible."""
    problem = build_ground_problem(stratified_model(), resolution=(6, 6, 3))
    assert problem.ebe_operator().classes is not None
    _assert_lanes_invisible(monkeypatch, tmp_path, problem,
                            _forces(problem, "linear", n_cases=8),
                            "ebe-mcg@cpu-gpu", gate=pipeline.MIN_LANE_WORK)


def _lane_run() -> bytes:
    problem = _problem()
    result = run_method(problem, _forces(problem, "linear"), STEPS,
                        "ebe-mcg@cpu-gpu", s_range=(2, 4), backend="numpy")
    return b"".join(s.u.tobytes() for s in result.final_states)


def test_a_fork_child_runs_two_lanes_after_its_parent(monkeypatch):
    """A lane is a thread of one ``run`` call, gone when it returns: a
    fork child inherits no executor whose worker it lacks (a
    module-level one hangs here)."""
    monkeypatch.setattr(pipeline, "MIN_LANE_WORK", 0)
    here = _lane_run()
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply_async(_lane_run).get(timeout=30) == here


def test_a_lane_error_reraises_after_both_lanes_end(monkeypatch):
    monkeypatch.setattr(pipeline, "MIN_LANE_WORK", 0)
    problem = _problem()
    forces = _forces(problem, "linear")
    inner = forces[3]  # a set-B case

    def failing(it):
        if it == 3:
            raise RuntimeError("source failed at step 3")
        out = np.empty(problem.n_dofs)
        inner.evaluate(it, out)
        return out

    baseline = threading.active_count()
    with pytest.raises(RuntimeError, match="step 3"):
        run_method(problem, [*forces[:3], failing], STEPS, "ebe-mcg@cpu-gpu",
                   s_range=(2, 4), backend="numpy")
    assert threading.active_count() == baseline
