"""The two-lane heterogeneous step is invisible in every output.

``HeterogeneousPipeline`` runs set B's chain (solve, then the next
step's predict) in a forked worker process while set A predicts and
solves in the caller's, once a set's ``n_dofs * r`` reaches
``MIN_LANE_WORK``.  Here the gate is forced open (``MIN_LANE_WORK = 0``);
records, final states, waveforms, the modeled timeline and a mid-run
checkpoint must equal the one-lane run's byte for byte, so the worker's
replies and the set B snapshot it hands back when a ``run`` call ends
lose nothing.  Every solve appends its process id to a file: the
one-lane run solves in this process only, the two-lane run in a second
one too, and no worker outlives the ``run_method`` call that made it.
"""

from __future__ import annotations

import multiprocessing
import os

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

STEPS, EVERY = 4, 2  # two run() calls: step 2 and step 4 run in the worker
NEVER = float("inf")


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


def _solving_pids(monkeypatch, path):
    """Make every solve append its process id to ``path``; returns the
    reader of the ids appended so far."""
    solve = CaseSet.solve

    def witnessed_solve(self, it, guesses):
        with open(path, "a") as f:
            f.write(f"{os.getpid()}\n")
        return solve(self, it, guesses)

    monkeypatch.setattr(CaseSet, "solve", witnessed_solve)
    return lambda: {int(line) for line in path.read_text().split()}


def _assert_reaped(pids):
    """Every process but this one is a child already collected: no
    worker outlives the run that made it."""
    for pid in pids - {os.getpid()}:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _journal(monkeypatch, tmp_path, gate, problem, forces, method,
             steps=STEPS, every=EVERY, s_range=(2, 4), **kw):
    """One run at ``MIN_LANE_WORK = gate`` as journal bytes: its mid-run
    checkpoints, then its records, timeline, final u/v/a and waveforms;
    and the ids of the processes that solved."""
    monkeypatch.setattr(pipeline, "MIN_LANE_WORK", gate)
    pids = _solving_pids(monkeypatch, tmp_path / f"{gate}.pids")
    path = tmp_path / f"{gate}.jsonl"

    def flush(state):
        append_campaign_checkpoint({"key": "k", "kind": "method", "params": {},
                                    "step": state["step"], "state": state}, path)

    result = run_method(problem, forces, steps, method, s_range=s_range,
                        checkpoint_every=every, on_checkpoint=flush, **kw)
    flush({"step": steps, "records": [r.to_dict() for r in result.records],
           "timeline": result.timeline.state_dict(),
           "final": [[s.u, s.v, s.a] for s in result.final_states],
           "waves": result.waveforms})
    return path.read_bytes(), pids()


def _assert_lanes_invisible(monkeypatch, tmp_path, problem, forces, method,
                            gate=0, runs=2, **kw):
    one, pids = _journal(monkeypatch, tmp_path, NEVER, problem, forces,
                         method, **kw)
    assert pids == {os.getpid()}
    two, pids = _journal(monkeypatch, tmp_path, gate, problem, forces,
                         method, **kw)
    assert len(pids) == 1 + runs  # here, and one worker per run() call
    _assert_reaped(pids)
    assert two == one


@pytest.mark.parametrize("precision", ["fp64", "fp21"])
@pytest.mark.parametrize("method, nparts", [  # the partitioned solve is EBE-only
    # every solve is block-Jacobi PCG; the ids keep the ``bj`` tag they
    # had while a second preconditioner family was swept here
    pytest.param("ebe-mcg@cpu-gpu", 1, id="ebe-mcg@cpu-gpu-1-bj"),
    pytest.param("ebe-mcg@cpu-gpu", 2, id="ebe-mcg@cpu-gpu-2-bj"),
    pytest.param("crs-cg@cpu-gpu", 1, id="crs-cg@cpu-gpu-1-bj")])
def test_two_lanes_are_byte_identical_to_one(monkeypatch, tmp_path, problems,
                                             method, nparts, precision):
    problem = problems["linear"]
    _assert_lanes_invisible(monkeypatch, tmp_path, problem,
                            _forces(problem, "linear"), method,
                            precision=precision, nparts=nparts)


@pytest.mark.parametrize("kind", ["nonlinear", "aftershocks", "grouped"])
def test_material_updates_sources_and_classes_under_two_lanes(
        monkeypatch, tmp_path, problems, kind):
    problem = problems[kind]
    _assert_lanes_invisible(monkeypatch, tmp_path, problem,
                            _forces(problem, kind), "ebe-mcg@cpu-gpu")


def test_waveforms_under_two_lanes(monkeypatch, tmp_path, problems):
    """Set B's rows at ``waveform_dofs`` come back with every reply."""
    problem = problems["linear"]
    _assert_lanes_invisible(monkeypatch, tmp_path, problem,
                            _forces(problem, "linear"), "ebe-mcg@cpu-gpu",
                            waveform_dofs=np.arange(0, problem.n_dofs, 17))


def test_the_worker_follows_the_controller(monkeypatch, tmp_path, problems):
    """Two ``run`` calls of 4 steps, 3 of each in the worker: the
    controller lengthens ``s`` every step, past the value the fork
    inherited, and set B's predictors follow it there — up to the last
    step's update, which the checkpoint after each call holds."""
    problem = problems["linear"]
    _assert_lanes_invisible(monkeypatch, tmp_path, problem,
                            _forces(problem, "linear"), "ebe-mcg@cpu-gpu",
                            steps=8, every=4, s_range=(2, 32))


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
                        "ebe-mcg@cpu-gpu", s_range=(2, 4))
    return b"".join(s.u.tobytes() for s in result.final_states)


def test_a_fork_child_runs_two_lanes_after_its_parent(monkeypatch):
    """A worker is a child of one ``run`` call, gone when it returns; a
    daemonic pool worker may fork one too (``multiprocessing.Process``
    could not)."""
    monkeypatch.setattr(pipeline, "MIN_LANE_WORK", 0)
    here = _lane_run()
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply_async(_lane_run).get(timeout=30) == here


def _assert_source_error_reraised(monkeypatch, tmp_path, case):
    """Case ``case``'s source fails at step 3: its error leaves
    ``run_method`` with its own type and message, and the worker is
    collected first."""
    monkeypatch.setattr(pipeline, "MIN_LANE_WORK", 0)
    pids = _solving_pids(monkeypatch, tmp_path / "pids")
    problem = _problem()
    forces = _forces(problem, "linear")
    inner = forces[case]

    def failing(it):
        if it == 3:
            raise RuntimeError("source failed at step 3")
        out = np.empty(problem.n_dofs)
        inner.evaluate(it, out)
        return out

    forces[case] = failing
    with pytest.raises(RuntimeError, match="^source failed at step 3$"):
        run_method(problem, forces, STEPS, "ebe-mcg@cpu-gpu", s_range=(2, 4))
    assert len(pids()) == 2
    _assert_reaped(pids())


def test_a_lane_error_reraises_after_both_lanes_end(monkeypatch, tmp_path):
    """Set B's source (case 3) fails in the worker process."""
    _assert_source_error_reraised(monkeypatch, tmp_path, 3)


def test_a_set_a_error_leaves_after_the_worker_is_reaped(monkeypatch,
                                                         tmp_path):
    """Set A's source (case 0) fails while the worker steps set B."""
    _assert_source_error_reraised(monkeypatch, tmp_path, 0)
