"""Equivalent-linear ground response through the one step driver.

The law is data of the problem (``ElasticProblem.material``) and the
step body (``CaseSet.solve``) applies it, so ``run_method`` steps a
nonlinear model under every method, schedule and checkpoint.

``fixtures/nonlinear_parent.json`` was written once by the deleted
``NonlinearDriver`` of commit bd44695 (SHA-256 of its final
displacements, G/G0 field and per-step iterations, EBE and CRS arm).
Never regenerate it: the one step driver must reproduce that driver.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.waves import BandlimitedImpulse
from repro.core.methods import run_method
from repro.core.partitioned import PartitionedCaseSet
from repro.core.pipeline import CaseSet
from repro.fem.nonlinear import EquivalentLinearMaterial
from repro.io.results import load_pipeline_state, save_pipeline_state
from repro.predictor.registry import build_predictor
from repro.util.counters import KernelTally
from repro.workloads.ground import build_ground_problem, stratified_model

PARENT = json.loads(
    (Path(__file__).parent / "fixtures" / "nonlinear_parent.json").read_text()
)
#: the parent driver's fixed predictor: data-driven, s = 8, 4 regions
PARENT_PREDICTOR = dict(predictor="data-driven", s_range=(8, 8), n_regions=4)


def _problem(**law):
    """The ``ground_problem`` model carrying an equivalent-linear law."""
    return build_ground_problem(
        stratified_model(), resolution=(4, 4, 2),
        material=EquivalentLinearMaterial(**law),
    )


def _force(problem, amplitude, seed=0):
    return BandlimitedImpulse.random(
        problem.mesh, problem.dt, rng=seed, amplitude=amplitude,
        f0=0.3 / (np.pi * problem.dt), cycles_to_onset=0.8,
    )


def _case_set(problem, op_kind, forces, cls=CaseSet, **kw):
    return cls(
        problem, forces=forces,
        predictors=[build_predictor("data-driven", problem.n_dofs, problem.dt,
                                    s_min=8, s_max=8, n_regions=4)
                    for _ in forces],
        op_kind=op_kind, **kw,
    )


def _step(cs, nt):
    """Advance ``cs`` ``nt`` steps: ``(merged solve tally, CG results,
    the steps whose material update swapped the problem)``."""
    tally, results, swaps = KernelTally(), [], []
    for it in range(1, nt + 1):
        before = cs.problem
        guess, _ = cs.predict(it)
        res, t = cs.solve(it, guess)
        tally.merge(t)
        results.append(res)
        if cs.problem is not before:
            swaps.append(it)
    return tally, results, swaps


def _sha(a, dtype) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=dtype).tobytes()).hexdigest()


@pytest.mark.parametrize("arm", ["ebe", "crs"])
def test_reproduces_the_parent_driver(arm):
    """The EBE arm is set A of ``ebe-mcg@cpu-gpu``, the CRS arm
    ``crs-cg@cpu``: both bit-identical to the deleted driver."""
    cfg = PARENT["config"]
    pb = _problem(gamma_ref=cfg["gamma_ref"],
                  update_interval=cfg["update_interval"])
    seeds = (0, 1) if arm == "ebe" else (0,)
    res = run_method(
        pb, [_force(pb, cfg["amplitude"], s) for s in seeds], nt=cfg["nt"],
        method="ebe-mcg@cpu-gpu" if arm == "ebe" else "crs-cg@cpu",
        **PARENT_PREDICTOR,
    )
    got = {
        "u": _sha(res.final_states[0].u, np.float64),
        "ratio": _sha(res.modulus_ratio[0], np.float64),
        "iterations": _sha([r.iterations[0] for r in res.records], np.int64),
    }
    assert got == {k: PARENT[arm][k] for k in got}
    assert res.modulus_ratio[0].min() == PARENT[arm]["min_ratio"]


def test_small_amplitude_stays_linear(ground_problem):
    """Tiny forcing -> strains far below gamma_ref -> no degradation,
    and the run solves the linear run's steps, bit for bit; only the
    strain evaluations add modeled solver time."""
    pb = _problem(gamma_ref=1e-3, update_interval=4)
    forces = [_force(pb, 1e-4, seed) for seed in (0, 1)]
    kw = dict(nt=12, method="ebe-mcg@cpu-gpu")
    nonlinear = run_method(pb, forces, **kw)
    linear = run_method(ground_problem, forces, **kw)
    assert linear.modulus_ratio is None
    assert [r.tolist() for r in nonlinear.modulus_ratio] == [[1.0] * pb.n_elems] * 2
    for a, b in zip(nonlinear.final_states, linear.final_states):
        assert np.array_equal(a.u, b.u)
    for a, b in zip(nonlinear.records, linear.records):
        assert (a.iterations.tolist(), a.relres) == (b.iterations.tolist(), b.relres)
        assert (a.t_solver > b.t_solver) == (a.step % 4 == 0)


def test_large_amplitude_degrades_modulus():
    """Strong forcing degrades G where strains concentrate; a fused set
    updates from the envelope of its cases' strains, once per update
    step and case."""
    pb = _problem(gamma_ref=1e-6, update_interval=4)
    cs = _case_set(pb, "ebe", [_force(pb, 1e7, seed) for seed in (0, 1)])
    tally, _, swaps = _step(cs, 16)
    assert swaps and all(it % 4 == 0 for it in swaps)
    assert cs.modulus_ratio.min() < 1.0
    assert np.isfinite(cs.displacements()).all()
    assert tally.calls("nonlinear.strain") == 2 * (16 // 4)


def test_crs_path_charges_reassembly(ground_problem):
    """One re-assembly per swap, priced on the set's own operator."""
    pb = _problem(gamma_ref=1e-7, update_interval=2)
    cs = _case_set(pb, "crs", [_force(pb, 1e7)])
    tally, _, swaps = _step(cs, 6)
    assert swaps
    nnzb = cs.problem.crs_operator(cs.precision).nnz_blocks
    assert tally.calls("assembly.crs") == len(swaps)
    assert tally.total_bytes("assembly.crs") == 76.0 * nnzb * len(swaps)


def test_ebe_path_charges_no_reassembly():
    pb = _problem(gamma_ref=1e-7, update_interval=2)
    cs = _case_set(pb, "ebe", [_force(pb, 1e7)])
    tally, _, swaps = _step(cs, 6)
    assert swaps
    assert tally.calls("assembly.crs") == 0


def test_records_complete():
    pb = _problem(gamma_ref=1e-7, update_interval=3)
    res = run_method(pb, [_force(pb, 1e5, seed) for seed in (0, 1)], nt=7,
                     method="crs-cg@cpu-gpu")
    assert [r.step for r in res.records] == list(range(1, 8))
    assert all((r.iterations > 0).all() for r in res.records)
    assert [r.shape for r in res.modulus_ratio] == [(pb.n_elems,)] * 2


def test_validation(ground_problem):
    pb = _problem()
    with pytest.raises(ValueError):
        _case_set(pb, "dense", [_force(pb, 1.0)])
    # a snapshot resumes only into a set that agrees on the material
    linear = _case_set(ground_problem, "ebe", [_force(pb, 1.0)])
    nonlinear = _case_set(pb, "ebe", [_force(pb, 1.0)])
    with pytest.raises(ValueError, match="material"):
        nonlinear.load_state_dict(linear.state_dict())
    with pytest.raises(ValueError, match="material"):
        linear.load_state_dict(nonlinear.state_dict())


@pytest.mark.parametrize("op_kind", ["crs", "ebe"])
def test_each_arm_solves_on_its_own_operator(op_kind):
    """The CRS arm solves and builds its RHS on block CRS (its tally
    holds ``spmv.crs`` and ``rhs.spmv``, no EBE sweep) and pays exactly
    one re-assembly per material update; the EBE arm the reverse."""
    nt = 6
    pb = _problem(gamma_ref=1e-7, update_interval=2)
    cs = _case_set(pb, op_kind, [_force(pb, 1e7)])
    tally, results, swaps = _step(cs, nt)
    tags = set(tally.records)
    ebe = {t for t in tags if t.startswith("spmv.ebe")}
    crs = tags & {"spmv.crs", "rhs.spmv"}
    assert swaps
    if op_kind == "crs":
        assert crs == {"spmv.crs", "rhs.spmv"} and not ebe
        assert tally.calls("rhs.spmv") == 2 * nt
        assert tally.calls("spmv.crs") == sum(int(r.iterations[0]) + 1
                                              for r in results)
        assert tally.calls("assembly.crs") == len(swaps)
    else:
        assert ebe == {"spmv.ebe1"} and not crs
        assert tally.calls("assembly.crs") == 0


@pytest.mark.parametrize("method", ["crs-cg@cpu", "ebe-mcg@cpu-gpu"])
def test_resume_is_bit_identical_across_an_update(method, tmp_path):
    """A checkpoint taken before the first material update (step 3)
    and one taken after it (step 5) both resume to the straight run's
    records, final states and G/G0 fields."""
    pb = _problem(gamma_ref=1e-6, update_interval=4)
    forces = [_force(pb, 1e7, seed)
              for seed in ((0, 1) if "cpu-gpu" in method else (0,))]
    kw = dict(nt=10, method=method, s_range=(2, 4))
    straight = run_method(pb, forces, **kw)
    assert (straight.modulus_ratio[0] < 1.0).any()
    for every in (3, 5):
        flushes = []
        run_method(pb, forces, checkpoint_every=every,
                   on_checkpoint=flushes.append, **kw)
        state = flushes[0]["state"]
        first = state["set_a"] if "set_a" in state else state["sets"][0]
        assert (np.asarray(first["ratio"]) < 1.0).any() == (every > 4)
        path = save_pipeline_state(flushes[0], tmp_path / f"state{every}.json")
        resumed = run_method(pb, forces, start_state=load_pipeline_state(path), **kw)
        assert [r.to_dict() for r in resumed.records] == [
            r.to_dict() for r in straight.records], every
        for a, b in zip(resumed.final_states, straight.final_states):
            assert all(np.array_equal(x, y)
                       for x, y in ((a.u, b.u), (a.v, b.v), (a.a, b.a)))
        for a, b in zip(resumed.modulus_ratio, straight.modulus_ratio):
            assert np.array_equal(a, b)


def test_partitioned_run_solves_on_the_swapped_partition():
    """After an update the part-local solve runs on the secant
    problem's partition, and the ``nparts=2`` run agrees with the fused
    one to the partitioned solver's tolerance."""
    pb = _problem(gamma_ref=1e-6, update_interval=4)
    forces = [_force(pb, 1e7, seed) for seed in (0, 1)]
    kw = dict(nt=8, method="ebe-mcg@cpu-gpu")
    fused = run_method(pb, forces, **kw)
    parted = run_method(pb, forces, nparts=2, **kw)
    u_f = np.column_stack([s.u for s in fused.final_states])
    u_p = np.column_stack([s.u for s in parted.final_states])
    np.testing.assert_allclose(u_p, u_f, rtol=0, atol=1e-9 * np.abs(u_f).max())

    cs = _case_set(pb, "ebe", forces, cls=PartitionedCaseSet, nparts=2)
    first = cs.dist
    _, _, swaps = _step(cs, 4)
    assert swaps == [4]
    assert cs.dist is cs.problem.distributed_operator(2, cs.precision)
    assert cs.dist is not first
