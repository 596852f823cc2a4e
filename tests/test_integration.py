"""Cross-module integration tests: the full paper workflow end-to-end
at miniature scale."""

import numpy as np
import pytest

from repro import run_method
from repro.analysis import BandlimitedImpulse, dominant_frequencies
from repro.analysis.metrics import rel_l2
from repro.cluster import DistributedEBE, PartitionInfo, partition_elements
from repro.sparse.cg import pcg
from repro.sparse.precond import BlockJacobi


@pytest.fixture(scope="module")
def workflow(ground_problem):
    """A small ensemble with surface recording, shared across tests."""
    problem = ground_problem
    dt = problem.dt
    forces = [
        BandlimitedImpulse.random(problem.mesh, dt, rng=i, amplitude=1e6,
                                  f0=0.3 / (np.pi * dt), cycles_to_onset=1.0)
        for i in range(4)
    ]
    surf = problem.mesh.surface_nodes()
    res = run_method(problem, forces, nt=40, method="ebe-mcg@cpu-gpu",
                     s_range=(4, 12), waveform_dofs=3 * surf + 2)
    return problem, forces, res


def test_ensemble_to_fdd_pipeline(workflow):
    """Problem -> ensemble run -> recorded waveforms -> FDD, without
    any intermediate file or manual glue."""
    problem, _, res = workflow
    w = res.waveforms
    assert w.shape[0] == 4 and w.shape[1] == 40
    tail = w[:, 10:, :].transpose(0, 2, 1)
    fs = 1.0 / problem.dt
    doms = dominant_frequencies(tail, fs, nperseg=16, band=(0.1, 0.45 * fs))
    assert np.all(doms > 0)
    assert np.all(np.isfinite(doms))


def test_solutions_satisfy_discrete_equations(workflow):
    """Replaying the final state through the effective system: the
    last step's solution must satisfy A u = b to the CG tolerance."""
    problem, forces, res = workflow
    # rebuild the last step's RHS from the state before it: rerun case 0
    from repro.core.pipeline import CaseSet
    from repro.predictor.datadriven import DataDrivenPredictor

    cs = CaseSet(
        problem, forces=[forces[0]],
        predictors=[DataDrivenPredictor(problem.n_dofs, problem.dt,
                                        s_max=12, n_regions=4, s=4)],
        op_kind="ebe",
    )
    for it in range(1, 40):
        g, _ = cs.predict(it)
        cs.solve(it, g)
    state_before = cs.states[0].copy()
    b = problem.rhs(forces[0](40), state_before, kind="ebe")
    g, _ = cs.predict(40)
    cs.solve(40, g)
    u40 = cs.states[0].u
    r = b - problem.ebe_operator() @ u40
    assert np.linalg.norm(r) <= 1e-7 * np.linalg.norm(b)


def test_partitioned_solver_reaches_same_solution(workflow):
    """Solving with the distributed operator gives the same answer as
    the global one — the multi-node solver is the single-node solver."""
    problem, forces, _ = workflow
    info = PartitionInfo(problem.mesh, partition_elements(problem.mesh, 4))
    dist = DistributedEBE.from_elements(problem.element_matrices("A"), info)
    rng = np.random.default_rng(5)
    b = rng.standard_normal(problem.n_dofs)
    b[problem.fixed_dofs] = 0.0
    M = BlockJacobi(dist.diagonal_blocks())
    r1 = pcg(dist, b, precond=M, eps=1e-10)
    r2 = pcg(problem.ebe_operator(), b, precond=problem.preconditioner(),
             eps=1e-10)
    assert rel_l2(r1.x, r2.x) < 1e-7
    assert abs(int(r1.iterations[0]) - int(r2.iterations[0])) <= 2


def test_energy_decays_in_free_vibration(workflow):
    """Physical sanity: with damping and absorbing boundaries, total
    mechanical energy decreases once forcing stops."""
    problem, forces, _ = workflow
    from repro.core.pipeline import CaseSet
    from repro.predictor.adams_bashforth import AdamsBashforth

    cs = CaseSet(problem, forces=[forces[0]],
                 predictors=[AdamsBashforth(problem.n_dofs, problem.dt)],
                 op_kind="crs")
    M = problem.mass_operator("crs")

    energies = []
    quiet = forces[0].quiet_after_step
    for it in range(1, quiet + 16):
        g, _ = cs.predict(it)
        cs.solve(it, g)
        s = cs.states[0]
        e_kin = 0.5 * s.v @ (M @ s.v)
        energies.append(e_kin)
    # kinetic energy at the end is below its post-forcing peak
    post = energies[quiet:]
    assert post[-1] < max(post)


def test_methods_agree_on_physics(ground_problem):
    """All four methods produce the same displacement history for the
    same case (they differ only in scheduling/storage)."""
    problem = ground_problem
    f = BandlimitedImpulse.random(problem.mesh, problem.dt, rng=9,
                                  amplitude=1e6)
    outs = {}
    outs["cpu"] = run_method(problem, [f], nt=8, method="crs-cg@cpu")
    outs["gpu"] = run_method(problem, [f], nt=8, method="crs-cg@gpu")
    u_ref = outs["cpu"].final_states[0].u
    scale = np.abs(u_ref).max()
    for name, r in outs.items():
        np.testing.assert_allclose(r.final_states[0].u, u_ref, rtol=0,
                                   atol=1e-10 * scale, err_msg=name)
