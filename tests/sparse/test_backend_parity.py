"""Cross-backend parity: the contracts that make backends swappable.

* the reference ``numpy`` backend is bit-identical to the historical
  execution (the golden fixtures pin the full matrix; here the default
  resolution path is asserted directly);
* every other available backend agrees to norm-scaled tolerance on
  every registered workload scenario;
* modeled traffic (the roofline's input) is *exactly* backend
  independent — execution engines move wall time, never modeled time;
* checkpoints are backend-agnostic: state saved under one backend
  resumes under another.

``numpy-blocked`` is always available and — shrunk to a small block
size — genuinely regroups the reduction arithmetic, so the tolerance
contracts are exercised even where numba is not installed.
"""

import numpy as np
import pytest

from repro.core.methods import run_method
from repro.io.golden import canonical, golden_diff
from repro.sparse.backend import (
    BlockedNumpyBackend,
    available_backend_names,
    backend_by_name,
)
from repro.sparse.cg import pcg
from repro.sparse.precond import BlockJacobi
from repro.util.counters import tally_scope
from repro.workloads.scenario import scenario_by_name, scenario_names

NT = 6
WINDOW = (max(1, NT * 5 // 8), NT + 1)

#: every importable engine (numpy first = the reference), plus a
#: small-block blocked instance whose reductions round differently
#: even on test-sized systems.
PARITY_BACKENDS = list(available_backend_names())


def _small_block():
    bk = BlockedNumpyBackend()
    bk.block_rows = 64  # instance override: force multi-block rounding
    return bk


def _doc(result) -> dict:
    return canonical(
        {
            "summary": result.summary(WINDOW),
            "records": [r.to_dict() for r in result.records],
            "busy": {
                lane: result.timeline.busy_time(lane)
                for lane in ("cpu", "gpu", "c2c", "nic")
            },
        }
    )


def _spd_system(n=300, r=3, seed=0):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = Q @ np.diag(np.geomspace(1.0, 80.0, n)) @ Q.T
    B = rng.standard_normal((n, r))
    return A, B


class _DenseOp:
    def __init__(self, A):
        self.A = A
        self.shape = A.shape

    def matvec(self, x, out=None):
        return np.matmul(self.A, x, out=out)


# ------------------------------------------------------ solver parity
@pytest.mark.parametrize("name", PARITY_BACKENDS)
def test_pcg_parity_across_backends(name):
    A, B = _spd_system()
    ref = pcg(_DenseOp(A), B, eps=1e-10, max_iter=400,
              backend=backend_by_name("numpy"))
    got = pcg(_DenseOp(A), B, eps=1e-10, max_iter=400,
              backend=backend_by_name(name))
    assert got.converged.all()
    scale = np.linalg.norm(ref.x, axis=0)
    np.testing.assert_allclose(got.x, ref.x, atol=1e-8 * scale.max())


def test_pcg_parity_under_regrouped_reductions():
    """A backend whose dot products genuinely round differently still
    lands on the same solution to norm-scaled tolerance."""
    A, B = _spd_system(seed=1)
    ref = pcg(_DenseOp(A), B, eps=1e-10, max_iter=400)
    got = pcg(_DenseOp(A), B, eps=1e-10, max_iter=400,
              backend=_small_block())
    assert got.converged.all()
    scale = np.linalg.norm(ref.x, axis=0).max()
    np.testing.assert_allclose(got.x, ref.x, atol=1e-8 * scale)


@pytest.mark.parametrize("name", PARITY_BACKENDS)
@pytest.mark.parametrize("scenario", scenario_names())
def test_run_method_parity_on_every_scenario(scenario, name):
    """Every available backend reproduces every registered workload
    scenario's physics to norm-scaled tolerance (bit-exactly for the
    reference backend)."""
    scen = scenario_by_name(scenario)()
    kw = dict(nt=4, method="ebe-mcg@cpu-gpu", s_range=(2, 4))

    def run(backend):
        problem = scen.build_problem("stratified", (2, 2, 1))
        forces = scen.forces(problem, {}, seed=0, n_cases=2)
        return run_method(problem, forces, backend=backend, **kw)

    ref = run("numpy")
    got = run(name)
    for s_ref, s_got in zip(ref.final_states, got.final_states):
        scale = max(np.linalg.norm(s_ref.u), 1e-30)
        np.testing.assert_allclose(s_got.u, s_ref.u, atol=1e-9 * scale)


# --------------------------------------------- modeled-traffic parity
def test_modeled_traffic_exactly_backend_independent():
    """Same iteration count => identical tallies, to the last byte:
    traffic is charged by the operator wrappers outside the seam, so
    no backend can perturb the roofline's input."""
    A, B = _spd_system(seed=2)
    nb = A.shape[0] // 3
    diag = np.stack([A[3 * b:3 * b + 3, 3 * b:3 * b + 3] for b in range(nb)])
    M = BlockJacobi(diag)
    tallies = {}
    for name, bk in [
        ("numpy", backend_by_name("numpy")),
        ("blocked-64", _small_block()),
    ]:
        with tally_scope() as t:
            res = pcg(_DenseOp(A), B, eps=1e-30, max_iter=12, precond=M,
                      backend=bk)
        assert res.loop_iterations == 12  # unconverged: count pinned
        tallies[name] = t.snapshot()
    ref = tallies["numpy"]
    got = tallies["blocked-64"]
    assert set(ref) == set(got)
    for tag, rec in ref.items():
        assert got[tag].flops == rec.flops, tag
        assert got[tag].bytes == rec.bytes, tag
        assert got[tag].calls == rec.calls, tag


def test_run_method_bit_identical_below_block(ground_problem, make_forces):
    """On systems smaller than one reduction block, numpy-blocked
    performs the reference arithmetic exactly — full result documents
    (numerics, modeled times, power) match bit-for-bit."""
    forces = make_forces(ground_problem, 2)
    kw = dict(nt=NT, method="ebe-mcg@cpu-gpu", s_range=(2, 4))
    assert ground_problem.n_dofs < BlockedNumpyBackend.block_rows
    ref = run_method(ground_problem, forces, **kw)
    got = run_method(ground_problem, forces, backend="numpy-blocked", **kw)
    assert golden_diff(_doc(ref), _doc(got)) == []


# ------------------------------------------ cross-backend checkpoints
@pytest.mark.parametrize("resume_backend", PARITY_BACKENDS)
def test_checkpoint_roundtrips_across_backends(
    resume_backend, ground_problem, make_forces
):
    """A checkpoint saved under one backend resumes under another: the
    state header carries method/nparts/precision but deliberately no
    backend (checkpoints hold only fp64 host state)."""
    forces = make_forces(ground_problem, 2)
    kw = dict(nt=NT, method="ebe-mcg@cpu-gpu", s_range=(2, 4))
    straight = run_method(ground_problem, forces, **kw)

    saved = {}
    run_method(
        ground_problem, forces, backend="numpy-blocked", checkpoint_every=3,
        on_checkpoint=lambda doc: saved.update(doc), **kw
    )
    assert "backend" not in saved  # backend-agnostic by construction
    resumed = run_method(
        ground_problem, forces, backend=resume_backend,
        start_state=canonical(saved), **kw
    )
    assert len(resumed.records) == NT
    # below one block the blocked arithmetic is the reference
    # arithmetic, so the cross-backend resume is bit-identical too
    if resume_backend in ("numpy", "numpy-blocked"):
        assert golden_diff(_doc(straight), _doc(resumed)) == []
    else:
        for s_ref, s_got in zip(straight.final_states, resumed.final_states):
            scale = max(np.linalg.norm(s_ref.u), 1e-30)
            np.testing.assert_allclose(s_got.u, s_ref.u, atol=1e-9 * scale)
