"""Parity across engines: what the seam promises a substituted
engine.

* a fresh instance of the engine reproduces the shared one bit for bit
  (solves, every registered workload scenario, checkpoint resumes);
* a backend whose dot products sum in a different grouping still lands
  on the same solution to norm-scaled tolerance;
* modeled traffic (the roofline's input) is *exactly* independent of
  how the primitives execute — it is charged by the operator wrappers
  outside the seam.

The regrouping engine is test-local (``regrouped.py``): the one
engine's subclass whose ``colwise_dot`` sums in small row blocks, so
its reductions round differently even on test-sized systems.
"""

import numpy as np
import pytest
from regrouped import RowBlockedBackend

from repro.core.methods import run_method
from repro.io.golden import canonical, golden_diff
from repro.sparse import backend as backend_mod
from repro.sparse.backend import ArrayBackend
from repro.sparse.cg import pcg
from repro.sparse.precond import BlockJacobi
from repro.util.counters import tally_scope
from repro.workloads.scenario import scenario_by_name, scenario_names

NT = 6
WINDOW = (max(1, NT * 5 // 8), NT + 1)

#: the engines a parity contract runs on: a fresh instance of the
#: shared one (bit-identical), and the regrouping one (to tolerance)
ENGINES = {"numpy": ArrayBackend, "row-blocked": RowBlockedBackend}


@pytest.fixture
def use_engine(monkeypatch):
    """``use_engine(name)``: what runs next resolves the shared engine
    to a fresh ``ENGINES[name]`` instance."""
    def use(name):
        monkeypatch.setattr(backend_mod, "_SHARED", ENGINES[name]())
    return use


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
@pytest.mark.parametrize("name", ENGINES)
def test_pcg_parity_across_backends(name):
    A, B = _spd_system()
    ref = pcg(_DenseOp(A), B, eps=1e-10, max_iter=400)
    got = pcg(_DenseOp(A), B, eps=1e-10, max_iter=400,
              backend=ENGINES[name]())
    assert got.converged.all()
    if name == "numpy":
        assert got.x.tobytes() == ref.x.tobytes()
    scale = np.linalg.norm(ref.x, axis=0)
    np.testing.assert_allclose(got.x, ref.x, atol=1e-8 * scale.max())


def test_pcg_parity_under_regrouped_reductions():
    """A backend whose dot products genuinely round differently still
    lands on the same solution to norm-scaled tolerance."""
    A, B = _spd_system(seed=1)
    ref = pcg(_DenseOp(A), B, eps=1e-10, max_iter=400)
    bk = RowBlockedBackend()
    out, got_dot = np.empty(3), np.empty(3)
    bk.colwise_dot(B, B, got_dot)
    assert not np.array_equal(ArrayBackend().colwise_dot(B, B, out), got_dot)
    got = pcg(_DenseOp(A), B, eps=1e-10, max_iter=400, backend=bk)
    assert got.converged.all()
    scale = np.linalg.norm(ref.x, axis=0).max()
    np.testing.assert_allclose(got.x, ref.x, atol=1e-8 * scale)


@pytest.mark.parametrize("name", ENGINES)
@pytest.mark.parametrize("scenario", scenario_names())
def test_run_method_parity_on_every_scenario(scenario, name, use_engine):
    """Every engine reproduces every registered workload scenario's
    physics to norm-scaled tolerance (bit-exactly for a fresh instance
    of the shared engine)."""
    scen = scenario_by_name(scenario)()
    kw = dict(nt=4, method="ebe-mcg@cpu-gpu", s_range=(2, 4))

    def run():
        problem = scen.build_problem("stratified", (2, 2, 1))
        forces = scen.forces(problem, {}, seed=0, n_cases=2)
        return run_method(problem, forces, **kw)

    ref = run()
    use_engine(name)
    got = run()
    for s_ref, s_got in zip(ref.final_states, got.final_states):
        if name == "numpy":
            assert s_got.u.tobytes() == s_ref.u.tobytes()
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
    for name, bk in [("shared", None), ("blocked-64", RowBlockedBackend())]:
        with tally_scope() as t:
            res = pcg(_DenseOp(A), B, eps=1e-30, max_iter=12, precond=M,
                      backend=bk)
        assert res.loop_iterations == 12  # unconverged: count pinned
        tallies[name] = t.snapshot()
    ref = tallies["shared"]
    got = tallies["blocked-64"]
    assert set(ref) == set(got)
    for tag, rec in ref.items():
        assert got[tag].flops == rec.flops, tag
        assert got[tag].bytes == rec.bytes, tag
        assert got[tag].calls == rec.calls, tag


# ------------------------------------------ cross-engine checkpoints
@pytest.mark.parametrize("resume_backend", ENGINES)
def test_checkpoint_roundtrips_across_backends(
    resume_backend, ground_problem, make_forces, use_engine
):
    """A checkpoint saved on the shared engine resumes on another: the
    state header carries method/nparts/precision and no engine
    (checkpoints hold only fp64 host state)."""
    forces = make_forces(ground_problem, 2)
    kw = dict(nt=NT, method="ebe-mcg@cpu-gpu", s_range=(2, 4))
    straight = run_method(ground_problem, forces, **kw)

    saved = {}
    run_method(
        ground_problem, forces, checkpoint_every=3,
        on_checkpoint=lambda doc: saved.update(doc), **kw
    )
    assert "backend" not in saved  # engine-agnostic by construction
    use_engine(resume_backend)
    resumed = run_method(
        ground_problem, forces, start_state=canonical(saved), **kw
    )
    assert len(resumed.records) == NT
    if resume_backend == "numpy":
        assert golden_diff(_doc(straight), _doc(resumed)) == []
    else:
        for s_ref, s_got in zip(straight.final_states, resumed.final_states):
            scale = max(np.linalg.norm(s_ref.u), 1e-30)
            np.testing.assert_allclose(s_got.u, s_ref.u, atol=1e-9 * scale)
