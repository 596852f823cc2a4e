"""The per-(case, step) force cache.

The bug under test: the pipeline used to evaluate every case's source
force twice per step — once in ``predict`` (the predictor's ``f_next``)
and once in ``solve`` (the RHS build).  For streaming sources that is
both wasted work and a correctness hazard for stateful sources.
:meth:`repro.core.pipeline.CaseSet.forces_at` now evaluates each
(case, step) exactly once into a reused per-set buffer shared by both
phases — and evaluation no longer allocates per step.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.methods import run_method
from repro.core.pipeline import CaseSet, HeterogeneousPipeline
from repro.hardware.power import PowerModel
from repro.hardware.roofline import DeviceModel
from repro.hardware.specs import SINGLE_GH200
from repro.hardware.transfer import TransferModel
from repro.predictor.datadriven import DataDrivenPredictor


class CountingSource:
    """Streaming source that tallies evaluations per step."""

    def __init__(self, inner):
        self.inner = inner
        self.calls: dict[int, int] = {}

    def evaluate(self, it, out):
        self.calls[it] = self.calls.get(it, 0) + 1
        return self.inner.evaluate(it, out)

    def window(self):
        return self.inner.window()

    def __call__(self, it):
        out = np.empty(self.inner.n_dofs)
        self.evaluate(it, out)
        return out

    def state_dict(self):
        return {}

    def load_state_dict(self, doc):
        pass


def _make_set(problem, forces, s=4):
    preds = [
        DataDrivenPredictor(problem.n_dofs, problem.dt, s_max=8,
                            n_regions=4, s=s)
        for _ in forces
    ]
    return CaseSet(problem, forces=forces, predictors=preds,
                   op_kind="ebe", eps=1e-8)


def _make_pipeline(problem, forces):
    r = len(forces) // 2
    module = SINGLE_GH200
    return HeterogeneousPipeline(
        set_a=_make_set(problem, forces[:r]),
        set_b=_make_set(problem, forces[r:]),
        cpu=DeviceModel(module.cpu),
        gpu=DeviceModel(module.gpu),
        power=PowerModel(module, cpu_load=0.5, gpu_load=1.0),
        c2c=TransferModel.c2c(module),
    )


def test_force_evaluated_exactly_once_per_case_step(
    ground_problem, make_forces
):
    """Across a pipeline run, every (case, step) force is computed
    exactly once — predict and solve share one evaluation."""
    nt = 6
    counting = [CountingSource(f) for f in make_forces(ground_problem, 4)]
    pipe = _make_pipeline(ground_problem, counting)
    pipe.run(nt)
    for k, src in enumerate(counting):
        in_b = k >= 2
        # set A consumes steps 1..nt; set B additionally evaluates the
        # nt+1 lookahead its pipelined predictor needs
        want = set(range(1, nt + 2)) if in_b else set(range(1, nt + 1))
        assert set(src.calls) == want, (k, sorted(src.calls))
        assert all(n == 1 for n in src.calls.values()), (k, src.calls)


def test_force_cache_survives_resume(ground_problem, make_forces):
    """A checkpoint boundary must not double-evaluate the resume step."""
    counting = [CountingSource(f) for f in make_forces(ground_problem, 4)]
    pipe = _make_pipeline(ground_problem, counting)
    pipe.run(3)
    state = pipe.state_dict()
    pipe2 = _make_pipeline(ground_problem, counting)
    for src in counting:
        src.calls.clear()
    pipe2.load_state_dict(state)
    pipe2.run(2)
    for src in counting:
        assert all(n == 1 for n in src.calls.values()), src.calls


def test_baseline_driver_uses_streaming_evaluate(
    ground_problem, make_forces
):
    """The single-device baselines share the exactly-once contract."""
    counting = [CountingSource(f) for f in make_forces(ground_problem, 1)]
    nt = 6
    run_method(
        ground_problem, counting, nt=nt, method="crs-cg@cpu",
        s_range=(2, 4),
    )
    (src,) = counting
    assert set(src.calls) == set(range(1, nt + 1))
    assert all(n == 1 for n in src.calls.values()), src.calls


@pytest.mark.parametrize("maker", ["impulse", "bandlimited", "aftershocks"])
def test_evaluate_does_not_allocate_per_step(ground_problem, maker):
    """PR-1-style allocation regression: steady-state streaming
    evaluation reuses the caller's buffer — no per-step allocation of
    force-vector size (the old ``__call__`` allocated every step, and
    the aftershock path densified over all events even in quiet gaps)."""
    from repro.analysis.waves import BandlimitedImpulse, ImpulseForce
    from repro.workloads.library import AftershockSequence

    mesh, dt = ground_problem.mesh, ground_problem.dt
    f0 = 0.3 / (np.pi * dt)
    src = {
        "impulse": lambda: ImpulseForce.random(mesh, rng=1),
        "bandlimited": lambda: BandlimitedImpulse.random(mesh, dt, rng=2),
        "aftershocks": lambda: AftershockSequence.random(
            mesh, dt, rng=np.random.default_rng(3), amplitude=1e6, f0=f0
        ),
    }[maker]()
    n = ground_problem.n_dofs
    out = np.empty(n)
    start, stop = src.window()
    steps = list(range(0, stop + 20))
    for it in steps:  # warm-up: caches, ufunc buffers
        src.evaluate(it, out)
    tracemalloc.start()
    for it in steps:
        src.evaluate(it, out)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # far below one n-dof fp64 vector per evaluated step
    assert peak < 8 * n, (maker, peak, 8 * n)
