"""What the one step driver guarantees under either schedule.

A solve whose right-hand side goes NaN never converges; the step's
record and the run's ``achieved_relres`` must say so.  Before the two
step loops became one, each folded a step's worst residual with its own
NaN-dropping ``max``: the sequential schedule recorded such a step as
converged (``relres == 0.0``, or the healthy neighbour's 9e-9), the
two-set schedule did or did not depending on which set held the bad
case, and ``achieved_relres`` dropped the NaN either way — every
``relres < eps`` gate passed on a diverged run.
"""

import math

import numpy as np
import pytest

from repro.core.methods import run_method
from repro.workloads.ground import build_ground_problem, stratified_model

NT = 3  # the force goes NaN at the last step: nothing downstream of
# the poisoned solve (controller, set B's carried guess) runs again


@pytest.fixture(scope="module")
def problem():
    return build_ground_problem(stratified_model(), resolution=(2, 2, 1))


def _poisoned(force, n_dofs):
    return lambda it: force(it) if it < NT else np.full(n_dofs, np.nan)


@pytest.mark.parametrize("method,bad", [
    ("crs-cg@cpu", 0),  # sequential schedule, one case per set
    ("ebe-mcg@cpu-gpu", 0),  # two-set schedule, bad case in set A
    ("ebe-mcg@cpu-gpu", 1),  # ... and in set B
])
def test_nan_solve_is_recorded_as_nan(problem, make_forces, method, bad):
    forces = make_forces(problem, 2)
    kw = dict(nt=NT, method=method, s_range=(2, 4))
    clean = run_method(problem, forces, **kw)
    assert clean.achieved_relres() < 1e-8

    forces[bad] = _poisoned(forces[bad], problem.n_dofs)
    result = run_method(problem, forces, **kw)
    assert math.isnan(result.records[-1].relres)
    assert math.isnan(result.achieved_relres())
    assert math.isnan(result.summary()["achieved_relres"])
    # the steps before it, and the healthy neighbour throughout, are
    # the unpoisoned run's
    assert [r.relres for r in result.records[:-1]] == [
        r.relres for r in clean.records[:-1]
    ]
    healthy = 1 - bad
    assert [r.iterations[healthy] for r in result.records] == [
        r.iterations[healthy] for r in clean.records
    ]
