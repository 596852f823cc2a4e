"""What ``pcg`` promises the layers around it, whatever its loop looks
like inside.

* **One operator application per call.**  The perf harness times
  ``BlockCRS.matvec``, ``EBEOperator.matvec`` and ``BlockJacobi.apply``
  by wrapping them on their classes, and reads a layer's ``*.calls``
  from those wrappers: a solve makes ``loop_iterations + 1`` operator
  applications (the initial residual, then one per iteration) and
  ``loop_iterations`` preconditioner applications — per part on a
  partitioned solve — every one through the class method.
* **A non-finite case closes at once.**  A column whose relative
  residual is NaN or infinite is closed (``converged`` False) at the
  iteration it turns non-finite, so one poisoned case of a fused block
  no longer spins the loop — and the tally — to ``max_iter``.
"""

import numpy as np
import pytest

from repro.sparse.bcrs import BlockCRS
from repro.sparse.cg import _mark_crossings, pcg
from repro.sparse.distributed import distributed_pcg
from repro.sparse.ebe import EBEOperator
from repro.sparse.precond import BlockJacobi
from repro.util import counters
from repro.workloads.ground import build_ground_problem, stratified_model


@pytest.fixture(scope="module")
def problems():
    return {res: build_ground_problem(stratified_model(), resolution=res)
            for res in [(2, 2, 1), (3, 3, 2), (6, 6, 3)]}


def _rhs(problem, r, seed=5):
    B = np.random.default_rng(seed).standard_normal((problem.n_dofs, r))
    B[problem.fixed_dofs, :] = 0.0
    return B


def _count_calls(monkeypatch, cls, name):
    """Wrap ``cls.name`` as the harness's tracer does; returns the list
    each call appends its ``out=`` flag to."""
    calls = []
    real = getattr(cls, name)

    def counted(self, *args, **kwargs):
        calls.append(kwargs.get("out") is not None)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


@pytest.mark.parametrize("kind,res,r", [
    pytest.param("crs", (2, 2, 1), 1, id="crs-r1"),
    pytest.param("ebe", (3, 3, 2), 2, id="ebe-stored-r2"),
    pytest.param("ebe", (6, 6, 3), 4, id="ebe-grouped-r4"),
    pytest.param("nparts2", (3, 3, 2), 2, id="nparts2"),
])
def test_each_application_is_one_class_method_call(problems, monkeypatch,
                                                   kind, res, r):
    problem = problems[res]
    B = _rhs(problem, r)
    if kind == "nparts2":
        dist = problem.distributed_operator(2)
        preconds = problem.part_preconditioners(2)

        def solve():
            return distributed_pcg(dist, B, local_preconds=preconds)
        op_cls, parts = EBEOperator, 2
    else:
        A = problem.crs_operator() if kind == "crs" else problem.ebe_operator()
        assert (kind == "ebe" and res == (6, 6, 3)) == (
            getattr(A, "classes", None) is not None)
        M = problem.preconditioner()

        def solve():
            return pcg(A, B[:, 0] if r == 1 else B, precond=M)
        op_cls, parts = (BlockCRS if kind == "crs" else EBEOperator), 1
    solve()  # warm: lazy plans and priced charges are made here
    applied = _count_calls(monkeypatch, op_cls, "matvec")
    preconditioned = _count_calls(monkeypatch, BlockJacobi, "apply")
    with counters.tally_scope() as tally:
        res_ = solve()
    n = res_.loop_iterations
    assert res_.converged.all() and n > 3
    assert len(applied) == parts * (n + 1) and all(applied)
    assert len(preconditioned) == parts * n and all(preconditioned)
    tag = "spmv.crs" if kind == "crs" else f"spmv.ebe{r}"
    assert tally.calls(tag) == parts * (n + 1)
    assert tally.calls("cg.precond") == parts * n


# ------------------------------------------------------ non-finite cases
@pytest.mark.parametrize("kind", ["crs", "ebe"])
def test_a_nan_rhs_closes_its_case_at_once(problems, kind):
    """``(3, 3, 2)``, r = 2, one NaN in case 1's right-hand side: the
    solve ends with the healthy case (it spun to ``max_iter`` before,
    charging every iteration), which keeps the bits it has beside a
    zero right-hand side."""
    problem = problems[(3, 3, 2)]
    A = problem.crs_operator() if kind == "crs" else problem.ebe_operator()
    M = problem.preconditioner()
    B = _rhs(problem, 2)
    B[:, 1] = 0.0
    healthy = pcg(A, B, precond=M)
    B[np.flatnonzero(B[:, 0])[0], 1] = np.nan
    with counters.tally_scope() as tally, np.errstate(invalid="ignore"):
        got = pcg(A, B, precond=M)
    assert got.loop_iterations <= got.iterations[0] + 1
    assert got.iterations[0] == healthy.iterations[0]
    assert got.iterations[1] == 0
    assert got.converged.tolist() == [True, False]
    assert np.isnan(got.final_relres[1]) and np.isnan(got.initial_relres[1])
    assert tally.calls("cg.vec") == got.loop_iterations
    assert got.x[:, 0].tobytes() == healthy.x[:, 0].tobytes()


class _PoisonedAt:
    """An operator whose ``call``-th application writes a NaN into
    column ``col`` of its result."""

    def __init__(self, A, call, col):
        self.A, self.call, self.col, self.calls = A, call, col, 0

    def matvec(self, x, out):
        self.A.matvec(x, out=out)
        self.calls += 1
        if self.calls == self.call:
            out[0, self.col] = np.nan
        return out


def test_a_case_that_turns_nan_mid_solve_closes_that_iteration(problems):
    """The NaN reaches the residual in the iteration whose product it
    poisons (call ``k + 1`` is iteration ``k``'s): the case closes
    there, unconverged, and the loop runs on only for the healthy one."""
    problem = problems[(3, 3, 2)]
    A, M = problem.ebe_operator(), problem.preconditioner()
    B = _rhs(problem, 2, seed=9)
    ref = pcg(A, B, precond=M)
    with np.errstate(invalid="ignore"):
        got = pcg(_PoisonedAt(A, call=6, col=1), B, precond=M)
    assert got.iterations.tolist() == [ref.iterations[0], 5]
    assert got.converged.tolist() == [True, False]
    assert got.loop_iterations == ref.iterations[0]
    assert got.x[:, 0].tobytes() == ref.x[:, 0].tobytes()
    assert np.isnan(got.x[:, 1]).any()


def test_an_infinite_residual_closes_like_a_nan():
    relres = np.array([np.inf, 0.5, np.nan, 1e-9])
    done = np.array([False, False, False, False])
    converged = done.copy()
    iterations = np.zeros(4, dtype=np.int64)
    closed = _mark_crossings(relres, 1e-8, done, converged, iterations, 7)
    assert closed == 3
    assert done.tolist() == [True, False, True, True]
    assert converged.tolist() == [False, False, False, True]
    assert iterations.tolist() == [7, 0, 7, 7]
    # closed columns stay closed, and keep their iteration
    assert _mark_crossings(relres, 1e-8, done, converged, iterations, 8) == 0
    assert iterations.tolist() == [7, 0, 7, 7]
