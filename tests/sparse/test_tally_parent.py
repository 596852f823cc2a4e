"""The modeled tally of a solve, pinned number for number to the parent.

``fixtures/tally_parent.json`` was written once, by the code of commit
b452a4e — the last one that charged the operator, the preconditioner
and ``cg.vec`` from freshly built ``KernelWork`` objects on every
iteration.  Charging cached tuples, and ``cg.vec`` once per solve as
``loop_iterations`` calls, must reproduce every flop, byte and call
count exactly (``==``, no tolerance): the modeled times and energies of
every table derive from these numbers.  Never regenerate the fixture.

``fixtures/tally_dist_parent.json`` is its sibling for the two
part-local solves that file does not reach — the global two-grid
preconditioner and a ``max_iter=3`` cap, both at nparts 2 — written
once by the code of commit b51c09d, the last one where
``distributed_pcg`` ran its own copy of the CG loop.  Beside the tally
it pins a SHA-256 of every array of the result, so the one loop must
reproduce that solver's bits, not only its bookkeeping.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.cluster.halo import DistributedEBE
from repro.cluster.partition import PartitionInfo, partition_elements
from repro.sparse import traffic
from repro.sparse.cg import pcg
from repro.sparse.distributed import distributed_pcg
from repro.util import counters

FIXTURES = Path(__file__).parent / "fixtures"
PINNED = {
    name: pinned
    for file in ("tally_parent.json", "tally_dist_parent.json")
    for name, pinned in json.loads((FIXTURES / file).read_text()).items()
}
DIGESTED = ("x", "iterations", "converged", "initial_relres", "final_relres")

PRECISIONS = ("fp64", "fp32", "fp21")


def _rhs(problem, r, seed=11):
    B = np.random.default_rng(seed).standard_normal((problem.n_dofs, r))
    B[problem.fixed_dofs, :] = 0.0
    return B


def _operator(problem, kind, precision=None):
    make = problem.crs_operator if kind == "crs" else problem.ebe_operator
    return make(precision=precision)


def _pcg_case(problem, kind, r, precision=None, **kwargs):
    """``run()`` of one fused solve; operands are built out of scope."""
    A = _operator(problem, kind, precision)
    M = problem.preconditioner(precision=precision)
    B = _rhs(problem, r)
    if kwargs.pop("exact_x0", False):
        X0 = _rhs(problem, r, seed=12)
        B = A.matvec(X0)  # the residual of x0 is then exactly zero
        kwargs["x0"] = X0
    if kwargs.pop("zero_rhs", False):
        B = np.zeros_like(B)
    return lambda: pcg(A, B, precond=M, precision=precision, **kwargs)


def _dist_case(problem, nparts, precision=None, twogrid=False, **kwargs):
    info = PartitionInfo(problem.mesh, partition_elements(problem.mesh, nparts))
    dist = DistributedEBE.from_elements(problem.Ae, info, precision=precision)
    B = _rhs(problem, 3)
    if twogrid:
        kwargs["precond"] = problem.twogrid_preconditioner()
    return lambda: distributed_pcg(dist, B, eps=1e-8, **kwargs)


def solve_cases(small_problem, ground_problem):
    """name -> ``run()`` for every pinned solve."""
    cases = {}
    for kind in ("crs", "ebe"):
        for r in (1, 4):
            for precision in PRECISIONS:
                cases[f"pcg-{kind}-r{r}-{precision}"] = _pcg_case(
                    small_problem, kind, r, precision)
        cases[f"pcg-{kind}-exact-x0"] = _pcg_case(
            small_problem, kind, 2, exact_x0=True)
        cases[f"pcg-{kind}-zero-rhs"] = _pcg_case(
            small_problem, kind, 2, zero_rhs=True)
        cases[f"pcg-{kind}-capped-3"] = _pcg_case(
            small_problem, kind, 4, max_iter=3)
    for nparts in (1, 2, 4):
        cases[f"dist-n{nparts}-fp64"] = _dist_case(ground_problem, nparts)
    cases["dist-n2-fp21"] = _dist_case(ground_problem, 2, "fp21")
    cases["dist-n2-twogrid"] = _dist_case(ground_problem, 2, twogrid=True)
    cases["dist-n2-capped-3"] = _dist_case(ground_problem, 2, max_iter=3)
    return cases


def measure(run):
    """``{"loop_iterations", "records": {tag: [flops, bytes, calls]},
    "digests": {field: sha256}}`` of one solve under a fresh tally."""
    with counters.tally_scope() as tally:
        res = run()
    return {
        "loop_iterations": int(res.loop_iterations),
        "records": {tag: [rec.flops, rec.bytes, rec.calls]
                    for tag, rec in sorted(tally.records.items())},
        "digests": {
            name: hashlib.sha256(
                np.ascontiguousarray(getattr(res, name)).tobytes()).hexdigest()
            for name in DIGESTED
        },
    }


@pytest.fixture(scope="module")
def cases(small_problem, ground_problem):
    return solve_cases(small_problem, ground_problem)


def test_fixture_names_every_case(cases):
    assert sorted(PINNED) == sorted(cases)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_tally_equals_parent(cases, name):
    pinned = PINNED[name]
    got = measure(cases[name])
    assert got["loop_iterations"] == pinned["loop_iterations"]
    assert got["records"] == pinned["records"]
    if "digests" in pinned:  # the sibling fixture pins the bits too
        assert got["digests"] == pinned["digests"]
    if name.endswith(("exact-x0", "zero-rhs")):
        assert got["loop_iterations"] == 0
    if name.endswith("capped-3"):
        assert got["loop_iterations"] == 3


# ---------------------------------------------- bookkeeping per solve
def _charges_during(monkeypatch, run):
    """Tags of every ``counters.charge`` invocation ``run()`` makes."""
    seen = []
    real = counters.charge

    def spy(tag, *args, **kwargs):
        seen.append(tag)
        return real(tag, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(counters, "charge", spy)
        res = run()
    return seen, res


@pytest.mark.parametrize("name", [
    "pcg-crs-r1-fp64", "pcg-ebe-r4-fp21", "pcg-crs-capped-3",
    "pcg-crs-exact-x0", "pcg-ebe-zero-rhs", "dist-n1-fp64", "dist-n4-fp64",
])
def test_cg_vec_is_charged_once_per_solve(cases, monkeypatch, name):
    """One ``cg.vec`` charge per (part-local) vector set when the loop
    ran, none when it did not — never one per iteration."""
    seen, res = _charges_during(monkeypatch, cases[name])
    sets = int(name.split("-n")[1][0]) if name.startswith("dist") else 1
    assert seen.count("cg.vec") == (sets if res.loop_iterations else 0)
    if name.endswith(("exact-x0", "zero-rhs")):
        assert res.loop_iterations == 0
    else:
        assert res.loop_iterations >= 3


@pytest.mark.parametrize("kind", ["crs", "ebe"])
def test_no_kernel_work_built_inside_the_loop(small_problem, monkeypatch, kind):
    """Warm solves build the same number of ``KernelWork`` objects at 4
    and at 40 iterations: the operator and preconditioner charge cached
    tuples and the vector traffic is priced once after the loop."""
    built = []

    class Counted(traffic.KernelWork):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(traffic, "KernelWork", Counted)
    counts = []
    for max_iter in (2, 4, 40):  # the first solve warms the caches
        run = _pcg_case(small_problem, kind, 4, eps=1e-30, max_iter=max_iter)
        del built[:]
        with counters.tally_scope():
            assert run().loop_iterations == max_iter
        counts.append(len(built))
    assert counts[1] == counts[2]
