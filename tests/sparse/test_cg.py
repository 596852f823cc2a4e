"""Preconditioned CG (Algorithm 1): correctness, multi-RHS fusion,
and the allocation discipline of the fused hot loop."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse.cg import PCGWorkspace, pcg
from repro.sparse.precond import BlockJacobi
from repro.util import counters


class DenseOp:
    def __init__(self, A):
        self.A = np.asarray(A)
        self.shape = self.A.shape

    def matvec(self, x):
        return self.A @ x


def spd(n, seed=0, cond=50.0):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = np.geomspace(1.0, cond, n)
    return Q @ np.diag(d) @ Q.T


def test_solves_spd_system():
    A = spd(30, seed=1)
    b = np.random.default_rng(2).standard_normal(30)
    res = pcg(DenseOp(A), b, eps=1e-10, max_iter=500)
    assert res.converged.all()
    np.testing.assert_allclose(A @ res.x, b, rtol=1e-8)


def test_exact_initial_guess_converges_immediately():
    A = spd(12, seed=3)
    x_true = np.arange(12.0)
    b = A @ x_true
    res = pcg(DenseOp(A), b, x0=x_true, eps=1e-8)
    assert res.iterations[0] == 0
    assert res.loop_iterations == 0


def test_zero_rhs():
    A = spd(9, seed=4)
    res = pcg(DenseOp(A), np.zeros(9), eps=1e-8)
    np.testing.assert_array_equal(res.x, 0.0)
    assert res.converged.all()
    assert res.iterations[0] == 0


def test_multi_rhs_matches_individual_solves():
    A = spd(24, seed=5)
    rng = np.random.default_rng(6)
    B = rng.standard_normal((24, 4))
    op = DenseOp(A)
    block = pcg(op, B, eps=1e-10, max_iter=500)
    for k in range(4):
        single = pcg(op, B[:, k], eps=1e-10, max_iter=500)
        np.testing.assert_allclose(block.x[:, k], single.x, rtol=1e-6, atol=1e-9)


def test_mixed_zero_and_nonzero_columns():
    A = spd(15, seed=7)
    B = np.zeros((15, 2))
    B[:, 1] = np.random.default_rng(8).standard_normal(15)
    res = pcg(DenseOp(A), B, eps=1e-10, max_iter=300)
    np.testing.assert_array_equal(res.x[:, 0], 0.0)
    assert res.converged.all()
    assert res.iterations[0] == 0
    assert res.iterations[1] > 0


def test_good_guess_reduces_iterations():
    """The whole point of the paper's predictor: a better x0 means
    fewer iterations."""
    A = spd(40, seed=9, cond=1000.0)
    rng = np.random.default_rng(10)
    x_true = rng.standard_normal(40)
    b = A @ x_true
    cold = pcg(DenseOp(A), b, eps=1e-10, max_iter=1000)
    warm = pcg(
        DenseOp(A), b, x0=x_true + 1e-6 * rng.standard_normal(40),
        eps=1e-10, max_iter=1000,
    )
    assert warm.iterations[0] < cold.iterations[0]


def test_history_recording():
    A = spd(20, seed=11)
    b = np.ones(20)
    res = pcg(DenseOp(A), b, eps=1e-8, record_history=True)
    h = res.residual_history
    assert h is not None
    assert h.shape[0] == res.loop_iterations + 1
    assert h[0, 0] == pytest.approx(res.initial_relres[0])
    assert h[-1, 0] < 1e-8


def test_iteration_cap_reported():
    A = spd(50, seed=12, cond=1e6)
    b = np.ones(50)
    res = pcg(DenseOp(A), b, eps=1e-14, max_iter=3)
    assert not res.converged.all()
    assert res.loop_iterations == 3
    assert res.iterations[0] == 3


def test_preconditioner_reduces_iterations():
    rng = np.random.default_rng(13)
    nb = 15
    blocks = rng.standard_normal((nb, 3, 3))
    blocks = np.einsum("bij,bkj->bik", blocks, blocks) + 3 * np.eye(3)
    A = np.zeros((3 * nb, 3 * nb))
    for i in range(nb):
        A[3 * i : 3 * i + 3, 3 * i : 3 * i + 3] = blocks[i] * (1 + 10 * i)
    A += 0.05 * spd(3 * nb, seed=14)
    b = rng.standard_normal(3 * nb)
    diag = np.stack([A[3 * i : 3 * i + 3, 3 * i : 3 * i + 3] for i in range(nb)])
    plain = pcg(DenseOp(A), b, eps=1e-10, max_iter=2000)
    prec = pcg(DenseOp(A), b, precond=BlockJacobi(diag), eps=1e-10, max_iter=2000)
    assert prec.iterations[0] < plain.iterations[0]


# ------------------------------------------------ out= support probe
def test_operator_without_out_still_solves():
    """``DenseOp.matvec(x)`` takes no ``out=``: read off its signature,
    once, and served through a copy."""
    A = spd(18, seed=30)
    b = np.random.default_rng(31).standard_normal(18)
    calls = []

    class Plain(DenseOp):
        def matvec(self, x):
            calls.append(x.shape)
            return super().matvec(x)

    res = pcg(Plain(A), b, eps=1e-10, max_iter=200)
    assert res.converged.all()
    assert len(calls) == res.loop_iterations + 1  # never applied twice
    np.testing.assert_allclose(A @ res.x, b, rtol=1e-8)


def test_kwargs_operator_receives_out():
    A = spd(12, seed=32)
    seen = []

    class Kw(DenseOp):
        def matvec(self, x, **kwargs):
            seen.append(sorted(kwargs))
            np.matmul(self.A, x, out=kwargs["out"])

    res = pcg(Kw(A), np.ones(12), eps=1e-10, max_iter=100)
    assert res.converged.all()
    assert seen and all(k == ["out"] for k in seen)


def test_type_error_inside_an_operator_propagates_with_one_charge():
    """Regression: a ``TypeError`` raised by the operator *body* was
    taken for "no ``out=`` support" — the body ran again without
    ``out=``, its work was charged twice and the error was lost."""
    A = spd(9, seed=33)

    class Broken(DenseOp):
        def matvec(self, x, out=None):
            counters.charge("spmv.broken", 2.0, 8.0)
            raise TypeError("unsupported operand inside the kernel")

    with counters.tally_scope() as tally:
        with pytest.raises(TypeError, match="inside the kernel"):
            pcg(Broken(A), np.ones(9))
    assert {t: r.calls for t, r in tally.records.items()} == {"spmv.broken": 1}


def test_shape_mismatch_raises():
    A = spd(6)
    with pytest.raises(ValueError):
        pcg(DenseOp(A), np.ones(6), x0=np.ones(5))


# -------------------------------------------------- allocation counting
def _steady_state_peak(problem, B, ws, max_iter, kind="ebe"):
    """Peak traced allocation of one warm pcg solve capped at
    ``max_iter`` iterations (eps far below reachable -> loop runs the
    full cap)."""
    A = problem.ebe_operator() if kind == "ebe" else problem.crs_operator()
    M = problem.preconditioner()
    tracemalloc.start()
    pcg(A, B, precond=M, eps=1e-30, max_iter=max_iter, workspace=ws)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def _assert_no_per_iteration_allocation(problem, rng, kind, r):
    n = problem.n_dofs
    B = rng.standard_normal((n, r))
    B[problem.fixed_dofs, :] = 0.0
    ws = PCGWorkspace()
    # warm-up: materialize workspace + operator sweep buffers
    _steady_state_peak(problem, B, ws, max_iter=3, kind=kind)
    peak_short = _steady_state_peak(problem, B, ws, max_iter=5, kind=kind)
    peak_long = _steady_state_peak(problem, B, ws, max_iter=60, kind=kind)
    # 55 extra iterations must not add even one (n,) vector of heap
    per_vector = 8 * n
    assert peak_long <= peak_short + per_vector, (
        f"per-iteration allocation detected: {peak_short} -> {peak_long} bytes"
    )


def test_fused_pcg_allocates_no_per_iteration_temporaries(small_problem, rng):
    """The acceptance property of the batched hot path: with a warm
    workspace and out=-capable operators, peak memory of a 60-iteration
    solve equals that of a 5-iteration solve — i.e. the loop body
    allocates nothing that scales with (n, r) per iteration."""
    _assert_no_per_iteration_allocation(small_problem, rng, "ebe", 4)


@pytest.mark.parametrize("kind,r", [("ebe", 4), ("crs", 4), ("crs", 1)])
def test_no_per_iteration_temporaries_on_any_kernel_path(
        ground_problem, rng, kind, r):
    """The same property where the operand's shape selects the other
    kernels: 1215 rows take the wide column view (735 above do not),
    one right-hand side takes the single-vector SpMV."""
    _assert_no_per_iteration_allocation(ground_problem, rng, kind, r)


def test_ebe_matvec_out_reuses_buffers(small_problem, rng):
    """EBE multi-RHS application into a caller buffer allocates no new
    arrays once the per-r workspace exists."""
    op = small_problem.ebe_operator()
    X = rng.standard_normal((op.n, 3))
    out = np.empty_like(X)
    expect = op.matvec(X)  # warm-up allocates the r=3 workspace
    tracemalloc.start()
    op.matvec(X, out=out)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    np.testing.assert_array_equal(out, expect)
    assert peak < 8 * op.n  # no (n, r)-scale allocation

    # and the workspace result path still matches the out= path
    np.testing.assert_array_equal(op.matvec(X), expect)


def test_crs_matvec_out_matches(small_problem, rng):
    op = small_problem.crs_operator()
    X = np.ascontiguousarray(rng.standard_normal((op.n, 3)))
    out = np.empty_like(X)
    got = op.matvec(X, out=out)
    assert got is out
    np.testing.assert_allclose(out, op.matvec(X), rtol=1e-13, atol=1e-13)


def test_precond_out_matches(small_problem, rng):
    M = small_problem.preconditioner()
    R = np.ascontiguousarray(rng.standard_normal((small_problem.n_dofs, 2)))
    out = np.empty_like(R)
    got = M.apply(R, out=out)
    assert got is out
    np.testing.assert_array_equal(out, M.apply(R))


def test_workspace_grows_and_shrinks_with_shape():
    ws = PCGWorkspace()
    A = spd(10, seed=20)
    pcg(DenseOp(A), np.ones((10, 3)), workspace=ws)
    assert ws.R.shape == (10, 3)
    pcg(DenseOp(A), np.ones(10), workspace=ws)
    assert ws.R.shape == (10, 1)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=20),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_cg_solves_random_spd(n, seed):
    """CG must solve any (reasonably conditioned) SPD system to the
    requested relative residual."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    A = M @ M.T + n * np.eye(n)
    b = rng.standard_normal(n)
    res = pcg(DenseOp(A), b, eps=1e-9, max_iter=10 * n)
    assert res.converged.all()
    assert np.linalg.norm(A @ res.x - b) <= 1e-8 * max(np.linalg.norm(b), 1e-30)
