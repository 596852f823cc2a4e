"""Geometric two-grid preconditioner: SPD-ness, iteration collapse and
the modeled-traffic contract.

The load-bearing properties:

* the symmetric cycle is an SPD operator (CG-legal) — checked on
  random SPD systems with fabricated aggregation transfers, through
  the same :func:`build_twogrid` path production uses;
* on the real ground problem it cuts PCG iteration counts against
  plain block-Jacobi while converging to the same solution;
* modeled traffic is charged from sizes only, so a pinned-iteration
  solve tallies *exactly* the same work when its reductions regroup
  (``regrouped.py``), and agrees to norm-scaled tolerance.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from regrouped import RowBlockedBackend

from repro.fem.transfer import TransferOperators
from repro.sparse.cg import pcg
from repro.sparse.precond import (
    DEFAULT_PRECONDITIONER,
    PRECONDITIONERS,
    BlockJacobi,
)
from repro.sparse.twogrid import (
    DirectCoarseSolve,
    TwoGrid,
    build_twogrid,
    estimate_smoothing_omega,
)
from repro.util.counters import tally_scope


class DenseOp:
    def __init__(self, A):
        self.A = np.asarray(A)
        self.shape = self.A.shape

    def matvec(self, x, out=None):
        return np.matmul(self.A, x, out=out)

    def diagonal_blocks(self):
        nb = self.A.shape[0] // 3
        blocks = np.empty((nb, 3, 3))
        for b in range(nb):
            blocks[b] = self.A[3 * b:3 * b + 3, 3 * b:3 * b + 3]
        return blocks


def spd(n, seed=0, cond=50.0):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Q @ np.diag(np.geomspace(1.0, cond, n)) @ Q.T


def aggregation_transfer(nf: int) -> TransferOperators:
    """Pairwise node aggregation: the simplest legal (P, R = P^T)."""
    nc = (nf + 1) // 2
    P = sp.csr_matrix(
        (np.ones(nf), np.arange(nf) // 2, np.arange(nf + 1)), shape=(nf, nc)
    )
    R = P.T.tocsr()
    R.sort_indices()
    return TransferOperators(
        n_fine=nf, n_coarse=nc,
        p_indptr=P.indptr.astype(np.int64),
        p_indices=P.indices.astype(np.int64), p_data=P.data,
        r_indptr=R.indptr.astype(np.int64),
        r_indices=R.indices.astype(np.int64), r_data=R.data,
    )


def dense_twogrid(A, n_smooth=1, **kw):
    op = DenseOp(A)
    return build_twogrid(
        op, sp.csr_matrix(A), aggregation_transfer(A.shape[0] // 3),
        op.diagonal_blocks(), n_smooth=n_smooth, **kw
    )


def materialize(precond, n):
    return precond.apply(np.eye(n))


# ----------------------------------------------------------- SPD law
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    nb=st.integers(4, 12),
    n_smooth=st.integers(1, 3),
)
def test_cycle_is_spd_on_random_spd_problems(seed, nb, n_smooth):
    """The CG-legality property: M symmetric, eigenvalues positive —
    for arbitrary SPD fine operators, aggregation coarsening, and any
    smoothing count."""
    A = spd(3 * nb, seed=seed)
    M = materialize(dense_twogrid(A, n_smooth=n_smooth), 3 * nb)
    np.testing.assert_allclose(M, M.T, rtol=1e-9, atol=1e-11)
    evals = np.linalg.eigvalsh(0.5 * (M + M.T))
    assert evals.min() > 0.0, evals.min()


def test_omega_respects_the_spd_bound():
    # omega * lambda_max(B^-1 A) < 2 keeps the smoothed cycle SPD
    A = spd(30, seed=3)
    inv = np.linalg.inv(DenseOp(A).diagonal_blocks())
    omega = estimate_smoothing_omega(sp.csr_matrix(A), inv)
    Binv = sp.block_diag(list(inv)).toarray()
    lam_max = max(abs(np.linalg.eigvals(Binv @ A)))
    assert 0.0 < omega * lam_max < 2.0


def test_direct_coarse_solve_matches_scipy():
    A = spd(24, seed=9)
    cs = DirectCoarseSolve(sp.csr_matrix(A))
    rhs = np.random.default_rng(1).standard_normal((24, 2))
    np.testing.assert_allclose(cs.apply(rhs), np.linalg.solve(A, rhs),
                               rtol=1e-10, atol=1e-12)
    out = np.empty((24, 2))
    assert cs.apply(rhs, out=out) is out


def test_constructor_validation():
    A = spd(12, seed=2)
    tg = dense_twogrid(A)
    with pytest.raises(ValueError, match="smoothing sweep"):
        TwoGrid(DenseOp(A), aggregation_transfer(4), tg.smoother,
                tg.coarse_solve, tg.omega, n_smooth=0)
    with pytest.raises(ValueError, match="positive"):
        TwoGrid(DenseOp(A), aggregation_transfer(4), tg.smoother,
                tg.coarse_solve, omega=-1.0)


def test_apply_rejects_wrong_sizes_before_charging():
    """Operand rows and ``out`` are checked before the cycle charges
    its glue or runs (a wrong ``out`` used to fail in a numpy copy
    after the charge)."""
    tg = dense_twogrid(spd(12, seed=2))
    R = np.ones((12, 2))
    with tally_scope() as tally:
        with pytest.raises(ValueError, match="operand size 9 != 12"):
            tg.apply(R[:9])
        with pytest.raises(ValueError, match="C-contiguous"):
            tg.apply(R, out=np.empty((12, 3)))
    assert tally.records == {}


# ------------------------------------------- real-problem behaviour
def test_cuts_iterations_on_ground_problem(ground_problem):
    pb = ground_problem
    rng = np.random.default_rng(5)
    B = rng.standard_normal((pb.n_dofs, 2))
    B[pb.fixed_dofs, :] = 0.0
    op = pb.ebe_operator()
    bj = pcg(op, B, precond=pb.preconditioner(), eps=1e-8)
    tg = pcg(op, B, precond=pb.twogrid_preconditioner(), eps=1e-8)
    assert bj.converged.all() and tg.converged.all()
    assert tg.loop_iterations < bj.loop_iterations / 1.5
    np.testing.assert_allclose(tg.x, bj.x, rtol=1e-6, atol=1e-9)


def test_correction_stays_in_free_subspace(ground_problem):
    pb = ground_problem
    rng = np.random.default_rng(6)
    r = rng.standard_normal((pb.n_dofs, 2))
    r[pb.fixed_dofs, :] = 0.0
    z = pb.twogrid_preconditioner().apply(r)
    np.testing.assert_array_equal(z[pb.fixed_dofs, :], 0.0)


def test_preconditioner_for_dispatch(ground_problem):
    pb = ground_problem
    assert DEFAULT_PRECONDITIONER == "bj"
    assert set(PRECONDITIONERS) == {"bj", "twogrid"}
    assert isinstance(pb.preconditioner_for("bj"), BlockJacobi)
    assert isinstance(pb.preconditioner_for(None), BlockJacobi)
    tg = pb.preconditioner_for("twogrid")
    assert isinstance(tg, TwoGrid)
    assert pb.preconditioner_for("twogrid") is tg  # cached
    with pytest.raises(ValueError, match="unknown preconditioner"):
        pb.preconditioner_for("ilu")


# ------------------------------------------------------------ traffic
def _pinned_tally(pb, backend=None):
    rng = np.random.default_rng(12)
    B = rng.standard_normal((pb.n_dofs, 2))
    B[pb.fixed_dofs, :] = 0.0
    tg = pb.twogrid_preconditioner()
    with tally_scope() as t:
        res = pcg(pb.ebe_operator(), B, precond=tg,
                  eps=1e-30, max_iter=6, backend=backend)
    return res, t.snapshot()


def test_traffic_tags_charged(ground_problem):
    _, snap = _pinned_tally(ground_problem)
    tags = set(snap)
    for tag in ("twogrid.smooth", "twogrid.transfer", "twogrid.coarse",
                "twogrid.vec"):
        assert tag in tags, (tag, tags)
    assert any(t.startswith("spmv.ebe") for t in tags), tags
    for tag, rec in snap.items():
        assert rec.flops >= 0 and rec.bytes > 0, (tag, rec)


def test_modeled_traffic_backend_independent(ground_problem):
    """Pinned iterations: a solve whose reductions regroup tallies
    exactly the same modeled work — execution moves wall time, never
    modeled time — including the coarse-grid tags."""
    ref_res, ref = _pinned_tally(ground_problem)
    got_res, got = _pinned_tally(ground_problem, RowBlockedBackend())
    assert got == ref
    # and the solutions agree to norm-scaled tolerance
    scale = np.abs(ref_res.x).max()
    np.testing.assert_allclose(got_res.x, ref_res.x,
                               rtol=1e-9, atol=1e-9 * scale)
