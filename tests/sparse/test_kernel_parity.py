"""The array engine picks its kernels by the operand's shape; the
pick must never show in the bits.

* ``spmv_csr`` hands one vector to scipy's single-vector kernel and a
  block to the multi-vector one: same rows, same summation order.
* ``grouped_matmul`` takes one stacked product for one matrix per
  member, and one GEMM per group's ``(30, k r)`` block otherwise.
* The column-scaling primitives fold a large block into wide rows;
  every product is the one the plain broadcast makes.
* Both stay *per column*: a fused solve with a poisoned case leaves its
  healthy neighbours exactly where they would have been without it.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from repro.cluster.halo import DistributedEBE
from repro.cluster.partition import PartitionInfo, partition_elements
from repro.sparse import backend as backend_mod
from repro.sparse.backend import ArrayBackend, as_backend
from repro.sparse.cg import pcg
from repro.sparse.distributed import distributed_pcg

TILE = ArrayBackend._TILE
WIDE = TILE * TILE  # fewest rows the wide view takes


# ------------------------------------------------------------- SpMV
def _random_csr(seed, n_rows=57, n_cols=43, density=0.15):
    """CSR with empty rows and explicit (stored) zeros, as
    ``(indptr, indices, data, n_cols)``."""
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((n_rows, n_cols))
    dense *= rng.random((n_rows, n_cols)) < density
    dense[[3, n_rows - 1]] = 0.0  # empty rows
    m = sp.csr_matrix(dense)
    m.data[::5] = 0.0  # explicit zeros stay stored
    assert np.diff(m.indptr).min() == 0 and (m.data == 0.0).any()
    return m.indptr, m.indices, m.data, n_cols


@pytest.mark.parametrize("seed", range(6))
def test_single_vector_spmv_is_bit_equal_to_the_multi_vector_kernel(seed):
    bk = as_backend()
    indptr, indices, data, n_cols = _random_csr(seed)
    n = indptr.size - 1
    X2 = np.random.default_rng(100 + seed).standard_normal((n_cols, 2))
    x = np.ascontiguousarray(X2[:, :1])

    got = bk.spmv_csr(indptr, indices, data, x, np.full((n, 1), np.nan))

    multi = np.zeros((n, 1))  # the kernel every width used to take
    backend_mod._csr_matvecs(n, n_cols, 1, indptr, indices, data,
                             x.ravel(), multi.ravel())
    assert got.tobytes() == multi.tobytes()

    wide = bk.spmv_csr(indptr, indices, data, X2, np.empty((n, 2)))
    assert got[:, 0].tobytes() == wide[:, 0].tobytes()
    np.testing.assert_allclose(
        got, sp.csr_matrix((data, indices, indptr), shape=(n, n_cols)) @ x,
        rtol=1e-13, atol=1e-13)


def test_spmv_rejects_a_row_pointer_that_does_not_match_out():
    bk = as_backend()
    indptr, indices, data, n_cols = _random_csr(0)
    n = indptr.size - 1
    for r in (1, 2):
        with pytest.raises(ValueError, match="indptr size"):
            bk.spmv_csr(indptr, indices, data, np.ones((n_cols, r)),
                        np.empty((n + 4, r)))


# ------------------------------------------------- grouped apply
@pytest.mark.parametrize("r", [1, 2, 4, 8])
def test_grouped_matmul_is_bit_equal_to_the_stacked_product(r):
    """One matrix per member — the stored operator every golden pins —
    is the stacked product over the ``(N, 30, r)`` view; and each group
    of a grouping is its own single GEMM over the ``(30, k r)`` block
    at rows ``30 offsets[c]``, nothing more."""
    bk = as_backend()
    rng = np.random.default_rng(30 + r)
    A = rng.standard_normal((200, 30, 30))
    X = rng.standard_normal((30 * 200, r))
    got = bk.grouped_matmul(A, np.arange(201), X, np.empty_like(X))
    assert got.tobytes() == np.matmul(A, X.reshape(200, 30, r)).tobytes()

    offsets = np.searchsorted(np.sort(rng.integers(0, 9, size=200)), np.arange(10))
    got = bk.grouped_matmul(A[:9], offsets, X, np.full_like(X, np.nan))
    for c, (s, e) in enumerate(zip(30 * offsets[:-1], 30 * offsets[1:])):
        block = X[s:e].reshape(30, -1)
        assert got[s:e].tobytes() == (A[c] @ block).tobytes()


# --------------------------------------------------- column scaling
SPECIALS = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 1e-310, -3.5])


def _block(rng, n, r):
    V = rng.standard_normal((n, r))
    if n:
        rows = rng.integers(0, n, size=max(1, n // 9))
        V[rows, rng.integers(0, r, size=rows.size)] = rng.choice(
            SPECIALS, size=rows.size)
    return V


@pytest.mark.parametrize("bk", [as_backend()], ids=["numpy"])
@pytest.mark.parametrize("r", [1, 2, 3, 4, 8])
@pytest.mark.parametrize(
    "n", [5, TILE, WIDE - 1, WIDE, WIDE + 1, WIDE + TILE, 3 * WIDE + 7])
def test_column_primitives_are_bit_equal_to_the_broadcast(bk, n, r):
    rng = np.random.default_rng(1000 * r + n)
    for scale in (rng.standard_normal(r), rng.choice(SPECIALS, size=r)):
        with np.errstate(all="ignore"):
            P, Z = _block(rng, n, r), _block(rng, n, r)
            expect = P * scale
            expect += Z
            assert bk.xpay_cols(P, scale, Z) is P
            assert P.tobytes() == expect.tobytes()

            Y, V, work = _block(rng, n, r), _block(rng, n, r), np.empty((n, r))
            expect = Y + V * scale
            assert bk.axpy_cols(Y, scale, V, work) is Y
            assert Y.tobytes() == expect.tobytes()
            assert work.tobytes() == (V * scale).tobytes()

            expect = Y - V * scale
            assert bk.axmy_cols(Y, scale, V, work) is Y
            assert Y.tobytes() == expect.tobytes()


def test_column_primitives_leave_strided_blocks_to_the_broadcast():
    """A strided block has no wide view; the result is still right."""
    bk = as_backend()
    rng = np.random.default_rng(5)
    base = rng.standard_normal((WIDE + 9, 8))
    V, s = base[:, ::2], rng.standard_normal(4)
    work = np.empty((WIDE + 9, 4))
    Y = np.zeros((WIDE + 9, 4))
    bk.axpy_cols(Y, s, V, work)
    assert Y.tobytes() == (0.0 + V * s).tobytes()


@pytest.mark.parametrize("n,r", [(WIDE + TILE, 8), (2 * WIDE + 5, 4), (WIDE, 1)])
def test_column_primitives_allocate_nothing_per_call(n, r):
    """The tiled scale is one scratch per width, made on first use and
    reused; 40 sweeps peak where 2 do (numpy's own transient broadcast
    buffer, which the plain ``V * s`` takes as well, is all there is)."""
    bk = as_backend()
    rng = np.random.default_rng(9)
    P, Z, T = (rng.standard_normal((n, r)) for _ in range(3))
    s = rng.standard_normal(r) * 0.5

    def peak_of(sweeps):
        tracemalloc.start()
        for _ in range(sweeps):
            bk.xpay_cols(P, s, Z)
            bk.axpy_cols(P, s, Z, T)
            bk.axmy_cols(P, s, Z, T)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak

    peak_of(1)  # the scratch of this width appears here
    scratch = bk._tiles.get(r)
    assert (scratch is None) == (r == 1)
    assert peak_of(40) <= peak_of(2) + 512
    assert bk._tiles.get(r) is scratch


# ------------------------------------------- per-case independence
@pytest.mark.parametrize("kind", ["crs", "ebe", "part-local"])
def test_a_nan_case_leaves_its_fused_neighbours_untouched(ground_problem, kind):
    """r = 4 with one all-NaN right-hand side, against the same-width
    solve whose column is a zero right-hand side: the three healthy
    cases come out bit for bit the same, the NaN case reports
    non-convergence — closed at once, so the solve ends when the
    reference does.  (``ground_problem`` is large enough for the wide
    column scaling to run.)  ``part-local`` is the same loop on the
    stacked layout of a two-part partition: the halo sums and the
    owned-row reductions stay per column as well."""
    problem = ground_problem
    assert problem.n_dofs >= WIDE
    if kind == "part-local":
        info = PartitionInfo(problem.mesh, partition_elements(problem.mesh, 2))
        dist = DistributedEBE.from_elements(problem.element_matrices("A"), info)

        def solve(B):
            return distributed_pcg(dist, B, eps=1e-8, max_iter=400)
    else:
        A = (problem.crs_operator() if kind == "crs"
             else problem.ebe_operator())
        M = problem.preconditioner()

        def solve(B):
            return pcg(A, B, precond=M, eps=1e-8, max_iter=400)
    B = np.random.default_rng(21).standard_normal((problem.n_dofs, 4))
    B[problem.fixed_dofs, :] = 0.0
    healthy = [0, 1, 3]
    B_zero, B_nan = B.copy(), B.copy()
    B_zero[:, 2] = 0.0
    B_nan[:, 2] = np.nan

    ref = solve(B_zero)
    assert ref.converged.all() and ref.loop_iterations < 400
    with np.errstate(invalid="ignore"):
        got = solve(B_nan)

    assert got.loop_iterations == ref.loop_iterations  # no spin to max_iter
    assert got.iterations[2] == 0
    assert not got.converged[2] and got.converged[healthy].all()
    assert np.isnan(got.x[:, 2]).all()
    assert got.x[:, healthy].tobytes() == ref.x[:, healthy].tobytes()
    assert np.array_equal(got.iterations[healthy], ref.iterations[healthy])
    assert (got.final_relres[healthy].tobytes()
            == ref.final_relres[healthy].tobytes())
