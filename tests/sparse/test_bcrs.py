"""BlockCRS wrapper: numerics and instrumentation."""

import re

import numpy as np
import pytest
import scipy.sparse as sp

from repro.sparse.backend import ArrayBackend
from repro.sparse.bcrs import BlockCRS
from repro.util.counters import tally_scope


@pytest.fixture(scope="module")
def matrix():
    rng = np.random.default_rng(0)
    n_blocks = 20
    dense = np.zeros((3 * n_blocks, 3 * n_blocks))
    for i in range(n_blocks):
        for j in range(n_blocks):
            if i == j or rng.random() < 0.15:
                blk = rng.standard_normal((3, 3))
                dense[3 * i : 3 * i + 3, 3 * j : 3 * j + 3] = blk
    dense = dense + dense.T + 30 * np.eye(3 * n_blocks)
    return BlockCRS(sp.csr_matrix(dense)), dense


def test_matvec_matches_dense(matrix):
    A, dense = matrix
    x = np.random.default_rng(1).standard_normal(A.n)
    np.testing.assert_allclose(A @ x, dense @ x, rtol=1e-12)


def test_block_matvec(matrix):
    A, dense = matrix
    X = np.random.default_rng(2).standard_normal((A.n, 3))
    np.testing.assert_allclose(A.matvec(X), dense @ X, rtol=1e-12)


def test_charges_work_per_rhs(matrix):
    A, _ = matrix
    x = np.zeros(A.n)
    with tally_scope() as t1:
        A.matvec(x)
    with tally_scope() as t3:
        A.matvec(np.zeros((A.n, 3)))
    assert t3.total_flops("spmv.crs") == pytest.approx(3 * t1.total_flops("spmv.crs"))
    assert t1.total_flops("spmv.crs") == 18.0 * A.nnz_blocks


def test_memory_bytes(matrix):
    A, _ = matrix
    expected = A.nnz_blocks * 72 + A.nnz_blocks * 4 + (A.n_block_rows + 1) * 4
    assert A.memory_bytes() == expected


def test_diagonal_blocks(matrix):
    A, dense = matrix
    blocks = A.diagonal_blocks()
    for i in range(A.n_block_rows):
        np.testing.assert_allclose(
            blocks[i], dense[3 * i : 3 * i + 3, 3 * i : 3 * i + 3], rtol=1e-12
        )


def test_rejects_non_sparse():
    with pytest.raises(TypeError):
        BlockCRS(np.eye(6))


def test_reduced_precision_never_mutates_caller_matrix():
    """tobsr() aliases an already-3x3-blocked input: quantization must
    act on a private copy, never the caller's (possibly shared) data."""
    import scipy.sparse as sp

    from repro.sparse.bcrs import BlockCRS

    rng = np.random.default_rng(8)
    dense = rng.standard_normal((12, 12))
    bsr = sp.bsr_matrix(dense + dense.T + 12 * np.eye(12), blocksize=(3, 3))
    before = bsr.data.copy()
    a64 = BlockCRS(bsr)
    a21 = BlockCRS(bsr, precision="fp21")
    assert np.array_equal(bsr.data, before)  # caller untouched
    assert np.array_equal(a64.bsr.data, before)  # fp64 twin untouched
    assert not np.array_equal(a21.bsr.data, before)


@pytest.mark.parametrize("r", [1, 2])
def test_matvec_rejects_a_short_operand_before_the_c_kernel(matrix, r):
    """Regression: ``out=`` was shape-checked but the operand's rows
    were not, so scipy's C kernel (the single-vector one at r = 1, the
    multi-vector one otherwise) read past the end of a short operand
    and *returned* garbage."""
    A, _ = matrix
    out = np.full((A.n, r), 7.0)
    with tally_scope() as tally:
        with pytest.raises(ValueError, match=f"operand size 10 != {A.n}"):
            A.matvec(np.ones((10, r)), out=out)
        with pytest.raises(ValueError, match=f"operand size 10 != {A.n}"):
            A.matvec(np.ones((10, r)))
        with pytest.raises(ValueError, match="operand size"):
            A.matvec(np.ones(A.n + 3))
    assert (out == 7.0).all()  # never touched
    assert tally.calls(A.tag) == 0  # and nothing charged
    # the full-size operand still goes through, on the same kernel
    X = np.random.default_rng(r).standard_normal((A.n, r))
    np.testing.assert_allclose(A.matvec(X, out=out), A.bsr @ X, rtol=1e-13)


@pytest.mark.parametrize("r", [1, 2])
def test_matvec_rejects_a_wrong_out_before_charging(matrix, r):
    """Regression: a wrong ``out`` shape was refused only *after*
    ``spmv.crs`` had been charged, so the tally held work for a call
    that raised.  Both sizes are checked first, and a strided ``out``
    (the kernel would write into a lost copy) is refused too."""
    A, _ = matrix
    X = np.ones((A.n, r))
    with tally_scope() as tally:
        for out in (np.empty((A.n, r + 1)), np.empty((A.n - 3, r)),
                    np.empty((A.n, 2 * r))[:, ::2]):
            with pytest.raises(ValueError, match=re.escape(f"shape {(A.n, r)}")):
                A.matvec(X, out=out)
        with pytest.raises(ValueError, match=re.escape(f"shape {(A.n,)}")):
            A.matvec(X[:, 0], out=np.empty((A.n, 1)))
    assert tally.records == {}


class _CountingBackend(ArrayBackend):
    """The engine, counting the CSR SpMV calls it runs."""

    def __init__(self) -> None:
        super().__init__()
        self.spmv_calls = 0

    def spmv_csr(self, indptr, indices, data, X, out):
        self.spmv_calls += 1
        return super().spmv_csr(indptr, indices, data, X, out)


def test_every_application_runs_on_the_engine(matrix):
    """``A @ x``, an out-less block ``matvec`` and a strided operand all
    reach the engine's CSR SpMV — there is no side path past the
    backend — with the bits of the ``out=`` path."""
    A, dense = matrix
    bk = _CountingBackend()
    A_bk = BlockCRS(A.bsr, backend=bk)
    wide = np.random.default_rng(3).standard_normal((A.n, 4))
    x, X, strided = wide[:, 0].copy(), wide[:, :2].copy(), wide[:, ::2]
    got = [A_bk @ x, A_bk.matvec(X), A_bk.matvec(strided)]
    assert bk.spmv_calls == 3
    for y, v in zip(got, (x, X, strided)):
        V = np.ascontiguousarray(v.reshape(A.n, -1))
        np.testing.assert_array_equal(
            y.reshape(A.n, -1), A.matvec(V, out=np.empty_like(V)))
        np.testing.assert_allclose(y, dense @ v, rtol=1e-12)


def test_crs_run_builds_its_rhs_on_the_run_engine(monkeypatch):
    """A ``crs-cg@cpu`` run counts, on the engine, two RHS products per
    step (M and C) on top of the solver's applications (the initial
    residual and one per CG iteration)."""
    from repro.analysis.waves import BandlimitedImpulse
    from repro.core.methods import run_method
    from repro.core.problem import build_problem
    from repro.fem.mesh import structured_box

    mesh = structured_box(2, 2, 1, 1.0, 1.0, 0.5)  # fresh: nothing cached
    problem = build_problem(mesh, rho=2000.0, vp=400.0, vs=200.0, dt=0.002)
    force = BandlimitedImpulse.random(mesh, problem.dt, rng=0, amplitude=1e6)
    calls, spmv = [], ArrayBackend.spmv_csr

    def counting(self, *args):
        calls.append(1)
        return spmv(self, *args)

    monkeypatch.setattr(ArrayBackend, "spmv_csr", counting)
    nt = 5
    run = run_method(problem, [force], nt, "crs-cg@cpu")
    solver = sum(int(rec.iterations[0]) + 1 for rec in run.records)
    assert solver > nt
    assert len(calls) == solver + 2 * nt
