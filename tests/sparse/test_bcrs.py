"""BlockCRS wrapper: numerics and instrumentation."""

import numpy as np
import pytest
import scipy.sparse as sp

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
