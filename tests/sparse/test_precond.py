"""Block-Jacobi preconditioner."""

import re

import numpy as np
import pytest

from repro.sparse.precond import BlockJacobi


def test_identity_blocks():
    B = BlockJacobi(np.tile(np.eye(3), (5, 1, 1)))
    r = np.random.default_rng(0).standard_normal(15)
    np.testing.assert_allclose(B.apply(r), r, atol=1e-14)


def test_inverse_application():
    rng = np.random.default_rng(1)
    blocks = rng.standard_normal((4, 3, 3)) + 4 * np.eye(3)
    B = BlockJacobi(blocks)
    r = rng.standard_normal(12)
    z = B.apply(r)
    # applying the original blocks recovers r
    back = np.einsum("bij,bj->bi", blocks, z.reshape(4, 3)).ravel()
    np.testing.assert_allclose(back, r, rtol=1e-12)


def test_block_rhs():
    rng = np.random.default_rng(2)
    blocks = rng.standard_normal((4, 3, 3)) + 4 * np.eye(3)
    B = BlockJacobi(blocks)
    R = rng.standard_normal((12, 5))
    Z = B.apply(R)
    for k in range(5):
        np.testing.assert_allclose(Z[:, k], B.apply(R[:, k]), rtol=1e-12)


def test_singular_block_rejected():
    blocks = np.zeros((2, 3, 3))
    blocks[0] = np.eye(3)
    with pytest.raises(ValueError):
        BlockJacobi(blocks)


def test_shape_validation():
    with pytest.raises(ValueError):
        BlockJacobi(np.eye(3))


def test_matmul_alias():
    B = BlockJacobi(np.tile(2 * np.eye(3), (2, 1, 1)))
    r = np.ones(6)
    np.testing.assert_allclose(B @ r, 0.5 * r)


def test_near_singular_guard_boundary():
    """The singularity guard trips exactly at SINGULAR_DET_GUARD:
    det just below rejects, det just above inverts."""
    from repro.sparse.precond import SINGULAR_DET_GUARD

    assert SINGULAR_DET_GUARD == 1e-300

    def scaled(c):
        blocks = np.tile(np.eye(3), (2, 1, 1))
        blocks[1] *= c  # det = c^3
        return blocks

    # det = 1e-303 < guard -> rejected
    with pytest.raises(ValueError, match="singular"):
        BlockJacobi(scaled(1e-101))
    # det = 1e-297 > guard -> accepted, inverse is finite
    B = BlockJacobi(scaled(1e-99))
    assert np.all(np.isfinite(B._inv))


def test_negative_determinant_magnitude_guard():
    """The guard compares |det|: a well-conditioned negative-det block
    passes, a tiny negative det fails."""
    blocks = np.tile(-np.eye(3), (1, 1, 1))  # det = -1
    BlockJacobi(blocks)
    with pytest.raises(ValueError):
        BlockJacobi(1e-101 * blocks)  # |det| = 1e-303


def test_precision_quantizes_inverses_and_traffic():
    from repro.sparse.precision import FP21
    from repro.util.counters import tally_scope

    rng = np.random.default_rng(5)
    blocks = rng.standard_normal((6, 3, 3)) + 4 * np.eye(3)
    m64 = BlockJacobi(blocks)
    m21 = BlockJacobi(blocks, precision="fp21")
    assert np.array_equal(m21._inv, FP21.quantize(m64._inv))
    r = rng.standard_normal(18)
    with tally_scope() as t64:
        m64.apply(r)
    with tally_scope() as t21:
        m21.apply(r)
    assert t21.total_bytes() == pytest.approx(t64.total_bytes() * 21.0 / 64.0)
    assert t21.total_flops() == t64.total_flops()


def test_apply_rejects_wrong_sizes_before_charging():
    """Regression: ``cg.precond`` was charged first and a wrong ``out``
    then died in numpy's reshape ("cannot reshape array of size ...").
    Operand rows and ``out`` shape are checked before anything is
    charged or run, and the error names the sizes."""
    from repro.util.counters import tally_scope

    rng = np.random.default_rng(4)
    B = BlockJacobi(rng.standard_normal((25, 3, 3)) + 4 * np.eye(3))
    R = rng.standard_normal((75, 2))
    with tally_scope() as tally:
        with pytest.raises(ValueError, match="operand size 72 != 75"):
            B.apply(R[:72])
        for out in (np.empty((64, 7)), np.empty((75, 4))[:, ::2]):
            with pytest.raises(ValueError, match=re.escape("shape (75, 2)")):
                B.apply(R, out=out)
    assert tally.records == {}
    out = np.empty((75, 2))
    assert B.apply(R, out=out) is out
    np.testing.assert_array_equal(out, B.apply(R))
