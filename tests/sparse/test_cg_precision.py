"""Transprecision PCG: fp64 bit-identity and convergence safety.

The two contracts of the dtype-parameterized solver stack:

* ``precision="fp64"`` is a **no-op** — bit-identical results to the
  precision-unaware solver, at every layer (operator, preconditioner,
  fused and distributed loops);
* at fp32/fp21 every tier-1-sized case still converges to the paper's
  ``eps = 1e-8`` with bounded iteration inflation (<= 1.5x), while the
  modeled traffic shrinks with the storage word.
"""

import numpy as np
import pytest

from repro.cluster.halo import DistributedEBE
from repro.cluster.partition import PartitionInfo, partition_elements
from repro.sparse.bcrs import BlockCRS
from repro.sparse.cg import pcg
from repro.sparse.distributed import distributed_pcg
from repro.sparse.ebe import EBEOperator
from repro.sparse.precision import FP21, FP64, PRECISIONS
from repro.sparse.precond import BlockJacobi
from repro.util.counters import tally_scope

EPS = 1e-8


@pytest.fixture(scope="module")
def rhs(ground_problem):
    rng = np.random.default_rng(11)
    B = rng.standard_normal((ground_problem.n_dofs, 3))
    B[ground_problem.fixed_dofs, :] = 0.0
    return B


def _solve(problem, B, precision, **kw):
    A = problem.ebe_operator(precision)
    M = problem.preconditioner(precision)
    return pcg(A, B, precond=M, eps=EPS, precision=precision, **kw)


def test_fp64_precision_bit_identical(ground_problem, rhs):
    """The explicit fp64 policy must not change a single bit."""
    ref = pcg(
        ground_problem.ebe_operator(),
        rhs,
        precond=ground_problem.preconditioner(),
        eps=EPS,
    )
    got = _solve(ground_problem, rhs, "fp64")
    assert np.array_equal(got.x, ref.x)
    assert np.array_equal(got.iterations, ref.iterations)
    assert np.array_equal(got.final_relres, ref.final_relres)


def test_fp64_operator_cache_shared(ground_problem):
    """precision=None and precision='fp64' are the same cached object —
    the historical cache keys survive the refactor."""
    assert ground_problem.ebe_operator() is ground_problem.ebe_operator("fp64")
    assert ground_problem.ebe_operator() is ground_problem.ebe_operator(FP64)
    assert ground_problem.preconditioner() is ground_problem.preconditioner("fp64")
    a21 = ground_problem.ebe_operator("fp21")
    assert a21 is not ground_problem.ebe_operator()
    assert a21 is ground_problem.ebe_operator("fp21")  # cached per policy


@pytest.mark.parametrize("precision", ["fp32", "fp21"])
def test_reduced_precision_converges_with_bounded_inflation(
    ground_problem, rhs, precision
):
    """The acceptance contract: eps reached, <= 1.5x iterations."""
    ref = _solve(ground_problem, rhs, "fp64")
    got = _solve(ground_problem, rhs, precision)
    assert bool(got.converged.all())
    assert float(got.final_relres.max()) < EPS
    assert got.loop_iterations <= 1.5 * ref.loop_iterations
    # the answer agrees with fp64 at storage accuracy: the quantized
    # operator is a ~2^-mantissa relative perturbation of A, so the
    # solutions differ by O(kappa * 2^-mantissa), not by eps
    scale = np.abs(ref.x).max()
    tol = 2.0 ** -PRECISIONS[precision].mantissa_bits
    np.testing.assert_allclose(got.x, ref.x, rtol=0, atol=10 * tol * scale)


def test_traffic_shrinks_with_storage_word(ground_problem, rhs):
    """Charged solver bytes scale with the itemsize; flops do not."""
    tallies = {}
    for name in PRECISIONS:
        with tally_scope() as t:
            _solve(ground_problem, rhs, name)
        tallies[name] = t
    per_it = {
        name: t.total_bytes() / max(t.calls("cg.vec"), 1)
        for name, t in tallies.items()
    }
    assert per_it["fp32"] < 0.75 * per_it["fp64"]
    assert per_it["fp21"] < 0.55 * per_it["fp64"]
    # quantization never changes the modeled flops of one iteration
    f64 = tallies["fp64"].total_flops() / tallies["fp64"].calls("cg.vec")
    f21 = tallies["fp21"].total_flops() / tallies["fp21"].calls("cg.vec")
    assert f64 == pytest.approx(f21, rel=1e-12)


def test_quantized_operators_store_quantized_values(small_problem):
    p = small_problem
    ebe = EBEOperator(p.element_matrices("A"), p.mesh.elems, p.n_nodes, precision="fp21")
    assert np.array_equal(ebe.Ae, FP21.quantize(p.element_matrices("A")))
    crs64 = p.crs_operator()
    crs21 = BlockCRS(crs64.bsr.copy(), precision="fp21")
    assert np.array_equal(crs21.bsr.data, FP21.quantize(crs64.bsr.data))
    assert crs21.memory_bytes() < crs64.memory_bytes()


def test_block_jacobi_stores_quantized_inverses(small_problem):
    blocks = small_problem.ebe_operator().diagonal_blocks()
    m64 = BlockJacobi(blocks)
    m21 = BlockJacobi(blocks, precision="fp21")
    assert np.array_equal(m21._inv, FP21.quantize(m64._inv))


@pytest.mark.parametrize("nparts", [2, 4])
def test_distributed_fp21_converges(ground_problem, rhs, nparts):
    """The part-local loop inherits the operator's storage policy and
    still reaches eps; halo wire bytes shrink with the word."""
    info = PartitionInfo(
        ground_problem.mesh, partition_elements(ground_problem.mesh, nparts)
    )
    d64 = DistributedEBE.from_elements(ground_problem.element_matrices("A"), info)
    d21 = DistributedEBE.from_elements(ground_problem.element_matrices("A"), info,
                                       precision="fp21")
    assert d21.comm_bytes_per_matvec == pytest.approx(
        d64.comm_bytes_per_matvec * 21.0 / 64.0
    )
    ref = distributed_pcg(d64, rhs, eps=EPS)
    got = distributed_pcg(d21, rhs, eps=EPS)
    assert bool(got.converged.all())
    assert float(got.final_relres.max()) < EPS
    assert got.loop_iterations <= 1.5 * ref.loop_iterations


def test_distributed_fp64_unchanged_by_precision_plumbing(ground_problem, rhs):
    """The PR-2 bit-identity guarantee survives the precision refactor."""
    info = PartitionInfo(
        ground_problem.mesh, partition_elements(ground_problem.mesh, 4)
    )
    dist = DistributedEBE.from_elements(ground_problem.element_matrices("A"), info)
    assert dist.precision is FP64
    got = distributed_pcg(dist, rhs, eps=EPS, precision="fp64")
    ref = distributed_pcg(dist, rhs, eps=EPS)
    assert np.array_equal(got.x, ref.x)
    assert np.array_equal(got.iterations, ref.iterations)
