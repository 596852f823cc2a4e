"""Distributed part-local PCG: bit-identity and exactness guarantees.

The safety property of the per-part refactor: iterating on part-local
vector blocks (halo exchange per operator application, owned-dof dot
products reduced in canonical part order, per-part block-Jacobi) is
**bit-identical** to the fused global solve run with the same operator
and the matching :class:`PartitionedReduction` — and agrees with the
plain single-operator solve to solver rounding.
"""

import numpy as np
import pytest

from repro.cluster.halo import DistributedEBE
from repro.cluster.partition import PartitionInfo, partition_elements
from repro.sparse.cg import PCGWorkspace, pcg
from repro.sparse.distributed import (
    PartitionedReduction,
    distributed_pcg,
    part_block_jacobi,
)
from repro.sparse.precond import BlockJacobi


@pytest.fixture(scope="module")
def rhs(ground_problem):
    rng = np.random.default_rng(7)
    B = rng.standard_normal((ground_problem.n_dofs, 3))
    B[ground_problem.fixed_dofs, :] = 0.0
    G = 1e-3 * rng.standard_normal((ground_problem.n_dofs, 3))
    G[ground_problem.fixed_dofs, :] = 0.0
    return B, G


def make_dist(problem, nparts):
    info = PartitionInfo(problem.mesh, partition_elements(problem.mesh, nparts))
    return DistributedEBE.from_elements(problem.Ae, info)


@pytest.mark.parametrize(
    "nparts,max_iter",
    [(1, 10_000), (2, 10_000), (4, 10_000), (8, 10_000), (2, 3)],
    ids=["1", "2", "4", "8", "2-capped-3"],
)
def test_bit_identical_to_fused_global_solve(ground_problem, rhs, nparts,
                                             max_iter):
    """The tentpole guarantee: same bits at every part count — also
    when the cap stops the loop before any case has converged."""
    B, G = rhs
    dist = make_dist(ground_problem, nparts)
    ref = pcg(
        dist,
        B,
        x0=G,
        precond=BlockJacobi(dist.diagonal_blocks()),
        eps=1e-8,
        max_iter=max_iter,
        reduction=PartitionedReduction(dist.owned_global_dofs),
    )
    got = distributed_pcg(dist, B, x0=G, eps=1e-8, max_iter=max_iter)
    assert np.array_equal(got.x, ref.x)
    assert np.array_equal(got.iterations, ref.iterations)
    assert got.loop_iterations == ref.loop_iterations
    assert np.array_equal(got.initial_relres, ref.initial_relres)
    assert np.array_equal(got.final_relres, ref.final_relres)
    assert np.array_equal(got.converged, ref.converged)
    assert np.all(got.converged) == (max_iter > 3)
    if max_iter == 3:
        assert got.loop_iterations == 3 and np.all(got.iterations == 3)


@pytest.mark.parametrize("nparts", [1, 2, 4])
def test_twogrid_global_precond_bit_identical(ground_problem, rhs, nparts):
    """The two-grid cycle is a *global* preconditioner: parts gather
    the residual, one cycle runs on the assembled vector, corrections
    scatter back — bit-identical to the fused solve with the same
    cycle at every part count."""
    B, G = rhs
    dist = make_dist(ground_problem, nparts)
    tg = ground_problem.twogrid_preconditioner()
    ref = pcg(
        dist,
        B,
        x0=G,
        precond=tg,
        eps=1e-8,
        reduction=PartitionedReduction(dist.owned_global_dofs),
    )
    got = distributed_pcg(dist, B, x0=G, precond=tg, eps=1e-8)
    assert np.array_equal(got.x, ref.x)
    assert np.array_equal(got.iterations, ref.iterations)
    assert got.loop_iterations == ref.loop_iterations
    assert np.array_equal(got.final_relres, ref.final_relres)
    assert np.all(got.converged)


def test_twogrid_beats_part_local_bj_iterations(ground_problem, rhs):
    """The point of carrying a global family through the distributed
    path: fewer loop iterations than per-part block-Jacobi."""
    B, G = rhs
    dist = make_dist(ground_problem, 4)
    bj = distributed_pcg(dist, B, x0=G, eps=1e-8)
    tg = distributed_pcg(
        dist, B, x0=G,
        precond=ground_problem.twogrid_preconditioner(), eps=1e-8,
    )
    assert tg.converged.all()
    assert tg.loop_iterations < bj.loop_iterations


@pytest.mark.parametrize("nparts", [2, 4])
def test_matches_plain_global_solve_to_rounding(ground_problem, rhs, nparts):
    """Against the ordinary fused EBE solve only the reduction/scatter
    flop order differs — solutions agree to solver tolerance."""
    B, G = rhs
    dist = make_dist(ground_problem, nparts)
    got = distributed_pcg(dist, B, x0=G, eps=1e-10)
    plain = pcg(
        ground_problem.ebe_operator(),
        B,
        x0=G,
        precond=ground_problem.preconditioner(),
        eps=1e-10,
    )
    scale = np.abs(plain.x).max()
    np.testing.assert_allclose(got.x, plain.x, rtol=0, atol=1e-6 * scale)


def test_single_rhs_vector(ground_problem, rhs):
    B, _ = rhs
    dist = make_dist(ground_problem, 4)
    got = distributed_pcg(dist, B[:, 0], eps=1e-8)
    assert got.x.shape == (ground_problem.n_dofs,)
    assert got.iterations.shape == (1,)
    ref = pcg(
        dist,
        B[:, 0],
        precond=BlockJacobi(dist.diagonal_blocks()),
        eps=1e-8,
        reduction=PartitionedReduction(dist.owned_global_dofs),
    )
    assert np.array_equal(got.x, ref.x)


def test_workspace_reuse_is_deterministic(ground_problem, rhs):
    """One workspace across repeated solves must not change a bit."""
    B, G = rhs
    dist = make_dist(ground_problem, 4)
    ws = PCGWorkspace()
    preconds = part_block_jacobi(dist)
    first = distributed_pcg(
        dist, B, x0=G, local_preconds=preconds, eps=1e-8, workspace=ws
    )
    second = distributed_pcg(
        dist, B, x0=G, local_preconds=preconds, eps=1e-8, workspace=ws
    )
    assert np.array_equal(first.x, second.x)
    assert np.array_equal(first.iterations, second.iterations)


def test_record_history(ground_problem, rhs):
    B, _ = rhs
    dist = make_dist(ground_problem, 2)
    res = distributed_pcg(dist, B, eps=1e-8, record_history=True)
    assert res.residual_history is not None
    assert res.residual_history.shape == (res.loop_iterations + 1, 3)
    assert np.all(res.residual_history[-1] < 1e-8)


def test_zero_rhs_column_converges_immediately(ground_problem, rhs):
    B, _ = rhs
    B = B.copy()
    B[:, 1] = 0.0
    dist = make_dist(ground_problem, 2)
    res = distributed_pcg(dist, B, eps=1e-8)
    assert res.iterations[1] == 0
    assert np.all(res.x[:, 1] == 0.0)


def test_validates_shapes(ground_problem, rhs):
    B, _ = rhs
    dist = make_dist(ground_problem, 2)
    with pytest.raises(ValueError):
        distributed_pcg(dist, B[:-3])
    with pytest.raises(ValueError):
        distributed_pcg(dist, B, x0=B[:, :2])
    with pytest.raises(ValueError):
        distributed_pcg(dist, B, local_preconds=[])


def test_ownership_partitions_all_dofs(ground_problem):
    """Owned dof groups are disjoint and cover every dof exactly once
    (the precondition of the canonical reductions)."""
    dist = make_dist(ground_problem, 8)
    cat = np.concatenate(dist.owned_global_dofs)
    assert cat.size == ground_problem.n_dofs
    assert np.array_equal(np.sort(cat), np.arange(ground_problem.n_dofs))


def test_partitioned_reduction_matches_einsum(ground_problem, rng):
    """The partitioned dot differs from the fused einsum only in
    summation grouping — values agree to rounding."""
    dist = make_dist(ground_problem, 4)
    red = PartitionedReduction(dist.owned_global_dofs)
    V = rng.standard_normal((ground_problem.n_dofs, 2))
    W = rng.standard_normal((ground_problem.n_dofs, 2))
    out = np.empty(2)
    red.dot(V, W, out)
    ref = np.einsum("ij,ij->j", V, W)
    np.testing.assert_allclose(out, ref, rtol=1e-12)
