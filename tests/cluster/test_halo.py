"""Halo exchange plan and distributed EBE correctness."""

import numpy as np
import pytest

from repro.cluster.halo import DistributedEBE, build_halo_plan
from repro.cluster.partition import PartitionInfo, partition_elements
from repro.util.counters import tally_scope


def _parts_after_exchange(d, x):
    """Per-part local results of one mat-vec *after* the halo exchange
    (each part's view of the consistent global vector), taken from the
    stacked part-local operator ``distributed_pcg`` iterates with."""
    op = d.part_local()
    X = x[op.local_rows][:, None]
    return [y[:, 0] for y in op.split(op.matvec(X, out=np.empty_like(X)))]


@pytest.fixture(scope="module")
def dist(ground_problem):
    info = PartitionInfo(
        ground_problem.mesh, partition_elements(ground_problem.mesh, 4)
    )
    Ae = ground_problem.element_matrices("A")
    return ground_problem, info, DistributedEBE.from_elements(Ae, info)


def test_matvec_exact(dist, rng):
    problem, _, d = dist
    x = rng.standard_normal(problem.n_dofs)
    y_ref = problem.ebe_operator() @ x
    y = d @ x
    np.testing.assert_allclose(y, y_ref, rtol=1e-12, atol=1e-12 * np.abs(y_ref).max())


def test_matvec_block_exact(dist, rng):
    problem, _, d = dist
    X = rng.standard_normal((problem.n_dofs, 3))
    Y_ref = problem.ebe_operator().matvec(X)
    np.testing.assert_allclose(
        d.matvec(X), Y_ref, rtol=1e-12, atol=1e-12 * np.abs(Y_ref).max()
    )


def test_diagonal_blocks_consistent(dist):
    problem, _, d = dist
    ref = problem.ebe_operator().diagonal_blocks()
    got = d.diagonal_blocks()
    np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10 * np.abs(ref).max())


def test_comm_bytes_charged(dist, rng):
    problem, _, d = dist
    with tally_scope() as t:
        d @ rng.standard_normal(problem.n_dofs)
    assert t.total_bytes("halo.exchange") == pytest.approx(d.comm_bytes_per_matvec)


def test_halo_exchange_charges_comm_bytes(dist, rng):
    """The literal MPI path (part-local sweeps + `halo_exchange`)
    accounts the same wire traffic as the fused `matvec`."""
    problem, _, d = dist
    with tally_scope() as t:
        _parts_after_exchange(d, rng.standard_normal(problem.n_dofs))
    assert t.calls("halo.exchange") == 1
    assert t.total_bytes("halo.exchange") == pytest.approx(d.comm_bytes_per_matvec)
    # multi-RHS columns charge per column
    locals_ = [rng.standard_normal((3 * n.size, 4)) for n in d.local_to_global]
    with tally_scope() as t:
        d.halo_exchange(locals_)
    assert t.total_bytes("halo.exchange") == pytest.approx(
        4 * d.comm_bytes_per_matvec
    )


def test_halo_exchange_multi_rhs_columns(dist, rng):
    """Exchanging an (ld, r) block equals column-wise single exchanges
    bit for bit."""
    _, _, d = dist
    r = 3
    blocks = [rng.standard_normal((3 * n.size, r)) for n in d.local_to_global]
    fused = d.halo_exchange(blocks)
    for k in range(r):
        cols = d.halo_exchange([b[:, k] for b in blocks])
        for p in range(d.nparts):
            np.testing.assert_array_equal(fused[p][:, k], cols[p])


def test_halo_exchange_out_buffers(dist, rng):
    """`out=` writes the exchange into caller buffers without changing
    the result (the solver hot-path entry)."""
    _, _, d = dist
    blocks = [rng.standard_normal((3 * n.size, 2)) for n in d.local_to_global]
    ref = d.halo_exchange(blocks)
    outs = [np.empty_like(b) for b in blocks]
    got = d.halo_exchange(blocks, out=outs)
    assert all(g is o for g, o in zip(got, outs))
    for p in range(d.nparts):
        np.testing.assert_array_equal(got[p], ref[p])


def test_exchange_plan_cached(dist, rng):
    """The per-part index plan is built once, not per exchange."""
    problem, _, d = dist
    plan_a = d.exchange_plan
    _parts_after_exchange(d, rng.standard_normal(problem.n_dofs))
    assert d.exchange_plan is plan_a


def test_plan_symmetry(dist):
    _, info, _ = dist
    plan = build_halo_plan(info)
    for (p, q), nodes in plan.pair_nodes.items():
        assert p < q
        assert nodes.size > 0
        # shared nodes really are touched by both parts
        assert set(nodes) <= set(info.part_nodes[p])
        assert set(nodes) <= set(info.part_nodes[q])


def test_plan_neighbor_lists(dist):
    _, info, _ = dist
    plan = build_halo_plan(info)
    for p in range(plan.nparts):
        for q in plan.neighbors(p):
            assert p in plan.neighbors(q)
    assert plan.max_bytes_per_exchange() > 0


def test_single_part_no_comm(ground_problem):
    info = PartitionInfo(
        ground_problem.mesh, partition_elements(ground_problem.mesh, 1)
    )
    d = DistributedEBE.from_elements(ground_problem.element_matrices("A"), info)
    assert d.comm_bytes_per_matvec == 0.0
    plan = build_halo_plan(info)
    assert plan.max_bytes_per_exchange() == 0.0


def test_exchange_ghost_values_match_owners(dist, rng):
    """Halo-exchange symmetry: after the pairwise exchange, every
    part's copy of a shared node equals every other touching part's
    copy — ghosts agree with owners exactly."""
    problem, info, d = dist
    x = rng.standard_normal(problem.n_dofs)
    parts = _parts_after_exchange(d, x)
    remaps = d._node_index
    checked = 0
    for node in info.shared_nodes:
        touching = [p for p in range(info.nparts) if remaps[p][node] >= 0]
        assert len(touching) >= 2
        vals = []
        for p in touching:
            ln = remaps[p][node]
            vals.append(parts[p][3 * ln: 3 * ln + 3])
        for v in vals[1:]:
            np.testing.assert_array_equal(v, vals[0])
        checked += 1
    assert checked == info.shared_nodes.size


def test_exchange_matches_global_matvec(dist, rng):
    """Each part's post-exchange local vector is the restriction of the
    global operator result (the 'consistent nodal values' guarantee)."""
    problem, info, d = dist
    x = rng.standard_normal(problem.n_dofs)
    y_ref = problem.ebe_operator() @ x
    parts = _parts_after_exchange(d, x)
    for p, nodes in enumerate(d.local_to_global):
        ldof = (3 * nodes[:, None] + np.arange(3)[None, :]).ravel()
        np.testing.assert_allclose(
            parts[p], y_ref[ldof], rtol=1e-12,
            atol=1e-12 * np.abs(y_ref).max(),
        )


def test_exchange_preserves_interior_values(dist, rng):
    """The exchange only touches shared nodes: interior values pass
    through bit-identically."""
    problem, info, d = dist
    shared = set(map(int, info.shared_nodes))
    locals_ = [
        rng.standard_normal(3 * nodes.size) for nodes in d.local_to_global
    ]
    exchanged = d.halo_exchange(locals_)
    for p, nodes in enumerate(d.local_to_global):
        for i, node in enumerate(nodes):
            if int(node) not in shared:
                np.testing.assert_array_equal(
                    exchanged[p][3 * i: 3 * i + 3],
                    locals_[p][3 * i: 3 * i + 3],
                )


def test_exchange_validates_part_count(dist):
    _, _, d = dist
    with pytest.raises(ValueError):
        d.halo_exchange([np.zeros(3)])


def test_more_parts_more_comm(ground_problem):
    def comm(nparts):
        info = PartitionInfo(
            ground_problem.mesh, partition_elements(ground_problem.mesh, nparts)
        )
        Ae = ground_problem.element_matrices("A")
        return DistributedEBE.from_elements(Ae, info).comm_bytes_per_matvec

    assert comm(2) < comm(8)
