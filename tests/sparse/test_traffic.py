"""Analytic kernel traffic models."""

import pytest

from repro.sparse.traffic import crs_traffic, ebe_traffic, vector_traffic


def test_crs_flops():
    w = crs_traffic(nnzb=100, n_block_rows=10)
    assert w.flops == 18.0 * 100


def test_crs_bytes_components():
    w = crs_traffic(nnzb=100, n_block_rows=10)
    assert w.bytes == 76 * 100 + 4 * 11 + 16 * 30


def test_ebe_fusion_amortizes_fixed_traffic():
    w1 = ebe_traffic(n_elems=1000, n_nodes=1500, n_rhs=1)
    w4 = ebe_traffic(n_elems=1000, n_nodes=1500, n_rhs=4)
    assert w4.bytes < w1.bytes  # per-case bytes drop
    assert w4.intensity > w1.intensity  # arithmetic intensity rises


def test_ebe_fusion_limit():
    """As r grows, per-case bytes approach the pure vector traffic."""
    w_inf = ebe_traffic(n_elems=1000, n_nodes=1500, n_rhs=10_000)
    assert w_inf.bytes == pytest.approx(48.0 * 1500, rel=0.01)


def test_ebe_vs_crs_traffic_reduction():
    """Paper §3.3: CRS -> EBE cut memory transfer ~12.9x on their mesh
    (29 blocks/row, 1.36 nodes/elem).  The analytic models must show a
    large reduction of the same order."""
    n_nodes = 15_509_903
    n_elems = 11_365_697
    nnzb = 29 * n_nodes
    crs = crs_traffic(nnzb, n_nodes)
    ebe = ebe_traffic(n_elems, n_nodes, n_rhs=1)
    ratio = crs.bytes / ebe.bytes
    assert 8 < ratio < 25


def test_ebe_rejects_bad_rhs():
    with pytest.raises(ValueError):
        ebe_traffic(10, 10, n_rhs=0)


def test_vector_traffic():
    w = vector_traffic(1000, n_reads=2, n_writes=1, flops_per_entry=2.0)
    assert w.flops == 2000
    assert w.bytes == 8 * 1000 * 3


def test_intensity_infinite_when_no_bytes():
    from repro.sparse.traffic import KernelWork

    assert KernelWork(flops=10.0, bytes=0.0).intensity == float("inf")


def test_crs_value_bytes_scaling():
    """Transprecision storage shrinks value traffic, not index traffic."""
    w64 = crs_traffic(nnzb=100, n_block_rows=10)
    w32 = crs_traffic(nnzb=100, n_block_rows=10, value_bytes=4.0)
    w21 = crs_traffic(nnzb=100, n_block_rows=10, value_bytes=21.0 / 8.0)
    assert w32.flops == w21.flops == w64.flops  # flops never change
    # values at half width: blocks 36 B + idx 4 B, vectors 8 B/dof
    assert w32.bytes == (36 + 4) * 100 + 4 * 11 + 8 * 30
    assert w64.bytes > w32.bytes > w21.bytes
    # index traffic is the irreducible floor
    assert w21.bytes > 4 * 100 + 4 * 11


def test_ebe_value_bytes_scaling():
    w64 = ebe_traffic(n_elems=1000, n_nodes=1500, n_rhs=4)
    w21 = ebe_traffic(n_elems=1000, n_nodes=1500, n_rhs=4,
                      value_bytes=21.0 / 8.0)
    assert w21.flops == w64.flops
    # only the 48 B/node gather/scatter term shrinks (to 15.75 B/node)
    fixed = (56.0 * 1000 + 24.0 * 1500) / 4
    assert w64.bytes == pytest.approx(fixed + 48.0 * 1500)
    assert w21.bytes == pytest.approx(fixed + 15.75 * 1500)


def test_ebe_fp21_meets_traffic_acceptance():
    """At the paper's element/node ratio, fused fp21 EBE traffic is
    <= 0.55x of fp64 — the transprecision acceptance bound."""
    n_nodes = 15_509_903
    n_elems = 11_365_697
    w64 = ebe_traffic(n_elems, n_nodes, n_rhs=4)
    w21 = ebe_traffic(n_elems, n_nodes, n_rhs=4, value_bytes=21.0 / 8.0)
    assert w21.bytes / w64.bytes <= 0.55


def test_vector_value_bytes_scaling():
    w = vector_traffic(1000, n_reads=2, n_writes=1, flops_per_entry=2.0,
                       value_bytes=21.0 / 8.0)
    assert w.flops == 2000
    assert w.bytes == pytest.approx(21.0 / 8.0 * 1000 * 3)


@pytest.mark.parametrize("precision", ["fp64", "fp32", "fp21"])
def test_modeled_iteration_bytes_are_what_a_solve_is_charged(
    small_problem, precision
):
    """One owner for the per-iteration byte model: the analytic
    function the transprecision benchmark tabulates equals, to the
    byte, what one executed fused EBE-MCG iteration (EBE sweep +
    block-Jacobi + vector updates) charges the tally."""
    import numpy as np

    from repro.sparse.cg import pcg
    from repro.sparse.ebe import EBEOperator
    from repro.sparse.precond import BlockJacobi
    from repro.sparse.traffic import modeled_solver_bytes_per_iteration
    from repro.util.counters import tally_scope

    p, r = small_problem, 4
    A = EBEOperator(p.element_matrices("A"), p.mesh.elems, p.n_nodes, precision=precision)
    M = BlockJacobi(A.diagonal_blocks(), precision=precision)
    B = np.random.default_rng(3).standard_normal((p.n_dofs, r))
    B[p.fixed_dofs, :] = 0.0

    def charged(iterations: int) -> float:
        with tally_scope() as tally:
            res = pcg(A, B, precond=M, eps=0.0, max_iter=iterations,
                      precision=precision)
        assert res.loop_iterations == iterations
        return tally.total_bytes()

    one_iteration = charged(3) - charged(2)
    assert one_iteration == r * modeled_solver_bytes_per_iteration(
        p.mesh.n_elems, p.n_nodes, r, precision=precision
    )
