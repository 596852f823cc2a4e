"""Campaign engine throughput and the batched hot path.

Two claims are measured:

1. the fused multi-RHS solver path reuses preallocated workspaces —
   steady-state host time per case drops as ``r`` grows and repeated
   solves allocate no per-iteration temporaries (the tier-1 assertion
   lives in ``tests/sparse/test_cg.py``; here the effect is measured
   at bench scale);
2. the campaign runner turns a 12-cell grid into cached artifacts:
   the second pass costs practically nothing.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np

from benchmarks.conftest import format_table, write_table
from repro.campaign import CampaignRunner, CampaignSpec, ResultStore, default_waves
from repro.sparse.backend import _einsum
from repro.sparse.cg import PCGWorkspace, pcg
from repro.workloads.ground import build_ground_problem, stratified_model


def _floor_iteration(A, M, r: int):
    """One CG iteration's kernels called bare, with the bytes a warm
    ``pcg`` iteration writes: the operator and preconditioner kernels
    (``_apply_block`` / ``_sweep``: the seam primitive, no operand check
    or charge), three column dots, two divides, the three scaled updates,
    a square root and the residual scaling — no guard, crossing test or
    bookkeeping.  Returns the iteration as a closure."""
    n = A.n
    R, Z, P, Q, T, X = (np.random.default_rng(i).standard_normal((n, r))
                        for i in range(6))
    rho, rho_prev, alpha, beta, work, relres, denom = (
        np.ones(r) for _ in range(7))
    apply_A = A._apply_block if hasattr(A, "_apply_block") else A._sweep
    A.matvec(P, out=Q)  # builds what a first application builds
    bk = A.backend

    def iteration():
        M._apply_block(R, Z)
        _einsum("ij,ij->j", Z, R, out=rho)
        np.divide(rho, rho_prev, beta)
        bk.xpay_cols(P, beta, Z)
        apply_A(P, Q)
        _einsum("ij,ij->j", P, Q, out=work)
        np.divide(rho, work, alpha)
        bk.axpy_cols(X, alpha, P, T)
        bk.axmy_cols(R, alpha, Q, T)
        _einsum("ij,ij->j", R, R, out=relres)
        np.sqrt(relres, relres)
        np.divide(relres, denom, relres)

    return iteration


def _best_per_call(fn, calls: int, repeats: int = 7) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (time.perf_counter() - t0) / calls)
    return best


def test_fused_pcg_throughput(bench_problem):
    """Host time per case per CG solve vs fusion width r, the
    conventional solve (CRS-CG, one case) at the campaign grid's 735
    dofs and at ``endurance-225``'s 225 dofs, and per iteration against
    the floor: the same kernels called bare (:func:`_floor_iteration`).
    The gap is what the loop's Python costs on top of its kernels."""
    small = build_ground_problem(stratified_model(), resolution=(3, 3, 2))
    tiny = build_ground_problem(stratified_model(), resolution=(2, 2, 1))
    rng = np.random.default_rng(7)
    rows = []
    base = None
    for kind, pb, r in [("ebe", bench_problem, 1), ("ebe", bench_problem, 2),
                        ("ebe", bench_problem, 4), ("ebe", bench_problem, 8),
                        ("crs", small, 1), ("crs", tiny, 1)]:
        A = pb.ebe_operator() if kind == "ebe" else pb.crs_operator()
        M = pb.preconditioner()
        B = rng.standard_normal((pb.n_dofs, r))
        B[pb.fixed_dofs, :] = 0.0
        ws = PCGWorkspace()
        res = pcg(A, B, precond=M, eps=1e-8, workspace=ws)  # warm-up
        reps = max(3, 3000 // (pb.n_dofs * r))
        per_solve = _best_per_call(
            lambda: pcg(A, B, precond=M, eps=1e-8, workspace=ws), reps, 3)
        per_case = per_solve / r
        per_iter = per_solve / res.loop_iterations
        floor = _best_per_call(_floor_iteration(A, M, r), 20 * reps)
        tracemalloc.start()
        pcg(A, B, precond=M, eps=1e-8, workspace=ws)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        if base is None:
            base = per_case
        rows.append([
            kind,
            str(pb.n_dofs),
            str(r),
            f"{int(np.max(res.iterations))}",
            f"{per_case * 1e3:.2f}",
            f"{base / per_case:.2f}x" if kind == "ebe" else "-",
            f"{per_iter * 1e6:.1f}",
            f"{floor * 1e6:.1f}",
            f"{peak / 1e3:.0f}",
        ])
    table = format_table(
        "pcg host throughput: EBE vs fusion width, and the conventional "
        "CRS-CG solve; per iteration against its kernels called bare",
        ["operator", "dofs", "r", "iters", "ms/case/solve", "speedup",
         "us/iter", "floor us/iter", "peak alloc [kB]"],
        rows,
    )
    write_table("campaign_throughput_pcg", table)
    # fusion must not be slower per case than solo solves (amortized
    # gather/scatter), with slack for timer noise
    assert float(rows[3][4]) < float(rows[0][4]) * 1.3


def test_fused_pcg_allocation_flat_in_iterations(bench_problem):
    """Bench-scale version of the allocation-counting assertion: peak
    traced memory of a warm solve is flat in the iteration count."""
    pb = bench_problem
    A = pb.ebe_operator()
    M = pb.preconditioner()
    rng = np.random.default_rng(11)
    B = rng.standard_normal((pb.n_dofs, 8))
    B[pb.fixed_dofs, :] = 0.0
    ws = PCGWorkspace()
    pcg(A, B, precond=M, eps=1e-30, max_iter=3, workspace=ws)

    def peak(iters: int) -> int:
        tracemalloc.start()
        pcg(A, B, precond=M, eps=1e-30, max_iter=iters, workspace=ws)
        _, p = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return p

    p5, p80 = peak(5), peak(80)
    assert p80 <= p5 + 8 * pb.n_dofs, (p5, p80)


def test_campaign_grid_throughput(tmp_path):
    """12-cell campaign: compute once, then a cached re-run."""
    spec = CampaignSpec(
        name="bench",
        models=("stratified", "basin", "slanted"),
        waves=default_waves(2),
        methods=("crs-cg@gpu", "ebe-mcg@cpu-gpu"),
        resolutions=((3, 3, 2),),
        cases=2,
        steps=8,
    )
    store = ResultStore(tmp_path / "store")
    t0 = time.perf_counter()
    first = CampaignRunner(store=store, jobs=2).run(spec)
    t_compute = time.perf_counter() - t0
    t0 = time.perf_counter()
    second = CampaignRunner(store=store, jobs=2).run(spec)
    t_cached = time.perf_counter() - t0

    assert first.n_computed == 12 and first.n_failed == 0
    assert second.n_cached == 12 and second.n_computed == 0
    assert t_cached < t_compute / 5

    table = format_table(
        "campaign engine: 12-cell grid (3 models x 2 waves x 2 methods)",
        ["pass", "cells computed", "cache hits", "wall [s]"],
        [
            ["first", str(first.n_computed), str(first.n_cached),
             f"{t_compute:.2f}"],
            ["second", str(second.n_computed), str(second.n_cached),
             f"{t_cached:.2f}"],
        ],
    )
    write_table("campaign_throughput_grid", table + "\n" + first.render())
