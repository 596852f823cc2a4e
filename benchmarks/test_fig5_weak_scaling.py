"""Fig. 5 — weak scaling of EBE-MCG@CPU-GPU on Alps.

Paper: per-step elapsed time from 1 to 1,920 nodes (4 GH200 modules
each): 0.447 s at 1 node to 0.474 s at 1,920 nodes — 94.3 % weak
scaling efficiency.  Iteration counts stay constant with problem size,
the predictor communicates nothing, and only the solver's halo
exchange + CG reductions ride the interconnect.

This bench measures a real per-tile pipeline run, derives the tile's
face-node count from the actual mesh, and extends it with the
communication model; and it cross-checks the halo volumes against a
real partitioned operator (DistributedEBE).
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import bench_forces, format_table, write_table
from repro.cluster.halo import DistributedEBE
from repro.cluster.partition import PartitionInfo, partition_elements
from repro.cluster.weakscaling import weak_scaling_curve
from repro.core.methods import run_method
from repro.hardware.specs import ALPS_MODULE

NT = 48
WINDOW = (28, 48)
NODE_COUNTS = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 1920]


@pytest.fixture(scope="module")
def tile_run(bench_problem):
    forces = bench_forces(bench_problem, 8)
    return run_method(
        bench_problem, forces, nt=NT, method="ebe-mcg@cpu-gpu",
        module=ALPS_MODULE, s_range=(4, 11),
    )


PAPER_TILE_DOFS = 46_529_709  # per-module tile at paper scale


def _paper_scale_tile(tile_run, bench_problem):
    """Scale the measured tile run to the paper's per-module size.

    Per-step work scales linearly in dofs (CG is O(n) per iteration
    and iteration counts are size-stable — the paper's observation);
    tile faces scale as n^(2/3).
    """
    from dataclasses import replace

    ratio = PAPER_TILE_DOFS / bench_problem.n_dofs
    records = [
        replace(
            r,
            t_solver=r.t_solver * ratio,
            t_predictor=r.t_predictor * ratio,
            t_step=r.t_step * ratio,
        )
        for r in tile_run.records
    ]
    from repro.core.results import RunResult

    return RunResult(
        method=tile_run.method,
        module_name=tile_run.module_name,
        n_cases=tile_run.n_cases,
        n_dofs=PAPER_TILE_DOFS,
        records=records,
        timeline=tile_run.timeline,
        cpu_memory_bytes=0,
        gpu_memory_bytes=0,
    ), ratio ** (2.0 / 3.0)


def test_fig5_weak_scaling(benchmark, bench_problem, tile_run):
    mesh = bench_problem.mesh
    face_nodes = int((np.abs(mesh.nodes[:, 0]) < 1e-9).sum())

    pts = benchmark(
        lambda: weak_scaling_curve(tile_run, NODE_COUNTS, face_nodes, window=WINDOW)
    )
    paper_tile, face_scale = _paper_scale_tile(tile_run, bench_problem)
    pts_paper = weak_scaling_curve(
        paper_tile, NODE_COUNTS, int(face_nodes * face_scale), window=WINDOW
    )

    rows = [
        [f"{p.n_nodes}", f"{p.elapsed_per_step * 1e6:.2f}",
         f"{100 * p.efficiency:.1f} %",
         f"{q.elapsed_per_step:.4f}", f"{100 * q.efficiency:.1f} %"]
        for p, q in zip(pts, pts_paper)
    ]
    rows.append(["-- paper --", "", "", "0.447 -> 0.474 s", "94.3 % @ 1920"])
    write_table(
        "fig5_weak_scaling",
        format_table(
            "Fig. 5 reproduction — weak scaling on modeled Alps "
            "(left: measured bench tile; right: tile scaled to the paper's 46.5M dofs)",
            ["nodes", "bench us/step", "bench eff",
             "paper-scale s/step", "paper-scale eff"],
            rows,
        ),
    )

    times = [p.elapsed_per_step for p in pts]
    effs = [p.efficiency for p in pts]
    # monotone cost growth, efficiency starts at 1 and only falls
    assert all(b >= a for a, b in zip(times, times[1:]))
    assert effs[0] == 1.0
    assert all(0 < e <= 1 for e in effs)
    # paper-scale shape: high efficiency at 1,920 nodes (paper 94.3 %)
    # and a near-flat curve beyond the neighbour-count saturation,
    # because compute amortizes latency at 46.5M dofs/node
    effs_paper = [q.efficiency for q in pts_paper]
    assert effs_paper[-1] > 0.85
    t16 = pts_paper[NODE_COUNTS.index(16)].elapsed_per_step
    assert pts_paper[-1].elapsed_per_step / t16 < 1.05


def test_fig5_halo_volume_consistent(benchmark, bench_problem):
    """The x-y tiling halo estimate must agree with a real 2-way
    partition of the same mesh within a small factor."""
    mesh = bench_problem.mesh
    face_nodes = int((np.abs(mesh.nodes[:, 0]) < 1e-9).sum())
    info = PartitionInfo(mesh, partition_elements(mesh, 2))
    dist = benchmark.pedantic(
        lambda: DistributedEBE.from_elements(bench_problem.element_matrices("A"), info),
        rounds=1, iterations=1,
    )
    real_bytes = dist.plan.max_bytes_per_exchange()  # one neighbour, r=1
    est_bytes = 8.0 * 3 * face_nodes
    assert 0.4 < real_bytes / est_bytes < 2.5


def test_fig5_predictor_needs_no_comm(benchmark, tile_run):
    """Paper Fig. 2: only the solver communicates.  The cost model adds
    comm per CG iteration; the predictor share of the step must be
    unchanged by scaling (it is taken verbatim from the tile run)."""
    mesh_pred = benchmark(
        lambda: tile_run.predictor_time_per_step_per_case(WINDOW)
    )
    assert mesh_pred >= 0.0  # defined and finite
    curve_base = weak_scaling_curve(tile_run, [1], face_nodes=100, window=WINDOW)
    assert curve_base[0].comm_per_step == 0.0
