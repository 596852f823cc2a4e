"""Distributed part-local solver: scaling behaviour (paper Fig. 5 axis).

Two tables:

* weak scaling — x-y-tiled mesh, constant elements per part, modeled
  elapsed/halo seconds per step and parallel efficiency per part count
  (the campaign-cell route, exercising the cache end to end);
* distributed overhead — fused vs part-local solve on one mesh:
  bit-level agreement of the displacements and the modeled comm share.
"""

import numpy as np

from benchmarks.conftest import bench_forces, format_table, write_table
from repro.campaign.runner import CampaignRunner
from repro.core.methods import run_method
from repro.hardware.specs import ALPS_MODULE
from repro.studies import SWEEP


def test_weak_scaling_over_nparts(tmp_path):
    sweep = SWEEP["weakscaling"]
    cells = sweep.cells(nparts=(1, 2, 4, 8), resolution=(3, 3, 2), steps=8)
    rows = sweep.rows(CampaignRunner().run_cells(cells))
    write_table("distributed_weak_scaling", sweep.render(rows))
    assert len(rows) == 4


def test_distributed_overhead_vs_fused(bench_problem):
    steps = 6
    rows = []
    base = None
    for nparts in (1, 2, 4, 8):
        forces = bench_forces(bench_problem, 4, seed0=3)
        res = run_method(
            bench_problem, forces, nt=steps, method="ebe-mcg@cpu-gpu",
            module=ALPS_MODULE, s_range=(2, 8), nparts=nparts,
        )
        u = np.column_stack([s.u for s in res.final_states])
        if base is None:
            base = u
        drift = np.abs(u - base).max() / np.abs(base).max()
        t_solve = sum(r.t_solver for r in res.records) / steps
        t_halo = sum(r.t_halo for r in res.records) / steps
        rows.append([
            f"{nparts}",
            f"{t_solve:.3e}",
            f"{t_halo:.3e}",
            f"{drift:.1e}",
        ])
        assert drift < 1e-9  # distribution must not move the physics
    write_table(
        "distributed_overhead",
        format_table(
            "Fused vs part-local solve (stratified, 4 cases)",
            ["nparts", "solver/step [s]", "halo/step [s]", "drift"],
            rows,
        ),
    )
