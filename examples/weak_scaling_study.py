"""Weak-scaling study: from one measured tile to a 1,920-node Alps run.

Reproduces the paper's Fig. 5 workflow: run the heterogeneous pipeline
on one per-node tile, verify the partitioned operator against the
global one, then extend with the communication model to thousands of
nodes — at both the bench tile size and the paper's 46.5M-dof tiles.

Run:  python examples/weak_scaling_study.py         (~1 minute)
"""

from __future__ import annotations

import numpy as np

from repro import build_ground_problem, run_method, stratified_model
from repro.analysis import BandlimitedImpulse
from repro.cluster import DistributedEBE, PartitionInfo, partition_elements
from repro.cluster.weakscaling import weak_scaling_curve
from repro.hardware.specs import ALPS_MODULE

problem = build_ground_problem(stratified_model(), resolution=(5, 5, 3))
dt = problem.dt

# --- sanity: the partitioned solver is exact -------------------------
info = PartitionInfo(problem.mesh, partition_elements(problem.mesh, 4))
dist = DistributedEBE.from_elements(problem.element_matrices("A"), info)
x = np.random.default_rng(0).standard_normal(problem.n_dofs)
err = np.abs(dist @ x - problem.ebe_operator() @ x).max()
print(f"partitioned vs global EBE matvec: max diff {err:.2e}")
print(f"partition balance {info.balance():.3f}, "
      f"shared-node fraction {info.surface_fraction():.3f}")

# --- measure one tile -------------------------------------------------
forces = [
    BandlimitedImpulse.random(problem.mesh, dt, rng=i, amplitude=1e6,
                              f0=0.3 / (np.pi * dt), cycles_to_onset=1.0)
    for i in range(8)
]
tile = run_method(problem, forces, nt=40, method="ebe-mcg@cpu-gpu",
                  module=ALPS_MODULE, s_range=(4, 11))
window = (24, 40)
print(f"\ntile: {problem.n_dofs} dofs, "
      f"{tile.elapsed_per_step_per_case(window)*1e6:.2f} us/step/case, "
      f"{tile.iterations_per_step(window):.1f} iters/step")

# --- extend to many nodes ---------------------------------------------
face_nodes = int((np.abs(problem.mesh.nodes[:, 0]) < 1e-9).sum())
nodes = [1, 4, 16, 64, 256, 1024, 1920]
pts = weak_scaling_curve(tile, nodes, face_nodes, window=window)

print(f"\n{'nodes':>6s} {'elapsed/step':>14s} {'efficiency':>10s}")
for p in pts:
    print(f"{p.n_nodes:6d} {p.elapsed_per_step*1e6:12.2f} us "
          f"{100*p.efficiency:9.1f} %")
print("\nAt the bench tile size, latency dominates (microsecond compute);")
print("at the paper's 46.5M dofs/node the same model gives ~94 % at 1,920")
print("nodes — run `pytest benchmarks/test_fig5_weak_scaling.py` for both.")
