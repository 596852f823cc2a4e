"""Nonlinear (equivalent-linear) ground response — the paper's
matrix-free advantage in action.

Strong shaking degrades soft-soil stiffness; the equivalent-linear
driver re-evaluates element strains every few steps and rebuilds the
secant operator.  With the matrix-free EBE formulation this costs
nothing on the (modeled) GPU — with CRS every update would re-stream
the whole matrix.

Run:  python examples/nonlinear_ground_response.py   (~1 minute)
"""

from __future__ import annotations

import numpy as np

from repro import build_ground_problem, stratified_model
from repro.analysis import BandlimitedImpulse
from repro.core.nonlinear import NonlinearDriver
from repro.fem.nonlinear import EquivalentLinearMaterial
from repro.hardware.roofline import DeviceModel
from repro.hardware.specs import SINGLE_GH200

problem = build_ground_problem(stratified_model(), resolution=(5, 5, 3))
force = BandlimitedImpulse.random(
    problem.mesh, problem.dt, rng=0, amplitude=5e7,
    f0=0.3 / (np.pi * problem.dt), cycles_to_onset=0.8,
)

gpu = DeviceModel(SINGLE_GH200.gpu)
print(f"{'operator':8s} {'update':>7s} {'GPU t/step':>11s} {'iters':>6s} "
      f"{'min G/G0':>9s} {'max strain':>11s}")
print("-" * 60)
for op_kind in ("ebe", "crs"):
    for interval in (8, 2):
        drv = NonlinearDriver(
            problem,
            material=EquivalentLinearMaterial(gamma_ref=1e-6),
            update_interval=interval,
            op_kind=op_kind,
        )
        _, tally = drv.run(force, nt=24)
        t = gpu.time_for_tally(tally) / 24
        iters = np.mean([r.iterations for r in drv.records])
        print(f"{op_kind:8s} {interval:7d} {t*1e6:9.2f} us {iters:6.1f} "
              f"{drv.modulus_ratio.min():9.3f} "
              f"{drv.effective_strain.max():11.3e}")

print("\nEBE's per-step cost is flat in update frequency; CRS streams the")
print("assembled matrix every CG iteration and pays a re-assembly stream")
print("per update (tag 'assembly.crs') — the reason the paper calls")
print("matrix-free 'another advantage ... over the CRS-based method' for")
print("nonlinear problems.")
