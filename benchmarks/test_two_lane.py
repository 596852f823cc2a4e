"""Two lanes per heterogeneous step — where a second host thread pays.

``HeterogeneousPipeline`` can step its two case sets on two threads,
set A predicting then solving on the caller's while set B solves then
predicts the next step on a lane thread (:mod:`repro.core.pipeline`).
Each thread spends most of its time in kernels that release the GIL
(the EBE GEMMs, ``take``, ``csr_matvecs``, LAPACK QR), so the two
overlap on a 2-core box — once the kernels are long enough to cover
the per-step thread handoff and the Python between them.

For each mesh this bench times ``ebe-mcg@cpu-gpu`` runs with the lanes
forced off (``MIN_LANE_WORK`` = inf) and forced on (0), in ``SAMPLES``
back-to-back pairs, and reports each arm's best wall milliseconds per
step and the median of the pairs' ratios (a shared box drifts between
fast and slow spells lasting seconds; a pair sits within one).  The
table is what sets :data:`repro.core.pipeline.MIN_LANE_WORK`: above
the largest ``n_dofs * r`` at par, below the smallest winning one above
it.  Over six runs on a shared 2-vCPU box the ``(4, 4, 2)`` mesh read
0.81-1.17x, the stored ``(5, 5, 3)`` 1.08-1.47x and the grouped
``(6, 6, 3)`` 0.98-1.33x (1.15x or more in four of the six; the box
drifts, and in the slowest run ``(10, 10, 5)`` too fell to 1.20x).  Its
class products are 10 stacked calls per sweep, one per class size; as
36 GEMMs, each handing the GIL over, it read 0.97-1.11x.
Asserted: at least 1.15x on every mesh the gate puts on two lanes
(1.35-1.68x at ``(8, 8, 4)``, 1.20-1.68x at ``(10, 10, 5)`` measured).
Run it with ``OPENBLAS_NUM_THREADS=1`` like the perf harness: a BLAS
that threads every call on its own competes with the second lane for
the cores.
"""

from __future__ import annotations

import math
import time

import numpy as np

from benchmarks.conftest import bench_forces, format_table, write_table
from repro.core import pipeline
from repro.core.methods import run_method
from repro.workloads.ground import build_ground_problem, stratified_model

#: (mesh, cases, steps per sample)
MESHES = (((3, 3, 2), 2, 100), ((4, 4, 2), 8, 50), ((5, 5, 3), 8, 30),
          ((6, 6, 3), 8, 30), ((8, 8, 4), 8, 16), ((10, 10, 5), 8, 8))
SAMPLES = 5


def _step_s(problem, forces, steps: int) -> float:
    t0 = time.perf_counter()
    run_method(problem, forces, steps, "ebe-mcg@cpu-gpu")
    return (time.perf_counter() - t0) / steps


def test_two_lane(monkeypatch):
    gate = pipeline.MIN_LANE_WORK
    rows, speedup, two_lane = [], {}, []
    for res, cases, steps in MESHES:
        problem = build_ground_problem(stratified_model(), resolution=res)
        forces = bench_forces(problem, cases)
        pairs = []
        for _ in range(SAMPLES + 1):  # the first pair builds the operators
            pair = []
            for work in (math.inf, 0):
                monkeypatch.setattr(pipeline, "MIN_LANE_WORK", work)
                pair.append(_step_s(problem, forces, steps))
            pairs.append(pair)
        one, two = np.min(pairs[1:], axis=0)
        speedup[res] = float(np.median([a / b for a, b in pairs[1:]]))
        work = problem.n_dofs * cases // 2
        if work >= gate:
            two_lane.append(res)
        rows.append(["x".join(map(str, res)), f"{problem.n_dofs}", f"{cases}",
                     f"{work}", f"{1e3 * one:.1f}", f"{1e3 * two:.1f}",
                     f"{speedup[res]:.2f}x", "two" if res in two_lane else "one"])
    write_table("two_lane", format_table(
        "ebe-mcg@cpu-gpu host ms per step, one lane vs two (best of "
        f"{SAMPLES}; speedup: median of the pairs; two lanes from "
        f"n_dofs * r >= {gate})",
        ["mesh", "dofs", "cases", "n_dofs * r", "one-lane ms", "two-lane ms",
         "speedup", "lanes run"], rows,
    ))
    assert all(speedup[res] >= 1.15 for res in two_lane), speedup
