"""Two lanes per heterogeneous step — where a second host process pays.

``HeterogeneousPipeline`` can step its two case sets in two processes:
after a ``run`` call's first step it forks once, and set B solves then
predicts the next step in the worker while set A predicts then solves
in the caller's process, one small message each way per step
(:mod:`repro.core.pipeline`).  Neither process shares an interpreter
lock with the other, so the two overlap on a 2-core box however short
the kernels are; what a run pays is one fork, copy-on-write faults on
the pages either process writes, and two pipe messages per step.

For each mesh this bench times ``ebe-mcg@cpu-gpu`` runs with the lanes
forced off (``MIN_LANE_WORK`` = inf) and forced on (0), in ``SAMPLES``
back-to-back pairs, and reports each arm's best wall milliseconds per
step and the median of the pairs' ratios (a shared box drifts between
fast and slow spells lasting seconds; a pair sits within one).  Each
sample is one ``run_method`` call, so its fork is in the two-lane time.
Over three runs on a shared 2-vCPU box every mesh gained: ``(3, 3, 2)``
at 2 cases 1.30-1.51x, ``(4, 4, 2)`` 1.32-1.62x, ``(5, 5, 3)``
1.45-1.67x, the grouped ``(6, 6, 3)`` 1.55-1.72x, ``(8, 8, 4)``
1.39-1.70x and ``(10, 10, 5)`` 1.46-1.68x (a second lane thread read
0.79-1.45x here).  A fourth run, made while other jobs took the cores,
read 1.02x at ``(5, 5, 3)`` and failed the assertion: the bench needs
both cores to itself.  :data:`repro.core.pipeline.MIN_LANE_WORK` stays
above the campaign grid's ``(3, 3, 2)`` cells, whose ``run`` calls are
8-step checkpoint chunks.  Asserted: at least 1.15x on every mesh the
gate puts on two lanes.  Run it with ``OPENBLAS_NUM_THREADS=1`` like
the perf harness: a BLAS that threads every call on its own competes
with the second lane for the cores.
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
