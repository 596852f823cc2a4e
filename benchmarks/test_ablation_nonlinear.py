"""Ablation bench — nonlinear problems: matrix-free EBE vs CRS rebuild.

Paper §2.2: "the introduction of EBE makes the computations
matrix-free, enabling the use of the proposed method for solving
nonlinear problems" — because a changing matrix costs CRS a full
re-assembly + re-store per update while EBE recomputes in-kernel.

This bench runs the equivalent-linear driver with both operator
strategies at several update frequencies and prints the modeled
per-step device time on the single-GH200 GPU.  The CRS arm solves and
builds its RHS on the assembled matrix (memory-bound SpMV every CG
iteration) *and* pays a re-assembly per update, so its gap over EBE is
mostly the per-iteration SpMV term; the update intervals run different
iteration counts, which swamp the assembly term in the per-step gap.
The gates therefore compare at equal work: the gap per CG iteration
grows with update frequency, and the tally charges exactly one
re-assembly per rebuild on the CRS arm and none on the EBE arm.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import format_table, write_table
from repro.analysis.waves import BandlimitedImpulse
from repro.core.nonlinear import NonlinearDriver
from repro.fem.nonlinear import EquivalentLinearMaterial
from repro.hardware.roofline import DeviceModel
from repro.hardware.specs import SINGLE_GH200

NT = 24
UPDATE_INTERVALS = (8, 4, 2, 1)


def _run(problem, op_kind, update_interval, amplitude=1e7):
    force = BandlimitedImpulse.random(
        problem.mesh, problem.dt, rng=1, amplitude=amplitude,
        f0=0.3 / (np.pi * problem.dt), cycles_to_onset=0.8,
    )
    drv = NonlinearDriver(
        problem,
        material=EquivalentLinearMaterial(gamma_ref=1e-7),
        update_interval=update_interval,
        op_kind=op_kind,
    )
    _, tally = drv.run(force, nt=NT)
    return drv, tally


@pytest.fixture(scope="module")
def sweeps(bench_problem):
    out = {}
    for kind in ("ebe", "crs"):
        for ui in UPDATE_INTERVALS:
            out[(kind, ui)] = _run(bench_problem, kind, ui)
    return out


def test_nonlinear_ebe_vs_crs(benchmark, bench_problem, sweeps):
    benchmark.pedantic(
        lambda: _run(bench_problem, "ebe", 8, amplitude=1e5),
        rounds=1, iterations=1,
    )

    gpu = DeviceModel(SINGLE_GH200.gpu)
    rows = []
    times = {}
    for (kind, ui), (drv, tally) in sweeps.items():
        t = gpu.time_for_tally(tally) / NT
        times[(kind, ui)] = t
        rows.append([
            kind,
            f"every {ui}",
            f"{t * 1e6:.2f} us",
            f"{np.mean([r.iterations for r in drv.records]):.1f}",
            f"{drv.modulus_ratio.min():.3f}",
        ])
    write_table(
        "ablation_nonlinear",
        format_table(
            "Nonlinear ablation — modeled GPU time per step vs operator "
            f"strategy and update frequency ({bench_problem.n_dofs} dofs)",
            ["operator", "update", "GPU time/step", "iters", "min G/G0"],
            rows,
        ),
    )

    # both strategies solve the same physics
    for ui in UPDATE_INTERVALS:
        d_e = sweeps[("ebe", ui)][0]
        d_c = sweeps[("crs", ui)][0]
        assert d_e.modulus_ratio.min() == pytest.approx(
            d_c.modulus_ratio.min(), rel=1e-9
        )
    # CRS pays for its SpMV and for re-assembly; EBE for neither — and
    # at equal work (per CG iteration) the gap widens as updates become
    # more frequent
    gap = {ui: times[("crs", ui)] - times[("ebe", ui)] for ui in UPDATE_INTERVALS}
    assert all(g > 0 for g in gap.values())
    iters = {ui: np.mean([r.iterations for r in sweeps[("crs", ui)][0].records])
             for ui in UPDATE_INTERVALS}
    gap_per_iter = {ui: gap[ui] / iters[ui] for ui in UPDATE_INTERVALS}
    assert gap_per_iter[1] > gap_per_iter[8], gap_per_iter
    # one re-assembly charged per rebuild on the CRS arm, none on EBE
    for (kind, ui), (drv, tally) in sweeps.items():
        rebuilds = sum(r.updated for r in drv.records) if kind == "crs" else 0
        assert tally.calls("assembly.crs") == rebuilds, (kind, ui)
    assert sum(r.updated for r in sweeps[("crs", 1)][0].records) > sum(
        r.updated for r in sweeps[("crs", 8)][0].records)
    # EBE per-step cost is ~flat in update frequency
    assert times[("ebe", 1)] < 1.25 * times[("ebe", 8)]
