"""Backend speedup — measured wall time of the fused r=8 solve and of
the conventional one.

The backend seam exists to let accelerated engines execute the exact
solver the reference NumPy backend runs.  This bench times the fused
EBE-MCG solve (r = 8 right-hand sides, block-Jacobi PCG to 1e-8) under
every available backend on the bench mesh and reports, per backend:

* measured wall seconds (best of ``REPEATS``);
* speedup over the ``numpy`` reference;
* the modeled GH200 time for the identical tally, and the
  measured-vs-modeled ratio — the gap a real GPU port would close.

With numba installed the jitted backend must beat the reference
outright (ratio > 1x) on the fused solve — that assertion is the
acceptance criterion for the seam paying for itself; without numba the
test skips.

The second row per backend is the paper's *conventional* method, CRS-CG
with one right-hand side, at the campaign grid's 735 dofs: interpreter
overhead around microsecond kernels, where the reference backend runs
scipy's single-vector SpMV.  Reported, not asserted — the numba CI job
is where the jitted ``spmv_csr`` meets that reference at r = 1.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.conftest import format_table, write_table
from repro.hardware.roofline import DeviceModel
from repro.hardware.specs import SINGLE_GH200
from repro.sparse.backend import available_backend_names, backend_by_name
from repro.sparse.cg import PCGWorkspace, pcg
from repro.sparse.ebe import EBEOperator
from repro.sparse.precond import BlockJacobi
from repro.util.counters import tally_scope
from repro.workloads.ground import build_ground_problem, stratified_model

R_FUSED = 8
REPEATS = 3
CRS_RESOLUTION = (3, 3, 2)  # the campaign grid's cells: 735 dofs


def _ebe(problem, backend):
    return EBEOperator(problem.Ae, problem.mesh.elems, problem.n_nodes,
                       tag="spmv.ebe", backend=backend)


def _crs(problem, backend):
    return problem.crs_operator(backend=backend)


def _solve_once(operator, problem, backend, B, workspace):
    A = operator(problem, backend)
    M = BlockJacobi(A.diagonal_blocks(), backend=backend)
    with tally_scope() as t:
        res = pcg(A, B, precond=M, eps=1e-8, workspace=workspace,
                  backend=backend)
    return res, t


def _time_backend(operator, problem, name, B):
    bk = backend_by_name(name)
    ws = PCGWorkspace()
    # warm-up solve: numba JIT compilation (and any lazy caches) must
    # not be billed to the measured iteration
    _solve_once(operator, problem, bk, B, ws)
    best, res, tally = np.inf, None, None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        res, tally = _solve_once(operator, problem, bk, B, ws)
        best = min(best, time.perf_counter() - t0)
    assert bool(res.converged.all()), name
    return best, res, tally


def _rhs(problem, r):
    B = np.random.default_rng(7).standard_normal((problem.n_dofs, r))
    B[problem.fixed_dofs, :] = 0.0
    return B


def test_backend_speedup(bench_problem):
    small = build_ground_problem(stratified_model(), resolution=CRS_RESOLUTION)
    solves = [
        (f"ebe-mcg r={R_FUSED}", _ebe, bench_problem, R_FUSED),
        ("crs-cg r=1", _crs, small, 1),  # the conventional method
    ]
    gpu = DeviceModel(SINGLE_GH200.gpu)
    names = ["numpy"] + [
        n for n in available_backend_names() if n != "numpy"
    ]

    rows, wall = [], {}
    for label, operator, problem, r in solves:
        B = _rhs(problem, r)
        for name in names:
            t_wall, res, tally = _time_backend(operator, problem, name, B)
            t_model = gpu.time_for_tally(tally)
            wall[label, name] = t_wall
            rows.append([
                label,
                f"{problem.n_dofs}",
                name,
                f"{t_wall:.5f}",
                f"{wall[label, 'numpy'] / t_wall:5.2f}x",
                f"{res.loop_iterations}",
                f"{t_model:.5f}",
                f"{t_wall / t_model:7.1f}x",
            ])

    write_table("backend_speedup", format_table(
        "Solve wall time by backend (eps=1e-8, best of "
        f"{REPEATS} warm solves)",
        ["solve", "dofs", "backend", "wall s", "vs numpy", "iters",
         "modeled GH200 s", "measured/modeled"],
        rows,
    ))

    # every backend solves the same system to the same tolerance
    for label, *_ in solves:  # rounding may move iters by 1
        assert len({r[5] for r in rows if r[0] == label}) <= 2

    if "numba" not in available_backend_names():
        pytest.skip("numba not installed: speedup contract not testable")
    # the acceptance criterion: the jitted engine beats the reference
    fused = solves[0][0]
    ratio = wall[fused, "numpy"] / wall[fused, "numba"]
    assert ratio > 1.0, f"numba backend slower than numpy ({ratio:.2f}x)"
