"""Transprecision speedup — modeled EBE-MCG traffic at FP64/FP32/FP21.

The group's transprecision kernels store the streamed solver data in
FP32/FP21 inside an FP64-accurate outer loop; since every EBE-MCG
kernel is bandwidth-bound on GH200, the modeled bytes per CG iteration
are the speedup contract.  This bench regenerates that table at the
paper's mesh size (15.5M nodes / 11.4M elements, r = 4 fused cases)
and pairs it with an *executed* accuracy check on the bench mesh: the
reduced-precision solves must still reach eps = 1e-8 with bounded
iteration inflation — speed that loses the solution doesn't count.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import format_table, write_table
from repro.hardware.roofline import DeviceModel
from repro.hardware.specs import SINGLE_GH200
from repro.sparse.cg import pcg
from repro.sparse.ebe import EBEOperator
from repro.sparse.precision import PRECISIONS
from repro.sparse.precond import BlockJacobi
from repro.sparse.traffic import modeled_solver_bytes_per_iteration
from repro.util.counters import tally_scope

PAPER_NODES = 15_509_903
PAPER_ELEMS = 11_365_697
R_FUSED = 4


def _modeled_rows():
    gpu = DeviceModel(SINGLE_GH200.gpu)
    rows = []
    base_bytes = base_t = None
    for name in ("fp64", "fp32", "fp21"):
        nbytes = modeled_solver_bytes_per_iteration(
            PAPER_ELEMS, PAPER_NODES, R_FUSED, precision=name
        )
        # an iteration is bandwidth-bound end to end: time it as the
        # dominant EBE sweep tag (the roofline picks max(flop, byte))
        flops = (1800.0 + 1900.0) * PAPER_ELEMS + 18.0 * 3 * PAPER_NODES
        t = gpu.time_for(f"spmv.ebe{R_FUSED}", flops, nbytes)
        if base_bytes is None:
            base_bytes, base_t = nbytes, t
        rows.append(
            (name, nbytes, nbytes / base_bytes, t, base_t / t)
        )
    return rows


def test_transprecision_modeled_speedup(benchmark, kernel_problem):
    """FP21 cuts modeled EBE-MCG bytes/step to <= 0.55x of fp64 (the
    acceptance contract), and the executed solves stay accurate."""
    rows = benchmark(_modeled_rows)

    by_name = {r[0]: r for r in rows}
    assert by_name["fp64"][2] == 1.0
    # fp32 halves the vector traffic but fixed per-element bytes remain
    assert 0.5 <= by_name["fp32"][2] < 0.8
    # the acceptance criterion: fp21 bytes/step <= 0.55x of fp64
    assert by_name["fp21"][2] <= 0.55

    # --- executed accuracy side on the bench mesh -------------------
    p = kernel_problem
    rng = np.random.default_rng(3)
    B = rng.standard_normal((p.n_dofs, R_FUSED))
    B[p.fixed_dofs, :] = 0.0
    solves = {}
    for name in ("fp64", "fp32", "fp21"):
        A = EBEOperator(p.element_matrices("A"), p.mesh.elems, p.n_nodes, precision=name)
        M = BlockJacobi(A.diagonal_blocks(), precision=name)
        with tally_scope() as t:
            res = pcg(A, B, precond=M, eps=1e-8, precision=name)
        assert bool(res.converged.all()), name
        assert float(res.final_relres.max()) < 1e-8
        solves[name] = (res, t.total_bytes())
    inflation = (
        solves["fp21"][0].loop_iterations / solves["fp64"][0].loop_iterations
    )
    assert inflation <= 1.5
    # executed tallies shrink like the model says
    assert solves["fp21"][1] < 0.55 * solves["fp64"][1]

    table = format_table(
        "Transprecision EBE-MCG — modeled bytes and speedup per CG "
        "iteration, paper-size mesh (r = 4)",
        ["precision", "bytes/iter/case", "vs fp64", "modeled time",
         "speedup", "executed iters (bench mesh)", "relres"],
        [
            [
                name,
                f"{nbytes / 1e6:.1f} MB",
                f"{ratio:.3f}x",
                f"{t * 1e3:.2f} ms",
                f"{speedup:.2f}x",
                str(int(solves[name][0].loop_iterations)),
                f"{float(solves[name][0].final_relres.max()):.2e}",
            ]
            for name, nbytes, ratio, t, speedup in rows
        ],
    )
    write_table("transprecision_speedup", table)


@pytest.mark.parametrize("name", sorted(PRECISIONS))
def test_quantize_throughput(benchmark, name):
    """Host cost of the storage emulation itself (the quantize_ call
    every precision-aware store pays; fp64 must be free)."""
    prec = PRECISIONS[name]
    a = np.random.default_rng(0).standard_normal((200_000, 4))
    benchmark(lambda: prec.quantize_(a))
