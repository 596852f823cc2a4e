"""Transprecision accuracy-vs-speed study.

The solver family is bandwidth-bound, so storing the streamed solver
data in FP32/FP21 (:mod:`repro.sparse.precision`) buys modeled speed
roughly in proportion to the word size — *if* the reduced-precision
solves still reach the paper's ``eps = 1e-8`` without blowing up the
iteration count.  This study measures both sides of that trade on real
executed ensembles:

* :func:`transprecision_cells` emits one ordinary ``"method"``
  campaign cell per storage precision (same scenario seed, so every
  precision solves identical physics).  Cells ride the shared
  :class:`~repro.campaign.runner.CampaignRunner` caching — the fp64
  anchor cell hashes identically to the equivalent plain grid cell,
  so a transprecision study reuses a campaign's cache and vice versa.
* :func:`transprecision_table` reduces the outcomes to the
  accuracy-vs-speed rows: achieved residual, iteration inflation and
  modeled speedup, each against the fp64 anchor.
* :func:`modeled_solver_bytes_per_iteration` is the analytic side —
  the bytes one fused EBE-MCG CG iteration moves per case — used by
  the benchmark that regenerates the modeled speedup table at the
  paper's mesh size.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.campaign.axes import AXIS
from repro.campaign.spec import CampaignCell, WaveSpec, method_cell_params
from repro.sparse.precision import Precision, as_precision
from repro.sparse.traffic import ebe_traffic, vector_traffic

__all__ = [
    "TransprecisionPoint",
    "transprecision_cells",
    "transprecision_table",
    "modeled_solver_bytes_per_iteration",
]


def transprecision_cells(
    precisions: tuple[str, ...] = ("fp64", "fp32", "fp21"),
    model: str = "stratified",
    wave: WaveSpec | None = None,
    resolution: tuple[int, int, int] = (2, 2, 1),
    cases: int = 2,
    steps: int = 8,
    method: str = "ebe-mcg@cpu-gpu",
    module: str = "single-gh200",
    seed: int = 0,
    eps: float = 1e-8,
    s_range: tuple[int, int] = (2, 8),
    nparts: int = 1,
) -> list[CampaignCell]:
    """One ``"method"`` cell per storage precision, identical physics.

    The shared cell schema (:func:`~repro.campaign.spec.method_cell_params`)
    keeps the fp64 cell's hash equal to the equivalent plain grid
    cell's, so the study and any grid campaign share one cache.
    """
    if not precisions:
        raise ValueError("need at least one precision")
    wave = wave if wave is not None else WaveSpec(name="w0")
    cells: list[CampaignCell] = []
    for prec in precisions:
        params, label = method_cell_params(
            model, wave, method, resolution,
            cases=cases, steps=steps, module=module, eps=eps,
            s_min=s_range[0], s_max=s_range[1], seed=seed,
            nparts=nparts, precision=str(prec),
        )
        cells.append(
            CampaignCell(kind="method", params=params, label=f"transprec/{label}")
        )
    return cells


@dataclass(frozen=True)
class TransprecisionPoint:
    """One row of the accuracy-vs-speed table (times per step *per
    case*, matching the campaign summary columns)."""

    precision: str
    elapsed_per_step: float
    speedup: float  # t(fp64) / t(precision)
    iterations_per_step: float
    iteration_inflation: float  # iters(precision) / iters(fp64)
    achieved_relres: float  # worst windowed solver residual


def transprecision_table(outcomes) -> list[TransprecisionPoint]:
    """Reduce study outcomes to per-precision accuracy-vs-speed rows.

    Rows are anchored at the fp64 outcome; without one (or with it
    failed) inflation and speedup are reported as 1.0-anchored on the
    first successful row — never silently rebased onto a failure.
    """
    rows = []
    for o in outcomes:
        if not o.ok:
            continue
        s = o.result["summary"]
        rows.append(
            (
                AXIS["precision"].of(o.cell.params),
                float(s["elapsed_per_step_per_case_s"]),
                float(s["iterations_per_step"]),
                float(s.get("achieved_relres", 0.0)),
            )
        )
    if not rows:
        return []
    anchor = next((r for r in rows if r[0] == AXIS["precision"].default), rows[0])
    points = [
        TransprecisionPoint(
            precision=prec,
            elapsed_per_step=t,
            speedup=anchor[1] / t if t > 0 else 0.0,
            iterations_per_step=iters,
            iteration_inflation=iters / anchor[2] if anchor[2] > 0 else 0.0,
            achieved_relres=relres,
        )
        for prec, t, iters, relres in rows
    ]
    # present widest-to-narrowest storage, deterministically
    order = {"fp64": 0, "fp32": 1, "fp21": 2}
    points.sort(key=lambda p: (order.get(p.precision, 99), p.precision))
    return points


def modeled_solver_bytes_per_iteration(
    n_elems: int,
    n_nodes: int,
    n_rhs: int,
    precision: Precision | str | None = None,
) -> float:
    """Modeled main-memory bytes one fused EBE-MCG CG iteration moves
    *per case*: one EBE sweep (Eq. 9), one block-Jacobi application and
    the CG vector updates, all streaming at the policy's itemsize.

    This is the per-iteration byte contract every layer above the
    kernels consumes — the quantity the transprecision benchmark
    tabulates at the paper's mesh size (FP21 must land at <= 0.55x of
    fp64, the "traffic nearly halved" claim).
    """
    prec = as_precision(precision)
    n = 3 * n_nodes
    spmv = ebe_traffic(
        n_elems, n_nodes, n_rhs=n_rhs, value_bytes=prec.itemsize
    ).bytes
    precond = vector_traffic(
        n, n_reads=2, n_writes=1, flops_per_entry=6.0,
        value_bytes=prec.itemsize,
    ).bytes
    # the solver's exact per-iteration vector charge: 11 storage-width
    # r/z/p/q streams plus the fp64-resident solution read + write
    updates = (
        vector_traffic(
            n, n_reads=9, n_writes=2, flops_per_entry=12.0,
            value_bytes=prec.itemsize,
        ).bytes
        + 8.0 * n * 2
    )
    return spmv + precond + updates
