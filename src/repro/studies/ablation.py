"""Predictor design ablations.

DESIGN.md calls out four design choices in the data-driven predictor;
this study quantifies what each buys, in CG iterations per step, on a
real workload:

* ``ab-only`` — Adams-Bashforth extrapolation alone (the baseline);
* ``dd-global`` — MGS correction with a single global region;
* ``dd-noforce`` — subdomains but without the Eq. 3 force input;
* ``dd-full`` — subdomains + force input (the shipped configuration).

:func:`run_predictor_ablation` runs the arms in process over an
already-built problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.pipeline import CaseSet
from repro.predictor.adams_bashforth import AdamsBashforth
from repro.predictor.datadriven import DataDrivenPredictor

__all__ = [
    "PredictorAblation",
    "run_predictor_ablation",
    "ABLATION_VARIANTS",
]

ABLATION_VARIANTS = ("ab-only", "dd-global", "dd-noforce", "dd-full")


class _ForceBlindPredictor(DataDrivenPredictor):
    """Data-driven predictor that discards the force input (for the
    ``dd-noforce`` ablation arm)."""

    def predict(self, f_next: np.ndarray | None = None) -> np.ndarray:
        return super().predict(f_next=None)

    def observe(self, u, v, f=None) -> None:
        super().observe(u, v, f=None)


def _make_predictor(variant: str, n: int, dt: float, s: int, n_regions: int):
    if variant == "ab-only":
        return AdamsBashforth(n, dt)
    if variant == "dd-global":
        return DataDrivenPredictor(n, dt, s_max=s, n_regions=1, s=s)
    if variant == "dd-noforce":
        return _ForceBlindPredictor(n, dt, s_max=s, n_regions=n_regions, s=s)
    if variant == "dd-full":
        return DataDrivenPredictor(n, dt, s_max=s, n_regions=n_regions, s=s)
    raise ValueError(f"unknown variant {variant!r}; see ABLATION_VARIANTS")


@dataclass
class PredictorAblation:
    """Iterations and initial residuals per ablation arm."""

    variant: str
    iterations: np.ndarray = field(repr=False)
    initial_relres: np.ndarray = field(repr=False)

    def mean_iterations(self, window: slice | None = None) -> float:
        w = window if window is not None else slice(None)
        return float(np.mean(self.iterations[w]))

    def median_initial_relres(self, window: slice | None = None) -> float:
        w = window if window is not None else slice(None)
        return float(np.median(self.initial_relres[w]))


def _run_variant(
    problem,
    force,
    variant: str,
    nt: int,
    s: int,
    n_regions: int,
    eps: float,
) -> PredictorAblation:
    """One ablation arm on one case."""
    pred = _make_predictor(variant, problem.n_dofs, problem.dt, s, n_regions)
    cs = CaseSet(problem, forces=[force], predictors=[pred],
                 op_kind="ebe", eps=eps)
    iters, rel0 = [], []
    for it in range(1, nt + 1):
        g, _ = cs.predict(it)
        res, _ = cs.solve(it, g)
        iters.append(int(res.iterations[0]))
        rel0.append(float(res.initial_relres[0]))
    return PredictorAblation(
        variant=variant,
        iterations=np.asarray(iters),
        initial_relres=np.asarray(rel0),
    )


def run_predictor_ablation(
    problem,
    force,
    nt: int = 64,
    s: int = 16,
    n_regions: int = 8,
    variants: tuple[str, ...] = ABLATION_VARIANTS,
    eps: float = 1e-8,
) -> dict[str, PredictorAblation]:
    """Run one case per variant on identical physics and record
    per-step iteration counts and initial residuals."""
    return {
        variant: _run_variant(problem, force, variant, nt, s, n_regions, eps)
        for variant in variants
    }
