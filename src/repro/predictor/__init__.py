"""Initial-guess predictors for the iterative solver (paper §2.2, Eq. 3).

The zoo is pluggable through :mod:`repro.predictor.registry` — every
class below registers itself under its ``name`` on import, and
:func:`~repro.predictor.registry.predictor_by_name` resolves names
loudly.  The paper's own pairing (Fig. 3) remains the default:

* :class:`~repro.predictor.adams_bashforth.AdamsBashforth` — the
  conventional 4-step extrapolation used by the CRS-CG baselines;
* :class:`~repro.predictor.datadriven.DataDrivenPredictor` — the
  paper's data-driven method ([6]-style): Adams-Bashforth plus a
  per-subdomain least-squares estimate of the remaining correction,
  learned from the last ``s`` time steps (modified Gram-Schmidt in the
  paper; on the host, Householder QR behind the backend seam).

Around them, the classical accelerator ladder:

* :class:`~repro.predictor.ladder.ConstantPredictor` /
  :class:`~repro.predictor.ladder.LinearPredictor` — degree-0/1
  displacement extrapolation, the floor any accelerator must beat;
* :class:`~repro.predictor.aitken.AitkenPredictor` — dynamic Aitken
  relaxation of the Adams-Bashforth increment;
* :class:`~repro.predictor.iqn.IQNILSPredictor` — IQN-ILS-style
  quasi-Newton correction over a bounded, QR-filtered secant window.

:class:`~repro.predictor.adaptive.AdaptiveSController` adjusts ``s``
online so predictor@CPU time balances solver@GPU time (Fig. 4); it
only touches predictors that expose ``set_s``.
"""

from repro.predictor.registry import (
    DEFAULT_PREDICTOR,
    PREDICTORS,
    Predictor,
    build_predictor,
    predictor_by_name,
    predictor_names,
    register_predictor,
)
from repro.predictor.adams_bashforth import AdamsBashforth
from repro.predictor.datadriven import DataDrivenPredictor, mgs_estimate
from repro.predictor.ladder import ConstantPredictor, LinearPredictor
from repro.predictor.aitken import AitkenPredictor
from repro.predictor.iqn import IQNILSPredictor
from repro.predictor.adaptive import AdaptiveSController

__all__ = [
    "DEFAULT_PREDICTOR",
    "PREDICTORS",
    "Predictor",
    "build_predictor",
    "predictor_by_name",
    "predictor_names",
    "register_predictor",
    "AdamsBashforth",
    "DataDrivenPredictor",
    "mgs_estimate",
    "ConstantPredictor",
    "LinearPredictor",
    "AitkenPredictor",
    "IQNILSPredictor",
    "AdaptiveSController",
]
