"""Pluggable predictor registry: *how* the solver's initial guess is made.

A :class:`Predictor` produces the iterative solver's starting vector
for each time step (paper §2.2) from whatever history it keeps; the
registry makes the family pluggable the same way
:mod:`repro.workloads.scenario` made workloads pluggable — a class is
registered under its ``name`` with :func:`register_predictor` and
:func:`predictor_by_name` resolves names loudly, so a typo'd predictor
fails at spec time instead of silently running the default
extrapolation.

The registered zoo spans the classical accelerator ladder:

* ``constant`` / ``linear`` — displacement-only polynomial
  extrapolation (degree 0/1), the floor any history-based method must
  beat;
* ``adams-bashforth`` — the paper's conventional 4-step velocity
  extrapolation (baseline methods' native predictor);
* ``data-driven`` — the paper's correction estimator by orthogonal
  decomposition of the history (heterogeneous methods' native
  predictor, Eq. 3);
* ``aitken`` — dynamic relaxation of the Adams-Bashforth guess, omega
  updated from successive guess-residual differences (CoCoNuT's
  ``coupled_solvers/aitken.py`` transplanted to time-step prediction);
* ``iqn-ils`` — quasi-Newton correction with an IQN-ILS-style
  least-squares surrogate Jacobian over a bounded secant window.

:data:`DEFAULT_PREDICTOR` (``"auto"``) is a *sentinel*, not a
registered class: it means "the method's paper-native pairing"
(Adams-Bashforth for the single-device baselines, data-driven for the
heterogeneous pipeline — the table in :mod:`repro.core.methods`).
Auto cells therefore reproduce pre-registry numerics bit-for-bit,
which is what lets the campaign's ``predictors`` axis keep pre-axis
cell hashes and cached artifacts valid.
"""

from __future__ import annotations

import abc
from typing import ClassVar

import numpy as np

__all__ = [
    "DEFAULT_PREDICTOR",
    "PREDICTORS",
    "Predictor",
    "build_predictor",
    "predictor_by_name",
    "predictor_names",
    "register_predictor",
]

#: name -> registered Predictor subclass (the class, not an instance:
#: predictors are per-case state and are built per use).
PREDICTORS: dict[str, type["Predictor"]] = {}

#: Sentinel meaning "the method's paper-native predictor" (see module
#: docstring).  Cells, CLI invocations and studies that do not name a
#: predictor get this, and campaign cells running it keep their
#: pre-axis content hash.
DEFAULT_PREDICTOR = "auto"


class Predictor(abc.ABC):
    """One registered initial-guess predictor.

    The contract every registered class honors (and the property suite
    in ``tests/predictor/test_registry_properties.py`` enforces):

    * :meth:`predict` returns the guess for the *upcoming* step as a
      finite ``(n,)`` fp64 vector, deterministically from the observed
      history (``f_next`` is the known upcoming force, which
      force-aware predictors may use);
    * :meth:`observe` records one completed step's converged state;
      calls strictly alternate predict/observe in the pipeline, but a
      predictor must tolerate an observe with no preceding predict
      (resume bootstraps do this);
    * :meth:`state_dict`/:meth:`load_state_dict` round-trip **all**
      state :meth:`predict` reads through JSON-able values, exactly —
      the checkpoint/resume bit-identity contract;
    * :attr:`s_effective` is the history length the next prediction
      will consume, or ``None`` for predictors without a meaningful
      history-length notion (the ``s_used`` reporting then stays
      ``None`` instead of diluting campaign means with zeros).
    """

    #: registry key (also the campaign cell's ``predictor`` param).
    name: ClassVar[str] = ""
    #: one-line rationale, shown by ``repro predictors``.
    description: ClassVar[str] = ""

    @classmethod
    def build(
        cls,
        n: int,
        dt: float,
        *,
        s_min: int = 8,
        s_max: int = 32,
        n_regions: int = 16,
    ) -> "Predictor":
        """Uniform construction seam from one run configuration.

        The base signature covers predictors without tunables;
        history-bearing subclasses override to map the run's
        ``s_range``/``n_regions`` onto their own knobs.
        """
        return cls(n, dt)

    @abc.abstractmethod
    def predict(self, f_next: np.ndarray | None = None) -> np.ndarray:
        """Initial guess for the upcoming step."""

    @abc.abstractmethod
    def observe(
        self, u: np.ndarray, v: np.ndarray, f: np.ndarray | None = None
    ) -> None:
        """Record the converged state of the step just completed."""

    @abc.abstractmethod
    def state_dict(self) -> dict:
        """JSON-able snapshot of everything :meth:`predict` reads."""

    @abc.abstractmethod
    def load_state_dict(self, doc: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place."""

    def memory_bytes(self) -> int:
        """Modeled history footprint (0 for stateless predictors)."""
        return 0

    @property
    def s_effective(self) -> int | None:
        """History length the next prediction will use, or ``None``
        when the predictor has no history-length notion."""
        return None


def register_predictor(cls: type[Predictor]) -> type[Predictor]:
    """Class decorator adding a :class:`Predictor` to the registry.

    The class's ``name`` is the registry key; re-registering a name
    with a *different* class is an error (re-importing the same class
    is idempotent, so test reloads stay safe).  The ``"auto"``
    sentinel is reserved.
    """
    name = getattr(cls, "name", "")
    if not name:
        raise ValueError(f"predictor class {cls.__name__} has no name")
    if name == DEFAULT_PREDICTOR:
        raise ValueError(
            f"predictor name {DEFAULT_PREDICTOR!r} is the reserved "
            "method-native sentinel"
        )
    existing = PREDICTORS.get(name)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"predictor name {name!r} already registered by {existing.__name__}"
        )
    PREDICTORS[name] = cls
    return cls


def predictor_by_name(name: str) -> type[Predictor]:
    """Resolve a registered predictor class by name; a typo must fail
    loudly rather than silently run the default extrapolation (the
    same discipline as :func:`repro.workloads.scenario.scenario_by_name`)."""
    try:
        return PREDICTORS[name]
    except KeyError:
        raise ValueError(
            f"unknown predictor {name!r}; choose from {sorted(PREDICTORS)}"
        ) from None


def predictor_names() -> tuple[str, ...]:
    """Registered predictor names in deterministic (sorted) order —
    the order sweeps and tables present them in.  The ``"auto"``
    sentinel is not listed: it is a per-method alias, not a class."""
    return tuple(sorted(PREDICTORS))


def build_predictor(
    name: str,
    n: int,
    dt: float,
    *,
    s_min: int = 8,
    s_max: int = 32,
    n_regions: int = 16,
) -> Predictor:
    """Build one registered predictor from a run configuration — the
    single construction seam :func:`repro.core.methods.run_method`
    uses for every case."""
    return predictor_by_name(name).build(
        int(n), float(dt), s_min=int(s_min), s_max=int(s_max),
        n_regions=int(n_regions),
    )
