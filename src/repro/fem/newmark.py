"""Newmark-beta time integration (trapezoidal rule; paper Eqs. 5-7).

With ``beta = 1/4`` and ``gamma = 1/2`` the implicit update for
``M a + C v + K u = f`` becomes one linear solve per step:

    (4/dt^2 M + 2/dt C + K) u_it = f_it
        + M (4/dt^2 u_{it-1} + 4/dt v_{it-1} + a_{it-1})
        + C (2/dt u_{it-1} + v_{it-1})

followed by the paper's velocity/acceleration recurrences (Eqs. 6-7):

    v_it = -v_{it-1} + 2/dt (u_it - u_{it-1})
    a_it = -a_{it-1} - 4/dt v_{it-1} + 4/dt^2 (u_it - u_{it-1})

(The published Eq. 7 prints ``+4/dt v``; the sign shown here is the one
consistent with Eq. 6 and the trapezoidal rule, verified by the
single-dof analytic tests in ``tests/fem/test_newmark.py``.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = ["NewmarkBeta", "NewmarkState"]


@dataclass
class NewmarkState:
    """Kinematic state (u, v, a) at the current time step."""

    u: np.ndarray
    v: np.ndarray
    a: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, n: int) -> "NewmarkState":
        return cls(np.zeros(n), np.zeros(n), np.zeros(n), step=0)

    def copy(self) -> "NewmarkState":
        return NewmarkState(self.u.copy(), self.v.copy(), self.a.copy(), self.step)


@dataclass(frozen=True)
class NewmarkBeta:
    """Coefficient container for the trapezoidal Newmark scheme."""

    dt: float

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError("dt must be positive")

    @property
    def c_mass(self) -> float:
        """Coefficient of M in the effective matrix (4/dt^2)."""
        return 4.0 / self.dt**2

    @property
    def c_damp(self) -> float:
        """Coefficient of C in the effective matrix (2/dt)."""
        return 2.0 / self.dt

    def rhs(self, M: Any, C: Any, f: np.ndarray, state: NewmarkState) -> np.ndarray:
        """Right-hand side of the effective system for the next step —
        the one place Eq. 5's right side is written.

        ``M`` and ``C`` may be any objects supporting ``@`` on vectors
        (scipy sparse matrices or the instrumented operators in
        :mod:`repro.sparse`); ``f`` and the state may be ``(n,)``
        vectors or ``(n, r)`` blocks of ``r`` cases.
        """
        dt = self.dt
        um = self.c_mass * state.u + (4.0 / dt) * state.v + state.a
        uc = self.c_damp * state.u + state.v
        b = f + M @ um
        b += C @ uc
        return b

    def advance(self, state: NewmarkState, u_new: np.ndarray) -> NewmarkState:
        """Apply the Eq. 6-7 recurrences, returning the next state."""
        dt = self.dt
        du = u_new - state.u
        v_new = -state.v + (2.0 / dt) * du
        a_new = -state.a - (4.0 / dt) * state.v + self.c_mass * du
        return NewmarkState(u=u_new.copy(), v=v_new, a=a_new, step=state.step + 1)
