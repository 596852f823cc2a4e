"""Run records and table-ready summaries.

The paper reports per-method aggregates over a steady-state window
("average elapsed time per time step between 250-500th time step ...
per problem case"); :class:`RunResult` keeps per-step records so any
window can be summarized the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.fem.newmark import NewmarkState
from repro.util.timeline import Timeline

__all__ = ["StepRecord", "RunResult"]


@dataclass
class StepRecord:
    """Modeled cost and measured numerics of one time step (all cases)."""

    step: int
    iterations: np.ndarray  # (ncases,) per-case first-crossing CG iterations
    t_solver: float  # modeled solver seconds this step (sum over phases)
    t_predictor: float  # modeled predictor seconds this step
    t_transfer: float  # modeled C2C seconds this step
    t_step: float  # makespan advance of this step
    # history length each process set's prediction used; None when the
    # predictor has no history-length notion (plain extrapolation) so
    # aggregation can skip it instead of averaging in spurious zeros
    s_used: int | None = None  # set A (0 = history-bearing, warming up)
    s_used_b: int | None = None  # set B
    t_halo: float = 0.0  # modeled inter-part halo/allreduce seconds
    relres: float = 0.0  # worst final relative residual across cases

    @property
    def mean_iterations(self) -> float:
        return float(np.mean(self.iterations))

    def to_dict(self) -> dict:
        """JSON-able form (exact: floats round-trip through repr)."""
        return {
            "step": int(self.step),
            "iterations": [int(i) for i in np.asarray(self.iterations)],
            "t_solver": self.t_solver,
            "t_predictor": self.t_predictor,
            "t_transfer": self.t_transfer,
            "t_step": self.t_step,
            "s_used": None if self.s_used is None else int(self.s_used),
            "s_used_b": None if self.s_used_b is None else int(self.s_used_b),
            "t_halo": self.t_halo,
            "relres": self.relres,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "StepRecord":
        return cls(
            step=int(doc["step"]),
            iterations=np.asarray(doc["iterations"], dtype=int),
            t_solver=float(doc["t_solver"]),
            t_predictor=float(doc["t_predictor"]),
            t_transfer=float(doc["t_transfer"]),
            t_step=float(doc["t_step"]),
            s_used=None if doc.get("s_used") is None else int(doc["s_used"]),
            s_used_b=None if doc.get("s_used_b") is None else int(doc["s_used_b"]),
            t_halo=float(doc.get("t_halo", 0.0)),
            relres=float(doc.get("relres", 0.0)),
        )


@dataclass
class RunResult:
    """Everything the benches need to print a paper table row."""

    method: str
    module_name: str
    n_cases: int
    n_dofs: int
    records: list[StepRecord]
    timeline: Timeline
    cpu_memory_bytes: float
    gpu_memory_bytes: float
    power: dict[str, float] = field(default_factory=dict)
    final_states: list[NewmarkState] = field(default_factory=list)
    waveforms: np.ndarray | None = None  # (ncases, nt, nrec_dofs)
    # each process set's final per-element secant G/G0; None when the
    # problem has no equivalent-linear material
    modulus_ratio: list[np.ndarray] | None = None

    # -- windowed summaries -------------------------------------------
    def _window(self, window: tuple[int, int] | None) -> list[StepRecord]:
        if window is None:
            return self.records
        lo, hi = window
        return [r for r in self.records if lo <= r.step < hi]

    def elapsed_per_step_per_case(self, window: tuple[int, int] | None = None) -> float:
        """Modeled wall seconds per time step per problem case — the
        paper's "total elapsed time per case" column."""
        recs = self._window(window)
        return sum(r.t_step for r in recs) / (len(recs) * self.n_cases)

    def solver_time_per_step_per_case(self, window: tuple[int, int] | None = None) -> float:
        recs = self._window(window)
        return sum(r.t_solver for r in recs) / (len(recs) * self.n_cases)

    def predictor_time_per_step_per_case(self, window: tuple[int, int] | None = None) -> float:
        recs = self._window(window)
        return sum(r.t_predictor for r in recs) / (len(recs) * self.n_cases)

    def halo_time_per_step_per_case(self, window: tuple[int, int] | None = None) -> float:
        """Modeled inter-part halo/allreduce seconds (0 unless the run
        used the distributed solve path)."""
        recs = self._window(window)
        return sum(r.t_halo for r in recs) / (len(recs) * self.n_cases)

    def iterations_per_step(self, window: tuple[int, int] | None = None) -> float:
        recs = self._window(window)
        return float(np.mean([r.mean_iterations for r in recs]))

    def achieved_relres(self, window: tuple[int, int] | None = None) -> float:
        """Worst solver relative residual over the window — the
        transprecision safety number (must stay below eps at any
        storage precision)."""
        recs = self._window(window)
        # np.max, not the builtin: a NaN step must read NaN here too
        return float(np.max([r.relres for r in recs], initial=0.0))

    def energy_per_step_per_case(self, window: tuple[int, int] | None = None) -> float:
        """Module energy per time step per case (paper's last column),
        from the time-averaged module power over the whole run."""
        p = self.power.get("module_power", 0.0)
        return p * self.elapsed_per_step_per_case(window)

    def predictor_s_used(self, window: tuple[int, int] | None = None) -> float | None:
        """Mean consumed history length over the window (the larger of
        the two process sets' ``s``) — how much history the
        history-bearing predictors actually earned, which scenario
        difficulty tables read against iteration counts (a source that
        keeps re-bootstrapping holds ``s`` down).  ``None`` when no
        record carries a history length (plain-extrapolation
        predictors), so campaign aggregation skips the run instead of
        averaging in zeros."""
        recs = self._window(window)
        vals = [
            max(v for v in (r.s_used, r.s_used_b) if v is not None)
            for r in recs
            if r.s_used is not None or r.s_used_b is not None
        ]
        if not vals:
            return None
        return float(np.mean(vals))

    def s_trace(self) -> np.ndarray:
        return np.asarray([0 if r.s_used is None else r.s_used for r in self.records])

    def summary(self, window: tuple[int, int] | None = None) -> dict[str, float]:
        return {
            "method": self.method,
            "module": self.module_name,
            "n_cases": self.n_cases,
            "n_dofs": self.n_dofs,
            "cpu_memory_GB": self.cpu_memory_bytes / 1e9,
            "gpu_memory_GB": self.gpu_memory_bytes / 1e9,
            "elapsed_per_step_per_case_s": self.elapsed_per_step_per_case(window),
            "solver_per_step_per_case_s": self.solver_time_per_step_per_case(window),
            "predictor_per_step_per_case_s": self.predictor_time_per_step_per_case(window),
            "iterations_per_step": self.iterations_per_step(window),
            "predictor_s_used": self.predictor_s_used(window),
            "achieved_relres": self.achieved_relres(window),
            "module_power_W": self.power.get("module_power", 0.0),
            "gpu_power_W": self.power.get("gpu_power", 0.0),
            "energy_per_step_per_case_J": self.energy_per_step_per_case(window),
        }
