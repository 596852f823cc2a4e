"""Architectural sensitivity analysis (paper §4 future work).

The heterogeneous pipeline's step time depends on five architectural
quantities: GPU throughput and memory bandwidth (solver), CPU
throughput and memory bandwidth (predictor — and, through the adaptive
``s``, solution quality), C2C bandwidth (synchronization), and the
module power cap (GPU throttling under concurrent load).

The study separates *workload characterization* (run the real
algorithms once, collect per-phase flop/byte tallies) from *hardware
evaluation* (replay those tallies against modified device models), so
a full sweep over dozens of hypothetical machines costs milliseconds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.core.pipeline import CaseSet
from repro.hardware.power import PowerModel
from repro.hardware.roofline import DeviceModel
from repro.hardware.specs import ModuleSpec
from repro.hardware.transfer import TransferModel
from repro.util.counters import KernelTally

__all__ = [
    "StepProfile",
    "SensitivityPoint",
    "characterize_pipeline",
    "modeled_step_time",
    "scaled_module",
    "sweep_parameter",
    "SWEEPABLE_PARAMETERS",
]

#: Parameters :func:`scaled_module` understands.
SWEEPABLE_PARAMETERS = (
    "gpu.peak_flops",
    "gpu.mem_bandwidth",
    "cpu.peak_flops",
    "cpu.mem_bandwidth",
    "cpu.mem_capacity",
    "c2c.bandwidth",
    "power_cap",
)


@dataclass
class StepProfile:
    """Steady-state per-phase work of the heterogeneous pipeline.

    ``solver``/``predictor`` hold the tallied work of *one* phase (one
    process set's solve / prediction); a full step runs two of each.
    """

    solver: KernelTally
    predictor: KernelTally
    transfer_bytes: float
    iterations: float
    n_dofs: int
    r_cases: int


def characterize_pipeline(
    problem,
    forces,
    nt: int = 40,
    window_start: int = 30,
    s: int = 12,
    n_regions: int = 8,
    op_kind: str = "ebe",
) -> StepProfile:
    """Run a two-set pipeline numerically and average the steady-state
    per-phase work tallies.

    ``forces`` supplies ``2 r`` cases (two process sets).
    """
    from repro.predictor.datadriven import DataDrivenPredictor

    if len(forces) < 2 or len(forces) % 2:
        raise ValueError("need an even number of cases")
    r = len(forces) // 2

    def make_set(fs):
        return CaseSet(
            problem,
            forces=list(fs),
            predictors=[
                DataDrivenPredictor(problem.n_dofs, problem.dt, s_max=s,
                                    n_regions=n_regions, s=s)
                for _ in fs
            ],
            op_kind=op_kind,
        )

    set_a, set_b = make_set(forces[:r]), make_set(forces[r:])
    solver_t = KernelTally()
    pred_t = KernelTally()
    iters: list[float] = []
    n_phases = 0
    for it in range(1, nt + 1):
        for cs in (set_a, set_b):
            g, tp = cs.predict(it)
            res, ts = cs.solve(it, g)
            if it >= window_start:
                solver_t.merge(ts)
                pred_t.merge(tp)
                iters.append(float(np.mean(res.iterations)))
                n_phases += 1
    if n_phases == 0:
        raise ValueError("window_start beyond nt")
    # normalize to one phase
    for tally in (solver_t, pred_t):
        for rec in tally.records.values():
            rec.flops /= n_phases
            rec.bytes /= n_phases
    return StepProfile(
        solver=solver_t,
        predictor=pred_t,
        transfer_bytes=8.0 * problem.n_dofs * r,
        iterations=float(np.mean(iters)),
        n_dofs=problem.n_dofs,
        r_cases=r,
    )


def scaled_module(module: ModuleSpec, param: str, factor: float) -> ModuleSpec:
    """Copy of ``module`` with one architectural parameter scaled."""
    if factor <= 0:
        raise ValueError("factor must be positive")
    if param == "power_cap":
        return dataclasses.replace(module, power_cap=module.power_cap * factor)
    if param == "c2c.bandwidth":
        return dataclasses.replace(
            module, c2c_bandwidth=module.c2c_bandwidth * factor
        )
    if "." in param:
        dev_name, attr = param.split(".", 1)
        if dev_name not in ("cpu", "gpu"):
            raise ValueError(f"unknown device {dev_name!r}")
        dev = getattr(module, dev_name)
        if not hasattr(dev, attr):
            raise ValueError(f"unknown attribute {attr!r}")
        new_dev = dataclasses.replace(dev, **{attr: getattr(dev, attr) * factor})
        return dataclasses.replace(module, **{dev_name: new_dev})
    raise ValueError(f"unknown parameter {param!r}; see SWEEPABLE_PARAMETERS")


def modeled_step_time(
    profile: StepProfile,
    module: ModuleSpec,
    cpu_threads: int = 36,
) -> dict[str, float]:
    """Pipeline step time and energy for one module configuration.

    Replays the characterized per-phase work through the same device,
    power-cap, and transfer models the method drivers use: a step is
    two phases of max(predictor@CPU, solver@GPU) plus two full-duplex
    exchanges; GPU speed is throttled if CPU + GPU exceed the cap.
    """
    from repro.core.methods import cpu_share_factors

    flop_f, bw_f = cpu_share_factors(cpu_threads)
    cpu = DeviceModel(module.cpu, flop_factor=flop_f, bw_factor=bw_f)
    pm = PowerModel(module, cpu_load=cpu_threads / module.cpu.n_cores, gpu_load=1.0)
    gpu = DeviceModel(module.gpu).throttled(pm.gpu_throttle_factor(cpu_concurrent=True))
    c2c = TransferModel.c2c(module)

    t_solve = gpu.time_for_tally(profile.solver)
    t_pred = cpu.time_for_tally(profile.predictor)
    t_xfer = c2c.time(profile.transfer_bytes)
    t_phase = max(t_solve, t_pred)
    t_step = 2.0 * (t_phase + t_xfer)

    # energy: both devices near-busy over the step
    p_cpu = pm.cpu_busy_power() if t_pred > 0 else module.cpu.idle_power
    p_gpu = pm.gpu_power_under_cap(cpu_concurrent=t_pred > 0)
    busy_frac_cpu = min(1.0, 2.0 * t_pred / t_step) if t_step else 0.0
    busy_frac_gpu = min(1.0, 2.0 * t_solve / t_step) if t_step else 0.0
    power = (
        busy_frac_cpu * p_cpu
        + (1 - busy_frac_cpu) * module.cpu.idle_power
        + busy_frac_gpu * p_gpu
        + (1 - busy_frac_gpu) * module.gpu.idle_power
    )
    return {
        "t_step": t_step,
        "t_solver_phase": t_solve,
        "t_predictor_phase": t_pred,
        "t_transfer": t_xfer,
        "predictor_hidden": t_pred <= t_solve,
        "module_power": power,
        "energy_per_step": power * t_step,
    }


@dataclass(frozen=True)
class SensitivityPoint:
    """One sweep sample."""

    param: str
    factor: float
    t_step: float
    energy_per_step: float
    predictor_hidden: bool

    def speedup_vs(self, baseline: "SensitivityPoint") -> float:
        return baseline.t_step / self.t_step


def sweep_parameter(
    profile: StepProfile,
    module: ModuleSpec,
    param: str,
    factors: list[float],
    cpu_threads: int = 36,
) -> list[SensitivityPoint]:
    """Evaluate the pipeline on ``module`` with ``param`` scaled by each
    factor (factor 1.0 = the real machine)."""
    out = []
    for f in factors:
        m = scaled_module(module, param, f)
        r = modeled_step_time(profile, m, cpu_threads=cpu_threads)
        out.append(
            SensitivityPoint(
                param=param,
                factor=f,
                t_step=r["t_step"],
                energy_per_step=r["energy_per_step"],
                predictor_hidden=bool(r["predictor_hidden"]),
            )
        )
    return out
