"""The four workloads.

Closed loop, one client: each unit of work (a time step, a campaign
pass) starts when the previous one ends.  Sizes and case counts are
fixed; ``--seed`` drives source placement/phase and the campaign seed;
``--seconds`` scales the step counts linearly from their nominal values
(:data:`NOMINAL_SECONDS` is what the nominal counts take on the 2-core
reference box), so for a given ``--seconds`` the work is deterministic.

Why these four:

``hetero-3k``
    the paper's headline method with full history (s up to 32): the
    data-driven predictor does most of the work, the EBE sweep is second.
``hetero-15k-alps``
    4x the dofs with the Alps memory cap on history (s <= 11): the EBE
    sweep dominates, the predictor is third — the same two layers used
    differently, so a change that wins at s=32 / cache-resident but
    loses at s<=11 / 15k dofs shows.
``endurance-225``
    interpreter overhead, bookkeeping and record/checkpoint I/O; uses
    neither MGS nor EBE, so it is the control on which predictor/EBE
    changes must show no change.
``campaign-grid``
    "many problems": a 24-cell grid computed cold (writes), then the
    same spec re-run warm (all cache hits, reads) — cells/s, the
    four-method modeled comparison on identical inputs and pure
    campaign overhead.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
import time
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.waves import BandlimitedImpulse
from repro.campaign import CampaignRunner, CampaignSpec, ResultStore, default_waves
from repro.core import methods
from repro.core.methods import METHODS
from repro.hardware.specs import ALPS_MODULE, SINGLE_GH200, ModuleSpec
from repro.io import results as results_io
from repro.io.spill import RecordLog
from repro.workloads.ground import build_ground_problem, stratified_model
from repro.workloads.scenario import scenario_by_name

__all__ = ["NOMINAL_SECONDS", "WORKLOADS", "COUNT_NAMES", "SETUP_PHASES", "Outcome",
           "resume_problems"]

#: ``--seconds`` at which the nominal step counts apply (BENCHMARK.json
#: ``run_seconds``).
NOMINAL_SECONDS = 22

EPS = 1e-8
HEADLINE = "ebe-mcg@cpu-gpu"

#: Set-up phases a workload may time (milliseconds each; 0 when a
#: workload has no such phase).
SETUP_PHASES = (
    "problem_build_ms", "operator_build_ms", "precond_build_ms", "sources_ms",
    "spec_store_ms",
)

#: Every count a workload may report in :attr:`Outcome.counts`; a
#: workload that does not produce one reports it as 0.
COUNT_NAMES = (
    "predictor.s_used_mean",
    "io.spill_bytes", "io.checkpoint_bytes_per_step", "io.peak_flush_bytes",
    "campaign.cold_cells_per_s", "campaign.cold_wall_s",
    "campaign.modeled_speedup_vs_cpu", "campaign.modeled_speedup_vs_gpu",
    "campaign.modeled_energy_gain_vs_cpu", "campaign.modeled_energy_gain_vs_gpu",
    "campaign.cache_hits", "campaign.cells_computed", "campaign.cells_failed",
    "campaign.store_bytes",
)


def _scaled(nominal: int, seconds: float, floor: int) -> int:
    return max(floor, round(nominal * seconds / NOMINAL_SECONDS))


def _digest(doc) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


class StampedList(list):
    """Harness-owned ``record_log``: a plain list whose ``append``
    stamps the wall clock, giving per-step times from outside."""

    def __init__(self) -> None:
        super().__init__()
        self.stamps: list[int] = []

    def append(self, rec) -> None:
        self.stamps.append(time.perf_counter_ns())
        super().append(rec)


class StampedRecordLog(RecordLog):
    """The ring/spill log with the same stamping ``append``."""

    def __init__(self, path, keep: int) -> None:
        super().__init__(path, keep=keep)
        self.stamps: list[int] = []

    def append(self, rec) -> None:
        self.stamps.append(time.perf_counter_ns())
        super().append(rec)


@dataclass
class Outcome:
    """What one measured run produced, before it becomes metrics."""

    wall_s: float  # the whole measured body
    case_steps_per_s: float  # over the part of it that solves time steps
    unit_ms: np.ndarray  # wall per repeated unit: time step / warm pass
    modeled_s: float
    modeled_j: float
    attempted: int
    failed: int
    digest: str  # of the full numeric output; traced must equal untraced
    fingerprint: list[float]  # final ||u|| per case and the modeled numbers;
    # compared with reference.json at seed 0
    iters_per_case_step: float
    problems: list[str] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    # (reloaded journal, step records) when the run checkpointed
    resume: tuple[dict, list[dict]] | None = None


class RunWorkload:
    """One ``run_method`` call on one problem.

    ``blocks`` > 1 declares the time steps all alike, so that the unit
    percentiles may be taken per block of the run (see
    ``harness.unit_percentiles``); the hetero runs ramp their history
    up and are one block."""

    unit_layer = "io.record_append"

    def __init__(
        self,
        name: str,
        why: str,
        *,
        method: str,
        resolution: tuple[int, int, int],
        cases: int,
        module: ModuleSpec,
        s_range: tuple[int, int],
        steps: int,
        scenario: str | None = None,
        checkpoint_every: int = 0,
        keep: int = 0,
        blocks: int = 1,
        required: tuple[str, ...],
        absent: tuple[str, ...] = (),
    ) -> None:
        self.name, self.why = name, why
        self.method, self.resolution, self.cases = method, resolution, cases
        self.module, self.s_range, self.steps = module, s_range, steps
        self.scenario = scenario
        self.checkpoint_every, self.keep = checkpoint_every, keep
        self.blocks = blocks
        self.required, self.absent = required, absent

    def sizes(self, seconds: float) -> dict[str, int]:
        # at least one checkpoint flush, so the journal exists
        return {"steps": _scaled(self.steps, seconds, 4 + self.checkpoint_every)}

    # -- set-up: problem + operators + preconditioner + sources --------
    def setup(self, seed: int, sizes: dict, workdir: pathlib.Path):
        clock = time.perf_counter
        t0 = clock()
        if self.scenario is None:
            scen = None
            problem = build_ground_problem(stratified_model(), resolution=self.resolution)
        else:
            scen = scenario_by_name(self.scenario)()
            problem = scen.build_problem("stratified", self.resolution)
        t1 = clock()
        kind = "ebe" if self.method.startswith("ebe") else "crs"
        (problem.ebe_operator if kind == "ebe" else problem.crs_operator)()
        problem.mass_operator(kind)
        problem.damping_operator(kind)
        t2 = clock()
        problem.preconditioner()
        t3 = clock()
        if scen is None:
            # the bench_forces recipe of benchmarks/conftest.py: the
            # measurement window sits in free vibration
            f0 = 0.3 / (np.pi * problem.dt)
            forces = [
                BandlimitedImpulse.random(
                    problem.mesh, problem.dt, rng=1000 * seed + i,
                    amplitude=1e6, f0=f0, cycles_to_onset=1.0,
                )
                for i in range(self.cases)
            ]
        else:
            forces = scen.forces(problem, {}, seed=seed, n_cases=self.cases)
        t4 = clock()
        phases = {
            "problem_build_ms": (t1 - t0) * 1e3,
            "operator_build_ms": (t2 - t1) * 1e3,
            "precond_build_ms": (t3 - t2) * 1e3,
            "sources_ms": (t4 - t3) * 1e3,
        }
        return (problem, forces, sizes["steps"], workdir), phases

    # -- the measured run ---------------------------------------------
    def run_method(self, problem, forces, steps, **kwargs):
        # looked up at call time: the traced run patches the attribute
        return methods.run_method(
            problem, forces, steps, self.method, self.module,
            eps=EPS, s_range=self.s_range, **kwargs,
        )

    def run(self, ctx) -> Outcome:
        problem, forces, steps, workdir = ctx
        journal = None
        flushed_sizes: list[int] = []
        kwargs = {}
        if self.checkpoint_every:
            log = StampedRecordLog(workdir / "records.jsonl", keep=self.keep)
            journal = workdir / "journal.jsonl"

            def on_checkpoint(doc: dict) -> None:
                results_io.append_campaign_checkpoint(
                    {"key": self.name, "kind": "method", "params": {},
                     "step": doc["step"], "state": doc},
                    journal,
                )
                flushed_sizes.append(journal.stat().st_size)

            kwargs = {"checkpoint_every": self.checkpoint_every,
                      "on_checkpoint": on_checkpoint}
        else:
            log = StampedList()

        reloaded = None
        t0 = time.perf_counter_ns()
        result = self.run_method(problem, forces, steps, record_log=log, **kwargs)
        if journal is not None:
            reloaded = results_io.load_campaign_checkpoint(journal)
        t1 = time.perf_counter_ns()

        counts: dict[str, float] = {}
        if journal is not None:
            log.close()
            counts["io.spill_bytes"] = (
                log.path.stat().st_size if log.path.exists() else 0
            )
            counts["io.checkpoint_bytes_per_step"] = flushed_sizes[-1] / steps
            counts["io.peak_flush_bytes"] = float(np.diff([0, *flushed_sizes]).max())
        records = [r.to_dict() for r in log]
        problems = []
        if len(records) != steps:
            problems.append(f"{len(records)} records for {steps} steps")
        failed = sum(
            not (math.isfinite(r["relres"]) and r["relres"] < EPS) for r in records
        )
        if failed:
            problems.append(f"{failed} steps did not reach eps={EPS}")

        s_used = [
            max(v for v in (r["s_used"], r["s_used_b"]) if v is not None)
            for r in records
            if r["s_used"] is not None or r["s_used_b"] is not None
        ]
        counts["predictor.s_used_mean"] = float(np.mean(s_used)) if s_used else 0.0
        window = (max(1, steps * 5 // 8), steps + 1)
        modeled_s = result.elapsed_per_step_per_case(window)
        modeled_j = result.energy_per_step_per_case(window)
        return Outcome(
            wall_s=(t1 - t0) / 1e9,
            case_steps_per_s=self.cases * steps / ((t1 - t0) / 1e9),
            unit_ms=np.diff([t0, *log.stamps]) / 1e6,
            modeled_s=modeled_s,
            modeled_j=modeled_j,
            attempted=steps,
            failed=failed,
            digest=_digest(records),
            fingerprint=[
                *(float(np.linalg.norm(s.u)) for s in result.final_states),
                modeled_s, modeled_j,
            ],
            iters_per_case_step=float(
                np.mean([i for r in records for i in r["iterations"]])
            ),
            problems=problems,
            counts=counts,
            resume=None if reloaded is None else (reloaded, records),
        )


class CampaignWorkload:
    """A grid campaign computed cold, then re-run warm."""

    name = "campaign-grid"
    why = (
        "24 cells (3 models x 2 waves x 4 methods) cold, then warm passes "
        "of the same spec: cells/s, the modeled four-method comparison "
        "and pure campaign overhead"
    )
    unit_layer = "campaign.execute_cell"
    required = (
        "campaign.runner", "campaign.spec_cells", "campaign.store_probe",
        "campaign.store_save", "campaign.manifest_write",
        "campaign.execute_cell", "campaign.report_render", "core.driver",
        "sparse.pcg", "sparse.bcrs_matvec", "sparse.ebe_matvec",
    )
    absent = ()
    cases = 2
    blocks = 20

    def sizes(self, seconds: float) -> dict[str, int]:
        return {
            "steps": _scaled(32, seconds, 4),
            "warm_passes": _scaled(2000, seconds, 20),
        }

    def setup(self, seed: int, sizes: dict, workdir: pathlib.Path):
        t0 = time.perf_counter()
        spec = CampaignSpec(
            name="perf-grid",
            models=("stratified", "basin", "slanted"),
            waves=default_waves(2),
            methods=METHODS,
            resolutions=((3, 3, 2),),
            cases=self.cases,
            steps=sizes["steps"],
            seed=seed,
            eps=EPS,
        )
        n_cells = len(spec.cells())
        store = ResultStore(workdir / "store")
        phases = {"spec_store_ms": (time.perf_counter() - t0) * 1e3}
        return (spec, n_cells, store, sizes["warm_passes"]), phases

    def run(self, ctx) -> Outcome:
        spec, n_cells, store, warm_passes = ctx
        runner = CampaignRunner(store, jobs=1, checkpoint_every=8)
        clock = time.perf_counter_ns
        t0 = clock()
        cold = runner.run(spec)
        stamps = [clock()]
        warm_bad = 0
        for _ in range(warm_passes):
            warm = runner.run(spec)
            warm.render()
            warm_bad += warm.n_cells - warm.n_cached
            stamps.append(clock())
        t1 = stamps[-1]

        cold_s = (stamps[0] - t0) / 1e9
        by_method = cold.by_method()
        problems = [f"{label}: {err}" for label, err in cold.failures()]
        if cold.n_computed != n_cells:
            problems.append(f"cold pass computed {cold.n_computed} of {n_cells} cells")
        if warm_bad:
            problems.append(f"{warm_bad} warm cell probes were not cache hits")
        if _digest(warm.by_method()) != _digest(by_method):  # NaN-safe
            problems.append("warm report differs from the cold report")
        rows = cold.rows()
        unconverged = sum(not r["achieved_relres"] < spec.eps for r in rows)
        if unconverged:
            problems.append(f"{unconverged} cells did not reach eps={spec.eps}")

        def column(key: str) -> dict[str, float]:
            return {m: by_method[m][key] for m in METHODS if m in by_method}

        t, e = column("elapsed_per_step_per_case_s"), column("energy_per_step_per_case_J")
        head_t, head_e = t.get(HEADLINE, math.nan), e.get(HEADLINE, math.nan)
        counts = {
            "campaign.cold_cells_per_s": n_cells / cold_s,
            "campaign.cold_wall_s": cold_s,
            "campaign.modeled_speedup_vs_cpu": t.get("crs-cg@cpu", math.nan) / head_t,
            "campaign.modeled_speedup_vs_gpu": t.get("crs-cg@gpu", math.nan) / head_t,
            "campaign.modeled_energy_gain_vs_cpu": e.get("crs-cg@cpu", math.nan) / head_e,
            "campaign.modeled_energy_gain_vs_gpu": e.get("crs-cg@gpu", math.nan) / head_e,
            "campaign.cache_hits": float(warm_passes * n_cells - warm_bad),
            "campaign.cells_computed": float(cold.n_computed),
            "campaign.cells_failed": float(cold.n_failed),
            "campaign.store_bytes": float(
                sum(p.stat().st_size for p in store.root.rglob("*") if p.is_file())
            ),
            "predictor.s_used_mean": float(
                np.mean([r["predictor_s_used"] for r in rows
                         if r["predictor_s_used"] is not None] or [0.0])
            ),
        }
        return Outcome(
            wall_s=(t1 - t0) / 1e9,
            case_steps_per_s=n_cells * self.cases * spec.steps / cold_s,
            unit_ms=np.diff(stamps) / 1e6,
            modeled_s=head_t,
            modeled_j=head_e,
            attempted=n_cells * (1 + warm_passes),
            failed=cold.n_failed + unconverged + warm_bad,
            digest=_digest([o.result for o in cold.outcomes]),
            fingerprint=[*t.values(), *e.values()],
            iters_per_case_step=float(np.mean([r["iterations_per_step"] for r in rows])),
            problems=problems,
            counts=counts,
        )

def resume_problems(workload, ctx, outcome: Outcome) -> list[str]:
    """The reloaded journal must stand at the last flushed step and
    resume from there into bit-identical records.  Runs after the
    measurement (and after the tracer is gone)."""
    if outcome.resume is None:
        return []
    reloaded, records = outcome.resume
    problem, forces, steps, _ = ctx
    every = workload.checkpoint_every
    last_flush = (steps - 1) // every * every
    if reloaded["step"] != last_flush:
        return [f"journal stands at step {reloaded['step']}, "
                f"last flush was {last_flush}"]
    resumed = workload.run_method(
        problem, forces, steps, start_state=reloaded["state"]
    )
    if [r.to_dict() for r in resumed.records] != records:
        return ["run resumed from the reloaded journal differs from "
                "the uninterrupted run"]
    return []


_RUN_REQUIRED = (
    "core.driver", "core.caseset_predict", "core.rhs_build", "sparse.pcg",
    "sparse.precond_apply", "fem.newmark_advance", "workloads.source_eval",
    "hardware.time_for_tally", "util.timeline", "io.record_append",
    "predictor.ab_predict",
)
_HETERO_REQUIRED = _RUN_REQUIRED + (
    "sparse.ebe_matvec", "predictor.mgs_estimate", "predictor.dd_predict",
    "predictor.dd_observe",
)

WORKLOADS = {
    w.name: w
    for w in (
        RunWorkload(
            "hetero-3k",
            "headline ebe-mcg@cpu-gpu at 3549 dofs, 8 cases, s up to 32: the "
            "data-driven predictor dominates, the EBE sweep is second",
            method=HEADLINE, resolution=(6, 6, 3), cases=8,
            module=SINGLE_GH200, s_range=(8, 32), steps=100,
            required=_HETERO_REQUIRED,
        ),
        RunWorkload(
            "hetero-15k-alps",
            "same method at 14553 dofs with the Alps history cap s<=11: the "
            "EBE sweep dominates, so a layout or MGS change that only wins "
            "small and cache-resident shows",
            method=HEADLINE, resolution=(10, 10, 5), cases=8,
            module=ALPS_MODULE, s_range=(4, 11), steps=40,
            required=_HETERO_REQUIRED,
        ),
        RunWorkload(
            "endurance-225",
            "crs-cg@cpu at 225 dofs for thousands of steps through a spill "
            "log and a checkpoint journal: interpreter overhead and I/O, no "
            "MGS, no EBE - the control for predictor/EBE changes",
            method="crs-cg@cpu", resolution=(2, 2, 1), cases=1,
            module=SINGLE_GH200, s_range=(2, 4), steps=8000,
            scenario="aftershocks", checkpoint_every=64, keep=512, blocks=8,
            required=_RUN_REQUIRED + (
                "sparse.bcrs_matvec", "predictor.ab_observe",
                "io.state_snapshot", "io.checkpoint_flush", "io.checkpoint_load",
            ),
            absent=("predictor.mgs_estimate", "sparse.ebe_matvec",
                    "predictor.dd_predict"),
        ),
        CampaignWorkload(),
    )
}
