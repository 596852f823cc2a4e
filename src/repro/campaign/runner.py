"""Campaign execution engine.

The runner turns a list of :class:`~repro.campaign.spec.CampaignCell`
work items into results:

1. probe the :class:`~repro.campaign.store.ResultStore` with one
   ``load`` per cell — cells whose content hash already has a readable
   artifact are *cache hits* and are never recomputed;
2. dedupe the misses by content key — two cells with the same key are
   the same computation, so the work runs once and the result fans
   back out to every index;
3. execute the unique misses, inline for ``jobs=1`` or through a
   ``concurrent.futures`` process pool (each cell rebuilds its problem
   from the spec parameters, so nothing heavyweight crosses the pickle
   boundary).  Each miss computes under the store's per-key advisory
   lock: concurrent campaigns sharing a store never double-compute,
   and whoever loses the race finds the winner's artifact when it
   re-probes under the lock;
4. persist each fresh result the moment it completes (an interrupted
   campaign keeps every finished cell), flush a resume checkpoint
   every ``checkpoint_every`` steps so a killed worker loses at most
   ``checkpoint_every`` steps of one cell, and aggregate the outcomes
   into a :class:`~repro.campaign.aggregate.CampaignReport`.

Executors are registered per cell *kind* with
:func:`register_executor`; the built-in ``"method"`` kind runs one
ensemble through :func:`repro.core.methods.run_method`, and every
study that rides the caching/parallelism machinery is a sweep over such
cells (:mod:`repro.studies.sweeps`).  An executor may accept an
optional ``ctx`` keyword to participate in
checkpoint/resume (see :func:`run_method_cell`); executors without it
keep working unchanged.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import inspect
import multiprocessing
import traceback
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.campaign.aggregate import CampaignReport
from repro.campaign.axes import AXES, AXIS, axis_values
from repro.campaign.spec import METHOD_CELL_KEYS, CampaignCell, CampaignSpec
from repro.campaign.store import ResultStore, resume_checkpoint

__all__ = [
    "CELL_EXECUTORS",
    "register_executor",
    "CellOutcome",
    "CampaignRunner",
    "run_method_cell",
]

#: kind -> executor(params[, ctx]) -> JSON-able result dict.
CELL_EXECUTORS: dict[str, Callable[..., dict]] = {}


def register_executor(kind: str):
    """Decorator registering an executor for one cell kind."""

    def deco(fn: Callable[..., dict]):
        CELL_EXECUTORS[kind] = fn
        return fn

    return deco


def _format_error(exc: BaseException) -> str:
    """The one per-cell error format, shared by the inline and pool
    paths — the same failure must read identically no matter which
    executor ran it."""
    return "".join(
        traceback.format_exception_only(type(exc), exc)
    ).strip()


def _accepts_ctx(fn: Callable) -> bool:
    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError):  # builtins/partials without signature
        return False
    params = sig.parameters.values()
    return any(
        p.name == "ctx" or p.kind is inspect.Parameter.VAR_KEYWORD
        for p in params
    )


def _execute_cell(kind: str, params: dict, ctx: dict | None = None) -> dict:
    """Module-level worker entry point (must stay picklable)."""
    try:
        fn = CELL_EXECUTORS[kind]
    except KeyError:
        raise ValueError(
            f"no executor registered for cell kind {kind!r}; "
            f"known kinds: {sorted(CELL_EXECUTORS)}"
        ) from None
    if ctx is not None and _accepts_ctx(fn):
        return fn(params, ctx=ctx)
    return fn(params)


def _compute_miss(
    cell: CampaignCell,
    store_root: str | None,
    checkpoint_every: int,
    resume: bool,
) -> dict:
    """Compute one cache miss — the one code path for inline and pooled
    execution (module-level and argument-picklable, so it crosses the
    process-pool boundary under any start method).

    With a store, the whole transaction happens under the cell's
    advisory lock: re-probe (another campaign may have finished the
    cell while we waited), execute — resuming from / flushing to the
    cell's checkpoint — persist the artifact atomically, drop the
    checkpoint.  Returns ``{"result": ..., "cached": bool}``.
    """
    if store_root is None:
        return {"result": _execute_cell(cell.kind, cell.params), "cached": False}
    store = ResultStore(store_root)
    with store.lock(cell.key):
        try:
            return {"result": store.load(cell.key)["result"], "cached": True}
        except (FileNotFoundError, ValueError, KeyError, OSError):
            pass  # still a miss (or corrupt) -> compute it
        ctx = {
            "key": cell.key,
            "checkpoint_path": str(store.checkpoint_path(cell.key)),
            "checkpoint_every": int(checkpoint_every),
            "resume": bool(resume),
        }
        result = _execute_cell(cell.kind, cell.params, ctx)
        store.save(cell, result)
        store.clear_checkpoint(cell.key)
        return {"result": result, "cached": False}


@register_executor("method")
def run_method_cell(params: dict, ctx: dict | None = None) -> dict:
    """Run one campaign grid cell: an ensemble of ``cases`` inputs on
    one scenario / ground model / method / resolution.

    Every :data:`~repro.campaign.axes.AXES` key is optional in
    ``params``; an absent one means the axis default, which reproduces
    the executor from before that axis existed bit-for-bit.  The
    scenario builds the problem and the per-case forces — from RNG
    streams spawned off the cell's content-derived seed, so results are
    independent of worker placement and grid composition, and a sweep
    along any axis compares identical random draws; the other axes are
    ``run_method`` keywords.  Any other key — a retired axis, a typo —
    raises ``ValueError``: the result is cached under the cell's
    content hash, so a key the executor would silently ignore would
    cache a run under a key naming something it did not compute.

    ``ctx`` (supplied by the runner when a store is attached) enables
    crash-safe execution: every ``ctx["checkpoint_every"]`` steps the
    live solver state and the records since the previous flush are
    appended as one line to the journal at ``ctx["checkpoint_path"]``,
    and with ``ctx["resume"]`` a pending journal (read by
    :func:`~repro.campaign.store.resume_checkpoint`) restarts the run
    from its merged saved step instead of step 0.
    Checkpointed, resumed and uninterrupted executions of the same
    cell are bit-identical.
    """
    import os

    from repro.core.methods import run_method
    from repro.hardware.specs import module_by_name
    from repro.io.results import (
        append_campaign_checkpoint,
        compact_campaign_checkpoint,
    )
    from repro.workloads.scenario import scenario_by_name

    unknown = params.keys() - METHOD_CELL_KEYS - AXIS.keys()
    if unknown:
        raise ValueError(
            f"unknown method-cell params {sorted(unknown)}; known: "
            f"{sorted(METHOD_CELL_KEYS | AXIS.keys())}"
        )
    axes = axis_values(params)
    scenario = scenario_by_name(axes["scenario"])()
    problem = scenario.build_problem(
        params["model"], tuple(params["resolution"])
    )
    forces = scenario.forces(
        problem, params["wave"], params["seed"], params["cases"]
    )
    steps = params["steps"]

    start_state = None
    checkpoint_every = 0
    on_checkpoint = None
    if ctx is not None and ctx.get("checkpoint_path"):
        path = ctx["checkpoint_path"]
        checkpoint_every = int(ctx.get("checkpoint_every", 0))
        if ctx.get("resume"):
            ck = resume_checkpoint(path, ctx["key"], params)
            if ck is not None:
                start_state = ck["state"]
                if checkpoint_every > 0:
                    compact_campaign_checkpoint(ck, path)
        if start_state is None:
            # Fresh start (no resume requested, or nothing readable to
            # resume from): drop any stale journal so the appended tails
            # below can never concatenate onto an abandoned run's lines.
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)
        if checkpoint_every > 0:
            def on_checkpoint(state_doc: dict) -> None:
                append_campaign_checkpoint(
                    {
                        "key": ctx["key"],
                        "kind": "method",
                        "params": params,
                        "step": state_doc["step"],
                        "state": state_doc,
                    },
                    path,
                )

    result = run_method(
        problem,
        forces,
        nt=steps,
        method=params["method"],
        module=module_by_name(params["module"]),
        eps=params["eps"],
        s_range=(params["s_min"], params["s_max"]),
        **{ax.key: axes[ax.key] for ax in AXES if ax.solver},
        start_state=start_state,
        checkpoint_every=checkpoint_every,
        on_checkpoint=on_checkpoint,
    )
    window = (max(1, steps * 5 // 8), steps + 1)
    return {
        "summary": result.summary(window),
        "window": list(window),
        "n_dofs": problem.n_dofs,
        "iterations_per_step": result.iterations_per_step(window),
        # same window and per-case normalization as the other columns
        "halo_time_per_step_per_case": result.halo_time_per_step_per_case(
            window
        ),
        # whole-run per-lane busy seconds — the totals the golden
        # regression fixtures pin (any cross-scenario timing drift
        # shows up here even when the windowed means stay put)
        "timeline_busy": {
            lane: result.timeline.busy_time(lane)
            for lane in ("cpu", "gpu", "c2c", "nic")
        },
    }


@dataclass
class CellOutcome:
    """One cell's fate in a campaign run."""

    cell: CampaignCell
    result: dict | None
    cached: bool = False
    error: str | None = None

    @property
    def key(self) -> str:
        return self.cell.key

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def status(self) -> str:
        if not self.ok:
            return "failed"
        return "cached" if self.cached else "done"


class CampaignRunner:
    """Executes campaign cells with caching and optional parallelism.

    Parameters
    ----------
    store : result store for cache probes, persistence, per-key locks
        and checkpoints; ``None`` disables caching (every cell
        recomputes, and checkpoint/resume is unavailable).
    jobs : worker processes; ``1`` executes inline (deterministic
        ordering, easiest to debug), ``>1`` fans the unique misses out
        over a process pool.
    checkpoint_every : flush each in-flight cell's solver state to
        ``checkpoints/<key>.json`` every this many time steps (0 =
        never).  A killed worker then loses at most this many steps of
        one cell instead of the whole cell.
    mp_start_method : multiprocessing start method for the pool
        (``"fork"``/``"spawn"``/``"forkserver"``; ``None`` = platform
        default).  The spawn path is exercised in CI — results are
        start-method independent.
    """

    def __init__(
        self,
        store: ResultStore | None = None,
        jobs: int = 1,
        checkpoint_every: int = 0,
        mp_start_method: str | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        self.store = store
        self.jobs = jobs
        self.checkpoint_every = checkpoint_every
        self.mp_start_method = mp_start_method

    def run(self, spec: CampaignSpec, resume: bool = False) -> CampaignReport:
        """Run a grid campaign and maintain the store manifest.

        The store is probed first.  When at least one cell misses, the
        manifest is written atomically before any cell computes
        (``in_progress: true``, every cell ``"pending"``), so after a
        crash the store says exactly which campaign died and what it
        still owed.  At the end it is written with each cell's final
        status — a no-op when that document is already on disk from
        this store (a warm pass over an unchanged store writes
        nothing).  With ``resume=True``, interrupted cells restart from
        their ``checkpoints/<key>.json`` state instead of step 0
        (finished cells are ordinary cache hits either way).
        """
        cells = spec.cells()
        hits = self._probe(cells)
        if self.store is not None and len(hits) < len(cells):
            self.store.write_manifest(
                {
                    "spec": spec.to_dict(),
                    "in_progress": True,
                    "cells": [
                        {"key": c.key, "label": c.label, "status": "pending"}
                        for c in cells
                    ],
                }
            )
        outcomes = self._complete(cells, hits, resume)
        if self.store is not None:
            self.store.write_manifest(
                {
                    "spec": spec.to_dict(),
                    "in_progress": False,
                    "cells": [
                        {"key": o.key, "label": o.cell.label,
                         "cached": o.cached, "ok": o.ok,
                         "status": o.status}
                        for o in outcomes
                    ],
                }
            )
        return CampaignReport(spec=spec, outcomes=outcomes)

    def run_cells(
        self, cells: Sequence[CampaignCell], resume: bool = False
    ) -> list[CellOutcome]:
        """Core engine: probe cache, execute unique misses, persist
        results, fan duplicate-key results back out.

        Returns outcomes in the input cell order regardless of worker
        completion order.
        """
        return self._complete(cells, self._probe(cells), resume)

    def _probe(self, cells: Sequence[CampaignCell]) -> dict[int, dict]:
        """``{index: cached result}`` of the cells the store already
        holds — one :meth:`ResultStore.load` per cell; an absent or
        corrupt artifact is a miss."""
        hits: dict[int, dict] = {}
        if self.store is None:
            return hits
        for i, cell in enumerate(cells):
            try:
                result = self.store.load(cell.key)["result"]
            except (ValueError, KeyError, OSError):
                continue  # absent or corrupt artifact -> compute
            if result is not None:
                hits[i] = result
        return hits

    def _complete(
        self,
        cells: Sequence[CampaignCell],
        hits: dict[int, dict],
        resume: bool,
    ) -> list[CellOutcome]:
        """Execute the cells :meth:`_probe` missed and assemble every
        outcome."""
        outcomes = {
            i: CellOutcome(cell=cells[i], result=result, cached=True)
            for i, result in hits.items()
        }
        misses: dict[str, list[int]] = {}  # key -> duplicate-key indices
        for i, cell in enumerate(cells):
            if i not in hits:
                misses.setdefault(cell.key, []).append(i)

        store_root = None if self.store is None else str(self.store.root)
        reps = {key: cells[idxs[0]] for key, idxs in misses.items()}
        payloads: dict[str, dict] = {}  # key -> payload or error marker

        if reps and self.jobs == 1:
            for key, cell in reps.items():
                try:
                    payloads[key] = _compute_miss(
                        cell, store_root, self.checkpoint_every, resume
                    )
                except Exception as exc:  # noqa: BLE001 - per-cell isolation
                    payloads[key] = {"error": _format_error(exc)}
        elif reps:
            ctx = (
                multiprocessing.get_context(self.mp_start_method)
                if self.mp_start_method
                else None
            )
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(self.jobs, len(reps)),
                mp_context=ctx,
            ) as pool:
                futs = {
                    pool.submit(
                        _compute_miss, cell, store_root,
                        self.checkpoint_every, resume,
                    ): key
                    for key, cell in reps.items()
                }
                for fut in concurrent.futures.as_completed(futs):
                    key = futs[fut]
                    try:
                        payloads[key] = fut.result()
                    except Exception as exc:  # noqa: BLE001 - per-cell isolation
                        payloads[key] = {"error": _format_error(exc)}

        for key, idxs in misses.items():
            payload = payloads[key]
            for i in idxs:
                outcomes[i] = CellOutcome(
                    cell=cells[i],
                    result=payload.get("result"),
                    cached=payload.get("cached", False),
                    error=payload.get("error"),
                )
        return [outcomes[i] for i in range(len(cells))]
