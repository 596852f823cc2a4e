"""Span tracer the harness installs around the layers' public callables.

Nothing under ``src/`` knows about it: :meth:`Tracer.install` resolves
every row of :data:`WRAP_TABLE` by dotted name, swaps the callable for
a timing wrapper and :meth:`Tracer.uninstall` puts the original back.
A row that does not resolve is an error, never a silently missing
layer.

A span is ``(layer, parent layer, start, end)``.  Spans are aggregated
in memory by ``(layer, parent)`` as calls / total / self nanoseconds
(self = the span minus the part its child spans cover); the raw spans
of the first :data:`RAW_UNITS` units of work (time steps, or campaign
cells) are kept as well and written out by the caller when the run
ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time

__all__ = ["WRAP_TABLE", "Tracer", "resolve"]

#: (layer, dotted target).  Layer names are the repo's modules; several
#: targets may feed one layer.  Functions are patched where they are
#: *looked up*: ``pcg`` is bound by name into ``repro.core.pipeline``.
WRAP_TABLE: tuple[tuple[str, str], ...] = (
    ("workloads.source_eval", "repro.analysis.waves.BandlimitedImpulse.evaluate"),
    ("workloads.source_eval", "repro.workloads.library.AftershockSequence.evaluate"),
    ("fem.newmark_advance", "repro.fem.newmark.NewmarkBeta.advance"),
    ("sparse.ebe_matvec", "repro.sparse.ebe.EBEOperator.matvec"),
    ("sparse.bcrs_matvec", "repro.sparse.bcrs.BlockCRS.matvec"),
    ("sparse.precond_apply", "repro.sparse.precond.BlockJacobi.apply"),
    ("sparse.pcg", "repro.core.pipeline.pcg"),
    ("predictor.mgs_estimate", "repro.predictor.datadriven.mgs_estimate"),
    ("predictor.dd_predict", "repro.predictor.datadriven.DataDrivenPredictor.predict"),
    ("predictor.dd_observe", "repro.predictor.datadriven.DataDrivenPredictor.observe"),
    ("predictor.ab_predict", "repro.predictor.adams_bashforth.AdamsBashforth.predict"),
    ("predictor.ab_observe", "repro.predictor.adams_bashforth.AdamsBashforth.observe"),
    ("core.caseset_predict", "repro.core.pipeline.CaseSet.predict"),
    ("core.rhs_build", "repro.core.pipeline.CaseSet.solve"),
    ("core.driver", "repro.core.methods.run_method"),
    ("hardware.time_for_tally", "repro.hardware.roofline.DeviceModel.time_for_tally"),
    ("util.timeline", "repro.util.timeline.Timeline.schedule"),
    ("util.timeline", "repro.util.timeline.Timeline.barrier"),
    ("io.record_append", f"{__package__}.workloads.StampedList.append"),
    ("io.record_append", f"{__package__}.workloads.StampedRecordLog.append"),
    ("io.state_snapshot", "repro.core.pipeline.CaseSet.state_dict"),
    ("io.state_snapshot", "repro.util.timeline.Timeline.state_dict"),
    ("io.state_snapshot", "repro.core.pipeline.HeterogeneousPipeline.save_state"),
    ("io.checkpoint_flush", "repro.io.results.append_campaign_checkpoint"),
    ("io.checkpoint_load", "repro.io.results.load_campaign_checkpoint"),
    ("campaign.spec_cells", "repro.campaign.spec.CampaignSpec.cells"),
    ("campaign.store_probe", "repro.campaign.store.ResultStore.has"),
    ("campaign.store_probe", "repro.campaign.store.ResultStore.load"),
    ("campaign.store_save", "repro.campaign.store.ResultStore.save"),
    ("campaign.manifest_write", "repro.campaign.store.ResultStore.write_manifest"),
    ("campaign.execute_cell", "repro.campaign.runner._execute_cell"),
    ("campaign.report_render", "repro.campaign.aggregate.CampaignReport.render"),
    ("campaign.runner", "repro.campaign.runner.CampaignRunner.run"),
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _ in WRAP_TABLE))

#: Operator applications made directly by the RHS build (mass and
#: damping products) belong to ``core.rhs_build``, not to the solver's
#: operator layers — the issue's definition of that layer.
_REATTRIBUTE = {
    ("sparse.ebe_matvec", "core.rhs_build"): "core.rhs_build",
    ("sparse.bcrs_matvec", "core.rhs_build"): "core.rhs_build",
}

#: Raw spans are kept for this many units of work, at most RAW_CAP spans.
RAW_UNITS = 16
RAW_CAP = 60_000

_ROOT = "<harness>"


def resolve(target: str):
    """``(owner, attribute name)`` of a dotted target: the longest
    importable prefix is the module, the rest an attribute chain.
    Raises ``LookupError`` when any part is missing."""
    parts = target.split(".")
    for i in range(len(parts) - 1, 0, -1):
        modname = ".".join(parts[:i])
        try:
            owner = importlib.import_module(modname)
        except ModuleNotFoundError as exc:
            if exc.name is not None and not modname.startswith(exc.name):
                raise  # the module exists but one of its imports does not
            continue
        try:
            for name in parts[i:-1]:
                owner = getattr(owner, name)
            getattr(owner, parts[-1])
        except AttributeError as exc:
            raise LookupError(f"wrap target {target!r} does not resolve: {exc}") from None
        return owner, parts[-1]
    raise LookupError(f"wrap target {target!r} does not resolve: no importable module")


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self, unit_layer: str) -> None:
        self.unit_layer = unit_layer
        self.agg: dict[tuple[str, str], list[int]] = {}
        self.raw: list[tuple[str, str, int, int]] = []
        self.counts: dict[str, float] = {}
        from repro.util.counters import KernelTally

        self.tally = KernelTally()
        self._stack: list[list] = [[_ROOT, 0]]
        self._units = 0
        self._raw_open = True
        self._installed: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------
    def wrap(self, layer: str, fn, post):
        stack, agg, raw = self._stack, self.agg, self.raw
        clock = time.perf_counter_ns
        is_unit = layer == self.unit_layer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [layer, 0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[1] += dur
                key = (layer, parent[0])
                rec = agg.get(key)
                if rec is None:
                    rec = agg[key] = [0, 0, 0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                if self._raw_open:
                    raw.append((layer, parent[0], t0, t1))
                    if is_unit:
                        self._units += 1
                    if self._units >= RAW_UNITS or len(raw) >= RAW_CAP:
                        self._raw_open = False
            if post is not None:
                post(self, out, args)
            return out

        return wrapper

    def install(self, table=WRAP_TABLE) -> None:
        """Wrap every target of ``table``; all-or-nothing."""
        resolved = [(layer, *resolve(target), target) for layer, target in table]
        for layer, owner, name, target in resolved:
            original = (
                vars(owner)[name] if inspect.isclass(owner) else getattr(owner, name)
            )
            if not inspect.isfunction(original):
                raise LookupError(
                    f"wrap target {target!r} is {type(original).__name__}, "
                    "not a plain function"
                )
            setattr(owner, name, self.wrap(layer, original, _POST_HOOKS.get(layer)))
            self._installed.append((owner, name, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    # -- aggregation ----------------------------------------------------
    def layers(self) -> dict[str, dict[str, int]]:
        """Per layer: calls, self and total nanoseconds, after the
        :data:`_REATTRIBUTE` rule.  Self times of all layers add up to
        :meth:`covered_ns`."""
        out = {layer: {"calls": 0, "self_ns": 0, "total_ns": 0} for layer in LAYERS}
        for (layer, parent), (calls, total, self_ns) in self.agg.items():
            owner = _REATTRIBUTE.get((layer, parent))
            if owner is None:
                row = out[layer]
                row["calls"] += calls
                row["total_ns"] += total
                row["self_ns"] += self_ns
            else:
                out[owner]["self_ns"] += total
        return out

    def covered_ns(self) -> int:
        """Nanoseconds under top-level spans; the traced wall minus
        this is the harness's own time between wrapped calls."""
        return self._stack[0][1]

    def dump(self, t0_ns: int) -> dict:
        """JSON-able trace: the aggregate table and the raw spans, with
        times relative to ``t0_ns``."""
        return {
            "aggregate": [
                {"layer": layer, "parent": parent, "calls": c, "total_ns": t, "self_ns": s}
                for (layer, parent), (c, t, s) in sorted(self.agg.items())
            ],
            "raw_spans": [
                {"layer": layer, "parent": parent, "start_ns": a - t0_ns, "end_ns": b - t0_ns}
                for layer, parent, a, b in self.raw
            ],
            "raw_units": RAW_UNITS,
        }


# -- counts taken at the same boundaries as the spans -------------------

def _post_pcg(tr: Tracer, res, args) -> None:
    tr.count("pcg.loop_iters", res.loop_iterations)
    tr.count("pcg.case_iters", float(res.iterations.sum()))
    tr.count("pcg.case_solves", res.iterations.size)
    tr.count("pcg.nonconverged", float((~res.converged).sum()))
    for v in res.initial_relres:
        if v > 0.0 and math.isfinite(v):
            tr.count("pcg.log_initial_relres", math.log(v))
            tr.count("pcg.initial_relres_n")


def _post_tally(tr: Tracer, out, args) -> None:
    tr.tally.merge(out[1])


def _post_source(tr: Tracer, out, args) -> None:
    from repro.workloads.sources import source_active

    tr.count("source.evals")
    if source_active(args[0], args[1]):
        tr.count("source.active")


_POST_HOOKS = {
    "sparse.pcg": _post_pcg,
    "core.caseset_predict": _post_tally,
    "core.rhs_build": _post_tally,
    "workloads.source_eval": _post_source,
}
