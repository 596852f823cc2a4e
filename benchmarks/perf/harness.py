"""One measured run of one workload in this process.

Order of events: witness reading, at least ``SETUP_REPEATS`` + 1 fresh
set-ups (the first discarded, the last one used), the measured run — under the
tracer when ``trace`` is set — a second witness reading, then the
correctness checks and the metrics.  Measured wall-clock and modeled
roofline numbers stay in separate, named metrics.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

from . import witness as witness_mod
from .schema import ROOT, THREAD_VARS, load_benchmark, sizes_key
from .tracing import LAYERS, Tracer
from .workloads import COUNT_NAMES, SETUP_PHASES, WORKLOADS, resume_problems

PKG_DIR = pathlib.Path(__file__).resolve().parent
WORK_DIR = PKG_DIR / ".work"

#: Fresh set-ups timed per run, after one discarded: at least
#: SETUP_REPEATS, and more of a cheap one until they add up to
#: SETUP_MIN_S (a sub-millisecond set-up needs many samples for a steady
#: median).  ``setup_s`` is the median of their totals.
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 2000

#: Tolerances of the seed-0 reference check.  Iteration counts are
#: first-crossing counts of a floating-point residual, so another BLAS
#: or SIMD width may move a handful of them by one.
FINGERPRINT_RTOL = 1e-5
FINGERPRINT_ATOL = 1e-15  # a long free vibration rings down to nothing
ITERS_RTOL = 1e-3


def env_stamp(seed: int) -> dict:
    """What a result must carry to be comparable later."""
    import scipy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "git_sha": sha or "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
    }


_TAIL_LADDER = (99, 95, 90, 80, 75)


def tail_percentile(n: int) -> int:
    """Highest percentile of the ladder with at least ten of ``n``
    samples beyond it (50 when even p75 has fewer)."""
    for p in _TAIL_LADDER:
        if n * (100 - p) >= 1000:
            return p
    return 50


def unit_percentiles(unit_ms: np.ndarray, blocks: int) -> tuple[float, float, int]:
    """``(p50, tail, tail percentile)`` of the per-unit wall times.

    A shared machine stalls for seconds at a time, and a stall is not
    the program's.  Where a workload's units are all alike it declares
    ``blocks`` > 1: the percentiles are taken within each block of
    consecutive units and the lowest block is reported — what ``timeit``
    does when it reports the best of its repeats.  The tail percentile
    is the highest with at least ten samples beyond it in a block."""
    chunks = np.array_split(unit_ms, blocks)
    tail_p = tail_percentile(min(len(c) for c in chunks))
    return (
        float(min(np.percentile(c, 50) for c in chunks)),
        float(min(np.percentile(c, tail_p) for c in chunks)),
        tail_p,
    )


def _span_cost_ns() -> float:
    """Calibrated cost of one span: a wrapped method-shaped call, nested
    in a wrapped caller, against the bare call.  In a hot loop; in situ
    a span costs a few times more (cold caches, the count hooks), so the
    share derived from it is a lower bound."""
    def probe(obj, x, out=None):
        return out

    tracer = Tracer("calibration")
    inner = tracer.wrap("calibration.inner", probe, None)
    n = 20_000

    def loop(fn):
        for _ in range(n):
            fn(None, 1, out=2)

    outer = tracer.wrap("calibration.outer", loop, None)
    best = {}
    for name, run in (("bare", lambda: loop(probe)), ("wrapped", lambda: outer(inner))):
        times = []
        for _ in range(5):
            t0 = time.perf_counter_ns()
            run()
            times.append(time.perf_counter_ns() - t0)
        best[name] = min(times)
    return (best["wrapped"] - best["bare"]) / n


def _reference_problems(workload: str, sizes: dict, outcome) -> list[str]:
    ref_doc = json.loads((PKG_DIR / "reference.json").read_text())
    ref = ref_doc.get(workload, {}).get(sizes_key(sizes))
    if ref is None:
        return []  # only the nominal and --quick sizes are pinned
    problems = []
    want, got = ref["fingerprint"], outcome.fingerprint
    if len(want) != len(got) or any(
        not math.isclose(a, b, rel_tol=FINGERPRINT_RTOL, abs_tol=FINGERPRINT_ATOL)
        for a, b in zip(want, got)
    ):
        problems.append(f"fingerprint {got} differs from reference {want}")
    if not math.isclose(
        ref["iters_per_case_step"], outcome.iters_per_case_step, rel_tol=ITERS_RTOL
    ):
        problems.append(
            f"iters_per_case_step {outcome.iters_per_case_step} differs from "
            f"reference {ref['iters_per_case_step']}"
        )
    return problems


def _layer_metrics(workload, tracer, outcome, span_cost: float) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced run, and the fail-loud findings:
    a layer the workload must hit that recorded no call, or one it
    must not touch that did."""
    m: dict[str, float] = dict.fromkeys(COUNT_NAMES, 0.0)
    layers = tracer.layers()
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = layers[layer]["self_ns"] / 1e6
        m[f"{layer}.calls"] = layers[layer]["calls"]
    problems = [
        f"layer {layer} recorded no call" for layer in workload.required
        if not layers[layer]["calls"]
    ] + [
        f"layer {layer} must not run here but recorded {layers[layer]['calls']} calls"
        for layer in workload.absent if layers[layer]["calls"]
    ]

    c = tracer.counts
    solves = c.get("pcg.case_solves", 0.0)
    m["sparse.pcg.iters_per_case_step"] = c.get("pcg.case_iters", 0.0) / solves if solves else 0.0
    m["sparse.pcg.loop_iters_total"] = c.get("pcg.loop_iters", 0.0)
    m["sparse.pcg.nonconverged"] = c.get("pcg.nonconverged", 0.0)
    n_rel = c.get("pcg.initial_relres_n", 0.0)
    m["predictor.initial_relres_gmean"] = (
        math.exp(c["pcg.log_initial_relres"] / n_rel) if n_rel else 0.0
    )
    evals = c.get("source.evals", 0.0)
    m["workloads.source_eval.active_share"] = c.get("source.active", 0.0) / evals if evals else 0.0

    # modeled work, computed (not measured): merged kernel tallies
    tally = tracer.tally
    for tag in ("spmv.ebe", "spmv.crs", "rhs.spmv", "cg.vec", "cg.precond"):
        name = tag.replace(".", "_")
        m[f"sparse.model_gflop.{name}"] = tally.total_flops(tag) / 1e9
        m[f"sparse.model_gbyte.{name}"] = tally.total_bytes(tag) / 1e9
    m["predictor.model_gflop"] = tally.total_flops("predictor.") / 1e9
    # host rate over every EBE application, the RHS build's included
    ebe_ns = sum(v[1] for (layer, _), v in tracer.agg.items() if layer == "sparse.ebe_matvec")
    m["sparse.ebe_matvec.host_gflops"] = tally.total_flops("spmv.ebe") / ebe_ns if ebe_ns else 0.0

    m.update(outcome.counts)
    cold_ns = outcome.counts.get("campaign.cold_wall_s", 0.0) * 1e9
    m["campaign.overhead_share"] = (
        1.0 - layers["campaign.execute_cell"]["total_ns"] / cold_ns if cold_ns else 0.0
    )

    n_spans = sum(v[0] for v in tracer.agg.values())
    wall_ns = outcome.wall_s * 1e9
    m["trace.spans"] = n_spans
    m["trace.overhead_share"] = n_spans * span_cost / max(1.0, wall_ns - n_spans * span_cost)
    m["trace.unaccounted_share"] = 1.0 - tracer.covered_ns() / wall_ns
    return m, problems


def run_once(name: str, seed: int, seconds: float, trace: bool,
             import_ms: float, out: pathlib.Path | None = None) -> dict:
    """Run one workload once; returns the contract's result object
    (``correct``, ``attempted``, ``failed``, ``metrics``).
    ``import_ms`` is what importing the harness and the program cost the
    caller.  With ``out`` the full document (environment stamp, witness
    readings, validity, every computed number, and the trace) is
    written there too."""
    bench = load_benchmark()
    workload = WORKLOADS[name]
    sizes = workload.sizes(seconds)
    workdir = WORK_DIR / f"{os.getpid()}"
    witness = witness_mod.Witness()
    span_cost = _span_cost_ns() if trace else 0.0
    try:
        before = witness.read()
        totals, phases = [], []
        while len(totals) <= SETUP_REPEATS or (
            sum(totals[1:]) < SETUP_MIN_S and len(totals) <= SETUP_MAX_REPEATS
        ):
            sub = workdir / f"setup{len(totals)}"
            sub.mkdir(parents=True)
            t0 = time.perf_counter()
            ctx, ph = workload.setup(seed, sizes, sub)
            totals.append(time.perf_counter() - t0)
            phases.append(ph)
        setup_s = statistics.median(totals[1:])
        setup_ms = dict.fromkeys((f"setup.{k}" for k in SETUP_PHASES), 0.0)
        for k in phases[0]:
            setup_ms[f"setup.{k}"] = statistics.median(p[k] for p in phases[1:])

        tracer = Tracer(workload.unit_layer) if trace else None
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter_ns()
        try:
            outcome = workload.run(ctx)
        finally:
            if tracer is not None:
                tracer.uninstall()
        after = witness.read()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        problems = list(outcome.problems)
        problems += resume_problems(workload, ctx, outcome)
        if seed == 0:
            problems += _reference_problems(name, sizes, outcome)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    unit_p50, unit_tail, tail_p = unit_percentiles(outcome.unit_ms, workload.blocks)
    end_to_end = {
        "case_steps_per_s": outcome.case_steps_per_s,
        "unit_ms_p50": unit_p50,
        "unit_ms_tail": unit_tail,
        "modeled_s_per_case_step": outcome.modeled_s,
        "modeled_j_per_case_step": outcome.modeled_j,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }
    info = {
        "setup.import_ms": import_ms,
        **setup_ms,
        "witness.triad_ms": (before["triad_ms"] + after["triad_ms"]) / 2,
        "witness.dgemm_ms": (before["dgemm_ms"] + after["dgemm_ms"]) / 2,
        "witness.drift_share": witness_mod.drift(before, after),
    }
    if tracer is not None:
        per_layer, findings = _layer_metrics(workload, tracer, outcome, span_cost)
        problems += findings
        computed = {**per_layer, **info}
        declared = bench["per_layer"]
    else:
        computed = end_to_end
        declared = bench["end_to_end"]

    missing = [d["name"] for d in declared if d["name"] not in computed]
    if missing:
        raise KeyError(f"BENCHMARK.json names metrics this run did not compute: {missing}")
    result = {
        "correct": not problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            d["name"]: {"value": computed[d["name"]], "unit": d["unit"]}
            for d in declared
        },
    }
    if out is not None:
        doc = {
            "workload": name,
            "traced": trace,
            "seconds": seconds,
            "sizes": sizes,
            "env": env_stamp(seed),
            "valid": info["witness.drift_share"] <= witness_mod.DRIFT_LIMIT,
            "witness": {"before": before, "after": after},
            "problems": problems,
            "wall_s": outcome.wall_s,
            "unit_samples": len(outcome.unit_ms),
            "unit_ms": [round(float(v), 4) for v in outcome.unit_ms],
            "unit_blocks": workload.blocks,
            "tail_percentile": tail_p,
            "digest": outcome.digest,
            "fingerprint": outcome.fingerprint,
            "iters_per_case_step": outcome.iters_per_case_step,
            "info": {**info, **outcome.counts},
            "result": result,
        }
        if tracer is not None:
            doc["trace"] = tracer.dump(t0)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(doc))
    for p in problems:
        print(f"CHECK FAILED [{name}]: {p}", file=sys.stderr)
    return result
