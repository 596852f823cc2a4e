"""``python -m benchmarks.perf``: the one command.

Two modes, one program:

* with ``--trace 0|1`` it measures **one** workload once in this
  process and prints the result object as the last line of stdout —
  the form a driver calls;
* without ``--trace`` it is the orchestrator: every workload (or the
  one named) runs twice, each time in its own fresh child process of
  the first form — untraced for the end-to-end metrics, then traced for
  the per-layer metrics — sequentially, one client, no pool.  It prints
  every metric by name with its unit, checks outputs (including that
  tracing left the numerics bit-identical) and exits non-zero on a
  failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

from .schema import ROOT, THREAD_VARS, load_benchmark, sizes_key

PKG_DIR = pathlib.Path(__file__).resolve().parent
QUICK_DIVISOR = 8


def _parse(argv):
    ap = argparse.ArgumentParser(prog="python -m benchmarks.perf", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="run only this workload (default: all)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="run length; scales the step counts (default: run_seconds "
                         "of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="measure one workload in this process, untraced (0) or traced (1)")
    ap.add_argument("--quick", action="store_true",
                    help=f"step counts / {QUICK_DIVISOR} (smoke test)")
    ap.add_argument("--repeat", type=int, default=1,
                    help="orchestrator: complete sets of runs to make")
    ap.add_argument("--out", type=pathlib.Path,
                    help="write the full result document here")
    ap.add_argument("--traces", type=pathlib.Path,
                    help="orchestrator: directory for the raw trace dumps "
                         "(default: benchmarks/perf/traces)")
    ap.add_argument("--write-reference", action="store_true",
                    help="orchestrator, seed 0: pin this run's outputs in reference.json")
    return ap.parse_args(argv)


def _print_metrics(title: str, metrics: dict) -> None:
    print(title)
    width = max(map(len, metrics))
    for name, m in metrics.items():
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}")


# -- one run in this process -------------------------------------------

def _measure(args, seconds: float) -> int:
    if args.workload is None:
        print("--trace needs --workload", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    try:
        from . import harness
    except ModuleNotFoundError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    import_ms = (time.perf_counter() - t0) * 1e3
    if args.workload not in harness.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    result = harness.run_once(
        args.workload, args.seed, seconds, bool(args.trace), import_ms, args.out
    )
    kind = "per-layer (traced)" if args.trace else "end-to-end (untraced)"
    _print_metrics(f"{args.workload} seed={args.seed} {kind}", result["metrics"])
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# -- the orchestrator ----------------------------------------------------

def _child(name: str, seed: int, seconds: float, traced: bool, out: pathlib.Path) -> dict | None:
    """One fresh child process; a run whose witness readings drifted is
    retried once.  ``None`` when the child did not produce a result."""
    cmd = [sys.executable, "-m", __package__, "--workload", name, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(int(traced)), "--out", str(out)]
    doc = None
    for attempt in (1, 2):
        out.unlink(missing_ok=True)
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if not out.exists():
            print(f"{name}: child exited {proc.returncode} without a result",
                  file=sys.stderr)
            return None
        doc = json.loads(out.read_text())
        doc["attempt"] = attempt
        if doc["valid"]:
            break
        print(f"{name}: witness drifted {doc['info']['witness.drift_share']:.1%} "
              f"during the run (attempt {attempt})", file=sys.stderr)
    return doc


def _orchestrate(args, seconds: float, names: list[str]) -> int:
    tmp = PKG_DIR / ".work" / f"orchestrator-{os.getpid()}"
    tmp.mkdir(parents=True)
    traces = args.traces or PKG_DIR / "traces"
    runs, ok = [], True
    try:
        for _ in range(args.repeat):
            for name in names:
                pair = [
                    _child(name, args.seed, seconds, traced, tmp / f"{name}-{int(traced)}.json")
                    for traced in (False, True)
                ]
                if None in pair:
                    ok = False
                    continue
                plain, traced = pair
                problems = plain["problems"] + traced["problems"]
                if plain["digest"] != traced["digest"]:
                    problems.append("tracing perturbed the numerics: the traced run's "
                                    "outputs differ from the untraced run's")
                measured = traced["wall_s"] / plain["wall_s"] - 1.0
                _print_metrics(
                    f"\n== {name}  seed={args.seed}  {plain['sizes']}  "
                    f"unit_ms over {plain['unit_samples']} samples in "
                    f"{plain['unit_blocks']} block(s), tail = "
                    f"p{plain['tail_percentile']}  valid={plain['valid'] and traced['valid']}",
                    {
                        **plain["result"]["metrics"],
                        "failed_share": {
                            "value": plain["result"]["failed"] / plain["result"]["attempted"],
                            "unit": "share"},
                        **traced["result"]["metrics"],
                        "trace.overhead_share_measured": {"value": measured, "unit": "share"},
                    },
                )
                for p in problems:
                    print(f"  CHECK FAILED: {p}")
                ok = ok and not problems
                # the bulky raw series go with the raw spans, not into --out
                trace = traced.pop("trace")
                trace["unit_ms_untraced"] = plain.pop("unit_ms")
                trace["unit_ms_traced"] = traced.pop("unit_ms")
                traces.mkdir(parents=True, exist_ok=True)
                (traces / f"{name}-seed{args.seed}.json").write_text(json.dumps(trace))
                traced["info"]["trace.overhead_share_measured"] = measured
                runs += [plain, traced]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"runs": runs}, indent=1))
    if args.write_reference and ok:
        _write_reference(runs, args.seed)
    print("\nall checks passed" if ok else "\nFAILED", file=sys.stderr)
    return 0 if ok else 1


def _write_reference(runs: list[dict], seed: int) -> None:
    if seed != 0:
        raise SystemExit("the reference is pinned at --seed 0")
    path = PKG_DIR / "reference.json"
    ref = json.loads(path.read_text()) if path.exists() else {}
    for doc in runs:
        ref.setdefault(doc["workload"], {})[sizes_key(doc["sizes"])] = {
            "fingerprint": doc["fingerprint"],
            "iters_per_case_step": doc["iters_per_case_step"],
        }
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = _parse(argv)
    # one thread, set before numpy loads its BLAS; children inherit it
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if src.is_dir():
        sys.path.insert(0, str(src))
    try:
        bench = load_benchmark()
    except FileNotFoundError:
        print(f"no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else float(bench["run_seconds"])
    if args.quick:
        seconds /= QUICK_DIVISOR
    if args.trace is not None:
        return _measure(args, seconds)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            print(f"unknown workload {args.workload!r}; choose from {names}",
                  file=sys.stderr)
            return 2
        names = [args.workload]
    return _orchestrate(args, seconds, names)


if __name__ == "__main__":
    sys.exit(main())
