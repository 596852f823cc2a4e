"""``python -m benchmarks.perf.compare BASE.json NEW.json [NEW.json ...]``

Each file is a result document the orchestrator wrote with ``--out``:
one or more complete sets of runs (``--repeat``).  The first file is
the base; every further file is compared against it, one row per
workload and end-to-end metric:

* median and quartiles of both sides over the runs given;
* the ratio new/base, printed with its base;
* ``REGRESSION`` when the new median is worse than the base median by
  more than the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` when either side's spread (distance between the
  quartiles over the median) exceeds the bound, unless every new run
  reads better than every base run — a difference inside the noise is
  not "unchanged".

Deterministic numbers (modeled metrics, iteration counts, computed
flops and bytes, failures) of runs with equal workload, seed and sizes
must agree exactly; a mismatch is reported and fails the comparison.
Runs whose witness readings drifted (``valid: false``) are refused.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

from .schema import load_benchmark, validate_result

_DETERMINISTIC_PREFIXES = (
    "modeled_", "sparse.pcg.iters_per_case_step", "sparse.pcg.loop_iters_total",
    "sparse.pcg.nonconverged", "sparse.model_", "predictor.model_gflop",
    "campaign.modeled_",
)


def _load(path: str, bench: dict) -> list[dict]:
    runs = json.loads(pathlib.Path(path).read_text())["runs"]
    invalid = [f"{r['workload']} (traced={r['traced']})" for r in runs if not r["valid"]]
    if invalid:
        raise SystemExit(f"{path}: refusing runs whose witness drifted: {invalid}")
    for r in runs:
        errors = validate_result(r["result"], bench, r["traced"])
        if errors:
            raise SystemExit(f"{path}: {r['workload']}: {errors}")
    return runs


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); with one value all three are that value."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _worse_by(base: float, new: float, better: str) -> float:
    """Share of the base by which ``new`` is worse (negative = better)."""
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def _verdict(base: list[float], new: list[float], bq, nq, metric: dict) -> str:
    bound, better = metric["bound"], metric["better"]
    (bq1, bmed, bq3), (nq1, nmed, nq3) = bq, nq
    worse = _worse_by(bmed, nmed, better)
    if worse > bound:
        return "REGRESSION"
    spread = max((bq3 - bq1) / abs(bmed), (nq3 - nq1) / abs(nmed))
    all_better = (
        max(new) < min(base) if better == "lower" else min(new) > max(base)
    )
    if spread > bound and not all_better:
        return "unresolved"
    return "ok" if len(base) > 1 and len(new) > 1 else "ok (n=1: spread unknown)"


def _values(runs: list[dict], workload: str, traced: bool, name: str) -> list[float]:
    return [
        r["result"]["metrics"][name]["value"]
        for r in runs
        if r["workload"] == workload and r["traced"] == traced
    ]


def _deterministic_mismatches(base: list[dict], new: list[dict]) -> list[str]:
    def identity(r):
        return (r["workload"], r["traced"], r["env"]["seed"], json.dumps(r["sizes"], sort_keys=True))

    by_id = {identity(r): r for r in base}
    out = []
    for r in new:
        b = by_id.get(identity(r))
        if b is None:
            continue
        for key in ("attempted", "failed"):
            if r["result"][key] != b["result"][key]:
                out.append(f"{r['workload']} seed {r['env']['seed']}: {key} "
                           f"{b['result'][key]} -> {r['result'][key]}")
        for name, m in r["result"]["metrics"].items():
            if name.startswith(_DETERMINISTIC_PREFIXES):
                old = b["result"]["metrics"][name]["value"]
                if m["value"] != old:
                    out.append(f"{r['workload']} seed {r['env']['seed']}: {name} "
                               f"{old!r} -> {m['value']!r}")
    return out


def compare(base_path: str, new_path: str, bench: dict) -> bool:
    base, new = _load(base_path, bench), _load(new_path, bench)
    print(f"\n{new_path} against base {base_path}")
    header = (f"  {'workload':<16} {'metric':<24} {'base median [q1, q3]':<38} "
              f"{'new median [q1, q3]':<38} {'new/base':<10} verdict")
    print(header)
    ok = True
    for w in bench["workloads"]:
        for metric in bench["end_to_end"]:
            b = _values(base, w["name"], False, metric["name"])
            n = _values(new, w["name"], False, metric["name"])
            if not b or not n:
                continue
            bq, nq = _quartiles(b), _quartiles(n)
            (bq1, bmed, bq3), (nq1, nmed, nq3) = bq, nq
            verdict = _verdict(b, n, bq, nq, metric)
            ok = ok and verdict != "REGRESSION"
            unit = metric["unit"]
            base_col = f"{bmed:.5g} [{bq1:.5g}, {bq3:.5g}] {unit}"
            new_col = f"{nmed:.5g} [{nq1:.5g}, {nq3:.5g}] {unit}"
            print(
                f"  {w['name']:<16} {metric['name']:<24} {base_col:<38} {new_col:<38} "
                f"{nmed / bmed:<10.4f} {verdict} (bound {metric['bound']:.0%}, "
                f"n={len(b)}/{len(n)})"
            )
    mismatches = _deterministic_mismatches(base, new)
    for line in mismatches:
        print(f"  DETERMINISTIC MISMATCH: {line}")
    return ok and not mismatches


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = load_benchmark()
    results = [compare(argv[0], path, bench) for path in argv[1:]]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
