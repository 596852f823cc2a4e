"""``BENCHMARK.json`` and the shape of a result.  Standard library only,
so the comparison tool and the smoke test need not load the program."""

from __future__ import annotations

import json
import math
import pathlib

__all__ = ["ROOT", "THREAD_VARS", "load_benchmark", "sizes_key", "validate_result"]

ROOT = pathlib.Path(__file__).resolve().parents[2]

#: Pinned to 1 by the entry point and stamped into every result.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

_RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def sizes_key(sizes: dict) -> str:
    """How ``reference.json`` names one set of step counts."""
    return ",".join(f"{k}={v}" for k, v in sorted(sizes.items()))


def validate_result(result: dict, bench: dict, traced: bool) -> list[str]:
    """Everything wrong with one result object against ``bench``: the
    four keys, whole-number counts, and exactly the declared metrics of
    its kind, each a finite number with the declared unit."""
    errors = []
    if set(result) != _RESULT_KEYS:
        return [f"result keys {sorted(result)} are not {sorted(_RESULT_KEYS)}"]
    if not isinstance(result["correct"], bool):
        errors.append("correct is not a boolean")
    for key, least in (("attempted", 1), ("failed", 0)):
        v = result[key]
        if not isinstance(v, int) or isinstance(v, bool) or v < least:
            errors.append(f"{key} is {v!r}, not a whole number >= {least}")
    declared = {d["name"]: d for d in bench["per_layer" if traced else "end_to_end"]}
    metrics = result["metrics"]
    for name in declared.keys() - metrics.keys():
        errors.append(f"metric {name} is missing")
    for name in metrics.keys() - declared.keys():
        errors.append(f"metric {name} is not declared in BENCHMARK.json")
    for name in declared.keys() & metrics.keys():
        m = metrics[name]
        if set(m) != {"value", "unit"}:
            errors.append(f"metric {name} has keys {sorted(m)}")
            continue
        v = m["value"]
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            errors.append(f"metric {name} is {v!r}, not a finite number")
        if m["unit"] != declared[name]["unit"]:
            errors.append(f"metric {name} has unit {m['unit']!r}, "
                          f"declared {declared[name]['unit']!r}")
    return errors
