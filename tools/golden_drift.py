"""Iterations non-regression gate for a golden-fixture regeneration.

A change that moves fp64 rounding regenerates ``tests/golden/fixtures``
(``pytest tests/golden --regen-golden``).  This tool says what the
regeneration moved and refuses anything but rounding noise: it lists
every JSON leaf that differs between the old and the new fixtures with
its relative drift, and exits non-zero when

* an integer-valued leaf changed at all (iteration counts, ``s_used``,
  step counts, sizes),
* a float leaf other than a residual moved by more than 1e-6
  relative — means of iterations per step land here, and one
  iteration more or less is far above the tolerance,
* a leaf of another type (strings, keys, whole files) changed.

Residual leaves (name contains ``relres`` or ``resid``) are the
solver's stopping quantity: wherever the iterate lands below ``eps``
is rounding-determined, so they are listed but never gate.

Usage::

    python tools/golden_drift.py --rev HEAD~1

compares that git revision's fixtures (read with ``git show``) with
the working tree's; the CI tier-1 job runs it when a push touched the
fixtures.  The table is markdown; paste it in the PR description.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

__all__ = ["leaf_drift", "compare_trees", "render_markdown", "main"]

REPO = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = "tests/golden/fixtures"
RESIDUAL_MARKS = ("relres", "resid")
TOL = 1e-6  # largest accepted relative drift of a non-residual float


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def leaf_drift(old, new, path: str = "$"):
    """``(path, old, new, relative drift or None)`` for every leaf that
    differs; a leaf present on one side only reports the other side as
    ``"<absent>"``."""
    if isinstance(old, dict) and isinstance(new, dict):
        for k in sorted(set(old) | set(new)):
            yield from leaf_drift(
                old.get(k, "<absent>"), new.get(k, "<absent>"), f"{path}.{k}"
            )
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from leaf_drift(a, b, f"{path}[{i}]")
    elif old != new and not (old != old and new != new):  # NaN equals NaN
        rel = None
        if _is_number(old) and _is_number(new):
            scale = max(abs(old), abs(new))
            rel = abs(new - old) / scale if scale else 0.0
        yield path, old, new, rel


def verdict(path: str, old, new, rel) -> str:
    """``"ok"`` for drift the gate accepts, else the reason it fails."""
    if rel is None:
        return "changed"
    if _is_int(old) and _is_int(new):
        return "integer moved"
    if any(mark in path.rsplit(".", 1)[-1] for mark in RESIDUAL_MARKS):
        return "ok"
    return "ok" if rel <= TOL else f"> {TOL:g}"


def compare_trees(old: dict[str, dict], new: dict[str, dict]):
    """Rows ``(file, path, old, new, rel, verdict)`` for two fixture
    trees given as ``{relative file name: parsed JSON}``."""
    rows = []
    for name in sorted(set(old) | set(new)):
        if name not in old or name not in new:
            side = "added" if name not in old else "removed"
            rows.append((name, "$", "<absent>", "<absent>", None, f"file {side}"))
            continue
        for path, a, b, rel in leaf_drift(old[name], new[name]):
            rows.append((name, path, a, b, rel, verdict(path, a, b, rel)))
    return rows


def render_markdown(rows) -> str:
    if not rows:
        return "golden fixtures: no leaf changed\n"
    lines = [
        "| fixture | leaf | old | new | rel. drift | gate |",
        "|---|---|---:|---:|---:|---|",
    ]
    for name, path, a, b, rel, why in rows:
        drift = "" if rel is None else f"{rel:.2e}"
        lines.append(f"| `{name}` | `{path}` | {a!r} | {b!r} | {drift} | {why} |")
    return "\n".join(lines) + "\n"


def _load_dir(root: pathlib.Path) -> dict[str, dict]:
    return {
        p.relative_to(root).as_posix(): json.loads(p.read_text())
        for p in sorted(root.rglob("*.json"))
    }


def _load_rev(rev: str) -> dict[str, dict]:
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=REPO, check=True, capture_output=True, text=True
        ).stdout

    names = git("ls-tree", "-r", "--name-only", rev, "--", FIXTURES).split()
    return {
        pathlib.PurePosixPath(n).relative_to(FIXTURES).as_posix():
            json.loads(git("show", f"{rev}:{n}"))
        for n in names
        if n.endswith(".json")
    }


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rev", required=True,
                    help=f"git revision holding the old {FIXTURES}")
    args = ap.parse_args(argv)
    rows = compare_trees(_load_rev(args.rev), _load_dir(REPO / FIXTURES))
    print(render_markdown(rows), end="")
    failed = [r for r in rows if r[5] != "ok"]
    if failed:
        print(f"golden drift gate: {len(failed)} leaf(s) moved beyond rounding",
              file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
