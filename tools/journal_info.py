"""Describe a campaign checkpoint journal, line by line.

A journal (``checkpoints/<key>.json`` in a campaign store) holds its
arrays as base64 bytes, so it is no longer readable in a pager.  This
tool prints, for every intact line, the completed step, where its
records tail starts (``tail_from``, ``-`` for a full head), how many
records it carries and its size in bytes, then the dtype and shape of
each array leaf under that line's state.  Last comes the step a resume
would continue from, after the lines are merged.

Usage::

    PYTHONPATH=src python tools/journal_info.py <journal>

Exits 1, with the reason on stderr, when the journal does not decode:
no line, a tear before the final line, an unknown schema, a gap
between tails or a malformed array leaf.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.io.results import load_campaign_checkpoint, read_campaign_journal

__all__ = ["array_leaves", "describe", "main"]


def array_leaves(obj, path: str = "$"):
    """``(path, array)`` for every array leaf under ``obj``."""
    if isinstance(obj, np.ndarray):
        yield path, obj
    elif isinstance(obj, dict):
        for k, v in obj.items():
            yield from array_leaves(v, f"{path}.{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from array_leaves(v, f"{path}[{i}]")


def describe(path) -> str:
    """The report for one journal; raises what its reader raises."""
    out = []
    for i, (nbytes, doc) in enumerate(read_campaign_journal(path), 1):
        logs = doc["state"]["state"]  # run_method's document -> its schedule's
        tail = logs.get("tail_from")
        out.append(
            f"line {i}: step {doc['step']}, tail_from {tail if tail else '-'}, "
            f"{len(logs.get('records', []))} records, {nbytes} B"
        )
        for leaf, a in array_leaves(doc["state"], "$.state"):
            out.append(f"  {leaf}  {a.dtype} {tuple(a.shape)}")
    out.append(f"resume step: {load_campaign_checkpoint(path)['step']}")
    return "\n".join(out) + "\n"


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("journal", help="a campaign checkpoint journal")
    args = ap.parse_args(argv)
    try:
        report = describe(args.journal)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"journal_info: {args.journal}: {exc}", file=sys.stderr)
        return 1
    print(report, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
