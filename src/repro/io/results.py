"""JSON persistence for run results, campaign artifacts and checkpoints.

Saves everything needed to regenerate a paper-table row — method,
module, memory, power, per-step records — without the bulky state
vectors.  Loading returns plain dictionaries (the consumer is table
generation and cross-run comparison, not resumption).

Campaign cells use the same discipline: one JSON document per cell,
keyed by the cell's content hash, written atomically so a killed
worker never leaves a half-written artifact that a later cache probe
would trust.  *Every* writer in this module goes through
:func:`atomic_write_text`: the bytes land in a per-writer unique
temporary file in the destination directory and are published with a
single ``os.replace`` — concurrent writers of the same path cannot
tear each other's documents, and a reader only ever sees a complete
document or none.

Checkpoints (:func:`save_pipeline_state` / campaign checkpoint docs)
round-trip solver state exactly: ``json.dumps`` writes floats via
``repr`` (shortest round-trip form), so a resumed run continues from
bit-identical fp64 state.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import tempfile

import numpy as np

from repro.core.results import RunResult

__all__ = [
    "atomic_write_text",
    "save_result",
    "load_result_summary",
    "save_campaign_cell",
    "load_campaign_cell",
    "save_pipeline_state",
    "load_pipeline_state",
    "append_campaign_checkpoint",
    "load_campaign_checkpoint",
    "merge_checkpoint_docs",
]

_SCHEMA_VERSION = 1
_CAMPAIGN_SCHEMA_VERSION = 1
_STATE_SCHEMA_VERSION = 1
_CHECKPOINT_SCHEMA_VERSION = 1


def atomic_write_text(path: str | pathlib.Path, text: str) -> pathlib.Path:
    """Atomically publish ``text`` at ``path``.

    The content is staged in a uniquely named temporary file in the
    *same directory* (so the final ``os.replace`` stays within one
    filesystem and is atomic) and renamed over the destination.  A
    kill mid-write leaves only a stray ``*.tmp`` file, never a torn
    document; concurrent writers of the same path each stage in their
    own temp file, so the last ``os.replace`` wins with a complete
    document either way.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return path


def save_result(
    result: RunResult,
    path: str | pathlib.Path,
    window: tuple[int, int] | None = None,
) -> pathlib.Path:
    """Write a result (summary + per-step records) as JSON."""
    doc = {
        "schema": _SCHEMA_VERSION,
        "summary": _jsonable(result.summary(window)),
        "window": list(window) if window else None,
        "power": _jsonable(result.power),
        "records": [_jsonable(r.to_dict()) for r in result.records],
    }
    return atomic_write_text(path, json.dumps(doc, indent=1))


def load_result_summary(path: str | pathlib.Path) -> dict:
    """Read a saved result; returns the full document as a dict."""
    doc = json.loads(pathlib.Path(path).read_text())
    if doc.get("schema") != _SCHEMA_VERSION:
        raise ValueError(
            f"unsupported result schema {doc.get('schema')!r} "
            f"(expected {_SCHEMA_VERSION})"
        )
    return doc


def save_campaign_cell(
    doc: dict, path: str | pathlib.Path
) -> pathlib.Path:
    """Atomically write one campaign-cell artifact.

    ``doc`` must carry ``key``, ``kind`` and ``params`` (the cache
    identity) plus the executor's ``result``; the schema version is
    stamped here.
    """
    for required in ("key", "kind", "params", "result"):
        if required not in doc:
            raise ValueError(f"campaign cell doc missing {required!r}")
    out = {**_jsonable(doc), "schema": _CAMPAIGN_SCHEMA_VERSION}
    return atomic_write_text(path, json.dumps(out, indent=1))


def load_campaign_cell(path: str | pathlib.Path) -> dict:
    """Read one campaign-cell artifact; raises on schema mismatch."""
    doc = json.loads(pathlib.Path(path).read_text())
    if doc.get("schema") != _CAMPAIGN_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported campaign cell schema {doc.get('schema')!r} "
            f"(expected {_CAMPAIGN_SCHEMA_VERSION})"
        )
    return doc


def save_pipeline_state(
    state: dict, path: str | pathlib.Path
) -> pathlib.Path:
    """Atomically write one mid-run solver state snapshot.

    ``state`` is the document :func:`repro.core.methods.run_method`
    hands to ``on_checkpoint``: the run's header around the
    ``state_dict`` of its schedule
    (:class:`~repro.core.pipeline.SequentialSchedule` or
    :class:`~repro.core.pipeline.HeterogeneousPipeline`); floats survive
    the JSON round trip bit-exactly, so resuming from the loaded state
    is numerically indistinguishable from never having stopped.
    """
    doc = {"schema": _STATE_SCHEMA_VERSION, "state": _jsonable(state)}
    return atomic_write_text(path, json.dumps(doc))


def load_pipeline_state(path: str | pathlib.Path) -> dict:
    """Read a state snapshot; raises ``ValueError`` on schema mismatch
    (a checkpoint from an incompatible code version must fail loudly,
    not resume into silently wrong numbers)."""
    doc = json.loads(pathlib.Path(path).read_text())
    if doc.get("schema") != _STATE_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported pipeline state schema {doc.get('schema')!r} "
            f"(expected {_STATE_SCHEMA_VERSION})"
        )
    return doc["state"]


def append_campaign_checkpoint(
    doc: dict, path: str | pathlib.Path
) -> pathlib.Path:
    """Append one checkpoint flush to a per-cell checkpoint *journal*.

    The journal is line-delimited JSON, written with a single
    ``O_APPEND`` write per flush: each line is one complete checkpoint
    document — the cell identity (``key``, ``kind``, ``params``), the
    completed ``step`` count and the driver ``state``, stamped with the
    checkpoint schema version — whose embedded driver state is the
    incremental records/waves tail since the previous line.  A crash mid-append can only tear the
    *last* line, which :func:`load_campaign_checkpoint` discards —
    every earlier flush stays intact, and total checkpoint I/O is O(1)
    per step instead of O(n²/k).
    """
    for required in ("key", "kind", "params", "step", "state"):
        if required not in doc:
            raise ValueError(f"campaign checkpoint doc missing {required!r}")
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps({**_jsonable(doc), "schema": _CHECKPOINT_SCHEMA_VERSION})
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, (line + "\n").encode())
    finally:
        os.close(fd)
    return path


def merge_checkpoint_docs(docs) -> dict:
    """Merge an ordered sequence of method-level checkpoint documents
    (the dicts ``run_method`` hands to ``on_checkpoint``) into one
    self-contained document resumable via ``start_state``.

    The first document must be a full snapshot; each later one must be
    the incremental tail continuing exactly where its predecessor
    stopped (``state["tail_from"] == previous step``) — gaps or
    reordered flushes raise, since a silently mis-stitched history
    would corrupt summaries.  The merged document is the last one with
    the concatenated records/waves and no ``tail_from`` mark.
    """
    docs = list(docs)
    if not docs:
        raise ValueError("no checkpoint documents to merge")
    head = {
        k: docs[0].get(k) for k in ("method", "nparts", "precision")
    }
    records: list = []
    waves: list = []
    prev_step = None
    for doc in docs:
        for k, want in head.items():
            if doc.get(k) != want:
                raise ValueError(
                    f"checkpoint {k} changed mid-journal: "
                    f"{doc.get(k)!r} != {want!r}"
                )
        state = doc["state"]
        tail_from = int(state.get("tail_from") or 0)
        if prev_step is None:
            if tail_from:
                raise ValueError(
                    f"first checkpoint is a tail from step {tail_from}; "
                    "the journal's full head document is missing"
                )
        elif tail_from != prev_step:
            raise ValueError(
                f"checkpoint gap: tail from step {tail_from} follows "
                f"step {prev_step}"
            )
        records.extend(state.get("records", []))
        waves.extend(state.get("waves", []))
        prev_step = int(doc["step"])
    merged = dict(docs[-1])
    state = dict(docs[-1]["state"])
    state["records"] = records
    state["waves"] = waves
    state.pop("tail_from", None)
    merged["state"] = state
    return merged


def load_campaign_checkpoint(path: str | pathlib.Path) -> dict:
    """Read one campaign checkpoint (journal or legacy single-doc file).

    A legacy single-document file (one whole checkpoint, written
    before the journal existed) is read as a one-line journal.
    Multi-line journals
    (:func:`append_campaign_checkpoint`) are merged into one
    self-contained document — the latest ``step``, the full records —
    via :func:`merge_checkpoint_docs`.

    Raises ``ValueError`` on a schema-version mismatch or a torn line
    *before* the journal end — resuming from a checkpoint written by an
    incompatible version, or from a journal with holes, must fail
    loudly.  A torn *final* line (the only tear an ``O_APPEND`` crash
    can produce) is discarded; if nothing parseable remains the
    ``json.JSONDecodeError`` propagates, which callers may treat as
    "no checkpoint" since checkpoints are disposable.
    """
    text = pathlib.Path(path).read_text()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    docs = []
    for i, line in enumerate(lines):
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            if i == len(lines) - 1:
                if not docs:
                    raise
                break
            raise ValueError(
                f"torn checkpoint journal line {i + 1} of {len(lines)} "
                f"in {path}"
            ) from None
        if doc.get("schema") != _CHECKPOINT_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported campaign checkpoint schema "
                f"{doc.get('schema')!r} (expected "
                f"{_CHECKPOINT_SCHEMA_VERSION})"
            )
        docs.append(doc)
    if len(docs) == 1:
        return docs[0]
    for k in ("key", "kind"):
        if any(d.get(k) != docs[0].get(k) for d in docs):
            raise ValueError(f"checkpoint journal mixes {k} values")
    merged_method = merge_checkpoint_docs([d["state"] for d in docs])
    merged = dict(docs[-1])
    merged["state"] = merged_method
    return merged


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj
