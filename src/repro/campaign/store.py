"""On-disk campaign result store with content-hash caching.

Layout under the store root::

    cells/<key>.json        one artifact per computed cell
    checkpoints/<key>.json  mid-cell resume journal (deleted on success)
    locks/<key>.lock        per-key advisory lock files
    manifest.json           last-run bookkeeping (spec + cell statuses)

Checkpoints are append-only JSONL journals, one line per flush
(:func:`repro.io.results.append_campaign_checkpoint`).  Each line holds
the full live numeric state, its arrays as raw little-endian bytes, and
only the records/waves tail since the previous flush, so a line's size
does not grow with the step index.  :func:`resume_checkpoint` is the one
resume policy — :meth:`load_checkpoint` and the ``"method"`` executor
both go through it — and returns the merged, self-contained document.

The key is the cell's parameter content hash
(:func:`repro.campaign.spec.cell_key`), so identical cells — across
re-runs, across campaigns, even across differently-shaped grids —
share one artifact and are never recomputed.

The store is *transactional*: every document is published with an
atomic temp-file + rename (:func:`repro.io.results.atomic_write_text`),
and :meth:`lock` serializes computation per key with an advisory
``flock``, so concurrent campaigns sharing one store never
double-compute a cell or tear each other's artifacts.  A worker killed
at any instant leaves either the previous complete document or none —
never a torn one.

A store instance keeps an in-memory *index* of the artifacts it has
read, ``{key: (signature, doc)}``, where the signature is the file's
``(st_ino, st_size, st_mtime_ns)``.  :meth:`load` makes one ``os.stat``
per call and serves the indexed document while the signature matches;
otherwise it reads, parses, schema-checks and re-indexes the file.  An
atomic replace by any process gives the path a new inode and an
in-place truncation changes its size, so both are seen on the next
probe.  The index is filled lazily — constructing a store reads
nothing.  Loaded documents are *shared and read-only*: every
:meth:`load` of an unchanged artifact returns the same object, so a
caller that needs to modify one copies it first.

:meth:`write_manifest` skips the write when the document equals the one
this instance last wrote and the file still carries the signature that
write left; a manifest rewritten by anyone else is rewritten.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib

try:  # POSIX advisory locks; absent on some platforms
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

from repro.campaign.spec import CampaignCell
from repro.io.results import (
    atomic_write_text,
    load_campaign_cell,
    load_campaign_checkpoint,
    save_campaign_cell,
)

__all__ = ["ResultStore", "resume_checkpoint"]


def _signature(path: pathlib.Path) -> tuple[int, int, int]:
    """``(st_ino, st_size, st_mtime_ns)``; ``FileNotFoundError`` when
    the file is absent."""
    st = os.stat(path)
    return st.st_ino, st.st_size, st.st_mtime_ns


def resume_checkpoint(
    path: str | pathlib.Path, key: str, params: dict | None = None
) -> dict | None:
    """The merged checkpoint of cell ``key`` to resume from, or ``None``.

    ``None`` means "start from step 0": there is no journal, it has no
    line (a kill between its creation and its first write), or its only
    line is torn.  Everything else that stops a resume raises
    ``ValueError``, since it is a version or integrity problem that must
    fail loudly rather than silently recompute: a schema this code does
    not read, a tear before the final line, or a journal whose ``key``
    (and ``params``, when given) is not this cell's.
    """
    try:
        doc = load_campaign_checkpoint(path)
    except (FileNotFoundError, json.JSONDecodeError):
        return None
    if doc.get("key") != key:
        raise ValueError(
            f"checkpoint key {doc.get('key')!r} does not match {key!r}"
        )
    if params is not None and doc.get("params") != params:
        raise ValueError(f"checkpoint params do not match cell {key!r}")
    return doc


class ResultStore:
    """Content-addressed JSON store for campaign cell results."""

    def __init__(self, root: str | pathlib.Path) -> None:
        self.root = pathlib.Path(root)
        self.cell_dir = self.root / "cells"
        self.checkpoint_dir = self.root / "checkpoints"
        self.lock_dir = self.root / "locks"
        self.cell_dir.mkdir(parents=True, exist_ok=True)
        self._index: dict[str, tuple[tuple[int, int, int], dict]] = {}
        self._manifest: tuple[tuple[int, int, int], dict] | None = None

    def path_for(self, key: str) -> pathlib.Path:
        return self.cell_dir / f"{key}.json"

    def has(self, key: str) -> bool:
        return self.path_for(key).exists()

    def load(self, key: str) -> dict:
        """Load a cell artifact; raises ``FileNotFoundError`` if absent
        and ``ValueError`` on a corrupt/mismatched document.

        One ``os.stat`` per call: an artifact whose signature matches
        the index is served from memory (shared, read-only — see the
        module docstring), anything else is read and re-indexed.
        """
        path = self.path_for(key)
        sig = _signature(path)
        hit = self._index.get(key)
        if hit is not None and hit[0] == sig:
            return hit[1]
        doc = load_campaign_cell(path)
        self._index[key] = (sig, doc)
        return doc

    def save(self, cell: CampaignCell, result: dict) -> pathlib.Path:
        doc = {
            "key": cell.key,
            "kind": cell.kind,
            "label": cell.label,
            "params": cell.params,
            "result": result,
        }
        return save_campaign_cell(doc, self.path_for(cell.key))

    def keys(self) -> list[str]:
        return sorted(p.stem for p in self.cell_dir.glob("*.json"))

    def __len__(self) -> int:
        return len(self.keys())

    # -- per-key advisory locks ---------------------------------------
    @contextlib.contextmanager
    def lock(self, key: str, blocking: bool = True):
        """Advisory per-key lock serializing computation of one cell.

        Any number of processes (workers of one campaign, or entirely
        separate campaigns sharing the store) may race for a key; the
        winner computes while the others block, then find the finished
        artifact when they re-probe under the lock.  Yields ``True``
        when the lock was acquired; with ``blocking=False`` yields
        ``False`` immediately if another holder exists.  On platforms
        without ``fcntl`` the lock degrades to a no-op (atomic writes
        still guarantee artifact integrity, only double-compute
        protection is lost).
        """
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield True
            return
        self.lock_dir.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.lock_dir / f"{key}.lock", os.O_RDWR | os.O_CREAT)
        try:
            flags = fcntl.LOCK_EX | (0 if blocking else fcntl.LOCK_NB)
            try:
                fcntl.flock(fd, flags)
            except OSError:
                yield False
                return
            yield True
        finally:
            os.close(fd)  # closing the fd releases the flock

    # -- per-cell checkpoints -----------------------------------------
    def checkpoint_path(self, key: str) -> pathlib.Path:
        return self.checkpoint_dir / f"{key}.json"

    def checkpoint_keys(self) -> list[str]:
        """Keys with a pending checkpoint — the cells some campaign was
        computing when it died."""
        if not self.checkpoint_dir.is_dir():
            return []
        return sorted(p.stem for p in self.checkpoint_dir.glob("*.json"))

    def load_checkpoint(self, key: str) -> dict | None:
        """A cell's merged resume checkpoint, or ``None`` — see
        :func:`resume_checkpoint`."""
        return resume_checkpoint(self.checkpoint_path(key), key)

    def clear_checkpoint(self, key: str) -> None:
        with contextlib.suppress(FileNotFoundError):
            self.checkpoint_path(key).unlink()

    # -- manifest -----------------------------------------------------
    def write_manifest(self, doc: dict) -> pathlib.Path:
        """Atomically (re)write the campaign manifest — a kill mid-write
        can never leave torn JSON that poisons the next resume.

        A no-op when ``doc`` equals the document this instance last
        wrote and the file still has the signature that write left.
        The instance keeps ``doc`` for that comparison: pass a fresh
        document each call and do not modify it afterwards.
        """
        path = self.root / "manifest.json"
        with contextlib.suppress(FileNotFoundError):
            if self._manifest == (_signature(path), doc):
                return path
        atomic_write_text(path, json.dumps(doc, indent=1))
        self._manifest = (_signature(path), doc)
        return path

    def load_manifest(self) -> dict | None:
        path = self.root / "manifest.json"
        if not path.exists():
            return None
        return json.loads(path.read_text())
