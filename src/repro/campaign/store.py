"""On-disk campaign result store with content-hash caching.

Layout under the store root::

    cells/<key>.json        one artifact per computed cell
    checkpoints/<key>.json  mid-cell resume journal (deleted on success)
    locks/<key>.lock        per-key advisory lock files
    manifest.json           last-run bookkeeping (spec + cell statuses)

Checkpoints are append-only JSONL journals of incremental flushes
(:func:`repro.io.results.append_campaign_checkpoint`): each line holds
only the records/waves tail since the previous flush, so long cells
checkpoint in O(1) bytes per step.  :meth:`load_checkpoint` returns the
merged, self-contained resume document; legacy single-document
checkpoint files read as one-line journals.

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

__all__ = ["ResultStore"]


class ResultStore:
    """Content-addressed JSON store for campaign cell results."""

    def __init__(self, root: str | pathlib.Path) -> None:
        self.root = pathlib.Path(root)
        self.cell_dir = self.root / "cells"
        self.checkpoint_dir = self.root / "checkpoints"
        self.lock_dir = self.root / "locks"
        self.cell_dir.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> pathlib.Path:
        return self.cell_dir / f"{key}.json"

    def has(self, key: str) -> bool:
        return self.path_for(key).exists()

    def load(self, key: str) -> dict:
        """Load a cell artifact; raises ``FileNotFoundError`` if absent
        and ``ValueError`` on a corrupt/mismatched document."""
        return load_campaign_cell(self.path_for(key))

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

    def has_checkpoint(self, key: str) -> bool:
        return self.checkpoint_path(key).exists()

    def checkpoint_keys(self) -> list[str]:
        """Keys with a pending checkpoint — the cells some campaign was
        computing when it died."""
        if not self.checkpoint_dir.is_dir():
            return []
        return sorted(p.stem for p in self.checkpoint_dir.glob("*.json"))

    def load_checkpoint(self, key: str) -> dict | None:
        """Load a cell's resume checkpoint (merged across the journal).

        Returns ``None`` when there is nothing (or nothing readable) to
        resume from — no checkpoint, or a syntactically unreadable
        file/torn final journal line, both of which mean "start from
        step 0".  A checkpoint with the *wrong schema version or key*
        (or a journal torn anywhere but its final line) raises
        ``ValueError``: that is a version/integrity problem that must
        fail loudly rather than silently recompute.
        """
        path = self.checkpoint_path(key)
        try:
            doc = load_campaign_checkpoint(path)
        except FileNotFoundError:
            return None
        except json.JSONDecodeError:
            return None  # unreadable -> disposable, recompute from 0
        if doc.get("key") != key:
            raise ValueError(
                f"checkpoint key {doc.get('key')!r} does not match {key!r}"
            )
        return doc

    def clear_checkpoint(self, key: str) -> None:
        with contextlib.suppress(FileNotFoundError):
            self.checkpoint_path(key).unlink()

    # -- manifest -----------------------------------------------------
    def write_manifest(self, doc: dict) -> pathlib.Path:
        """Atomically (re)write the campaign manifest — a kill mid-write
        can never leave torn JSON that poisons the next resume."""
        return atomic_write_text(
            self.root / "manifest.json", json.dumps(doc, indent=1)
        )

    def load_manifest(self) -> dict | None:
        path = self.root / "manifest.json"
        if not path.exists():
            return None
        return json.loads(path.read_text())
