"""FLOP / byte instrumentation.

The reproduction executes every kernel numerically (NumPy) but charges
its *algorithmic* work — floating point operations and bytes moved
to/from main memory — to a :class:`KernelTally`.  The hardware roofline
model turns those tallies into modeled time on a given device, which is
how the paper's Tables 2-4 are regenerated without GH200 hardware.

Counts follow the conventions of the paper's kernels:

* block-CRS SpMV: ``2 * 9 * nnzb`` flops; bytes = matrix blocks +
  column indices + row pointers + input/output vectors.
* EBE SpMV (Eq. 8): ``2 * 30 * 30 * ne`` flops per right-hand side;
  bytes = element matrices are *recomputed*, so traffic is the gathered
  nodal vectors + scatter of results + element geometry.

A kernel that ran ``k`` times at one cost ``w`` is charged once with
``calls=k`` (the CG loop's vector traffic, after the loop): ``w`` is a
multiple of 1/8 far below 2^53 at every storage width, so ``k * w`` is
exactly ``w`` added ``k`` times.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterator


@dataclass
class KernelRecord:
    """Accumulated work for one named kernel."""

    flops: float = 0.0
    bytes: float = 0.0
    calls: int = 0

    def add(self, flops: float, bytes_: float, calls: int = 1) -> None:
        self.flops += float(flops) * calls
        self.bytes += float(bytes_) * calls
        self.calls += calls

    def merged(self, other: "KernelRecord") -> "KernelRecord":
        return KernelRecord(
            flops=self.flops + other.flops,
            bytes=self.bytes + other.bytes,
            calls=self.calls + other.calls,
        )


@dataclass
class KernelTally:
    """Per-kernel work ledger.

    A tally is hierarchical in spirit but flat in storage: kernels are
    keyed by a string tag (``"spmv.ebe4"``, ``"cg.axpy"``, ...) and the
    caller decides the naming scheme.
    """

    records: dict[str, KernelRecord] = field(default_factory=lambda: defaultdict(KernelRecord))

    def charge(self, tag: str, flops: float, bytes_: float,
               calls: int = 1) -> None:
        """Charge ``calls`` invocations of ``flops``/``bytes_`` each to
        kernel ``tag``."""
        if flops < 0 or bytes_ < 0 or calls < 0:
            raise ValueError("work must be non-negative")
        self.records[tag].add(flops, bytes_, calls)

    def total_flops(self, prefix: str = "") -> float:
        return sum(r.flops for t, r in self.records.items() if t.startswith(prefix))

    def total_bytes(self, prefix: str = "") -> float:
        return sum(r.bytes for t, r in self.records.items() if t.startswith(prefix))

    def calls(self, tag: str) -> int:
        return self.records[tag].calls if tag in self.records else 0

    def merge(self, other: "KernelTally") -> None:
        for tag, rec in other.records.items():
            self.records[tag] = self.records[tag].merged(rec)

    def reset(self) -> None:
        self.records.clear()

    def snapshot(self) -> dict[str, KernelRecord]:
        return {t: KernelRecord(r.flops, r.bytes, r.calls) for t, r in self.records.items()}

    def diff(self, before: dict[str, KernelRecord]) -> "KernelTally":
        """Tally of the work performed since ``before`` was snapshotted."""
        out = KernelTally()
        for tag, rec in self.records.items():
            prev = before.get(tag, KernelRecord())
            d_flops = rec.flops - prev.flops
            d_bytes = rec.bytes - prev.bytes
            d_calls = rec.calls - prev.calls
            if d_calls or d_flops or d_bytes:
                out.records[tag] = KernelRecord(d_flops, d_bytes, d_calls)
        return out


_ACTIVE: list[KernelTally] = []


def active_tally() -> KernelTally | None:
    """The innermost tally opened by :func:`tally_scope`, if any."""
    return _ACTIVE[-1] if _ACTIVE else None


def charge(tag: str, flops: float, bytes_: float, calls: int = 1) -> None:
    """Charge work to the active tally (no-op when none is active)."""
    if _ACTIVE:
        _ACTIVE[-1].charge(tag, flops, bytes_, calls)


@contextlib.contextmanager
def tally_scope(tally: KernelTally | None = None) -> Iterator[KernelTally]:
    """Route :func:`charge` calls to ``tally`` for the duration of the scope."""
    t = tally if tally is not None else KernelTally()
    _ACTIVE.append(t)
    try:
        yield t
    finally:
        _ACTIVE.pop()
