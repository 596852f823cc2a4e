"""Simulated execution timeline.

The heterogeneous pipeline (paper Algorithms 3 & 4) overlaps
predictor@CPU with solver@GPU.  Because this reproduction executes both
on the host, overlap is *accounted* rather than physically concurrent:
each resource (``"cpu"``, ``"gpu"``, ``"c2c"``, ``"nic"``) is a lane on
a :class:`Timeline`, work is appended with modeled durations, and lane
cursors advance independently.  Synchronization points align lanes, so
the resulting makespan is exactly what a real two-process schedule
would yield under the model.

The timeline is a *streaming aggregator*: it does not retain the
interval list (a million-step run would hold millions of them) but
folds every scheduled interval into per-lane busy totals, per-label
busy/count maps, the running makespan and the exact cpu/gpu overlap
the power model integrates.  All aggregates are accumulated in append
order — which, per lane, is also time order, since cursors are
monotone — so they are bit-identical to what the retained-list
implementation computed.

The overlap fold is the classic two-pointer sweep over the cpu and gpu
lanes, run incrementally: head intervals of the two pending queues are
compared exactly as the offline sweep compares them, and an interval
is retired once the opposite lane has advanced past it.  After each
drain at most one queue is non-empty, so pipeline schedules (which
barrier both lanes every phase) keep O(1) state.  A schedule that
only ever touches one of the two lanes accumulates that lane's queue —
``track_overlap=False`` opts such single-device baselines out (their
cpu/gpu overlap is identically zero).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


@dataclass(frozen=True)
class Interval:
    """One scheduled occupancy of a resource lane."""

    resource: str
    label: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Timeline:
    """Multi-lane schedule with per-resource cursors (streaming)."""

    def __init__(self, track_overlap: bool = True) -> None:
        self.track_overlap = bool(track_overlap)
        self._cursors: dict[str, float] = {}
        self._busy: dict[str, float] = {}
        self._busy_label: dict[str, dict[str, float]] = {}
        self._counts: dict[str, dict[str, int]] = {}
        self._makespan = 0.0
        self._overlap = 0.0
        self._pend_cpu: deque[tuple[float, float]] = deque()
        self._pend_gpu: deque[tuple[float, float]] = deque()

    def now(self, resource: str) -> float:
        return self._cursors.get(resource, 0.0)

    def _drain_overlap(self) -> None:
        """Advance the incremental cpu/gpu two-pointer sweep as far as
        the pending queues allow — the same head comparisons, in the
        same order, as the offline sweep over the full sorted lists."""
        pc, pg = self._pend_cpu, self._pend_gpu
        while pc and pg:
            cs, ce = pc[0]
            gs, ge = pg[0]
            s = max(cs, gs)
            e = min(ce, ge)
            if e > s:
                self._overlap += e - s
            if ce <= ge:
                pc.popleft()
            else:
                pg.popleft()

    def schedule(self, resource: str, label: str, duration: float,
                 not_before: float = 0.0) -> Interval:
        """Append ``duration`` seconds of ``label`` work on ``resource``.

        The work starts at the lane cursor or ``not_before``, whichever
        is later (``not_before`` expresses a dependency on another lane).
        """
        if duration < 0:
            raise ValueError(f"negative duration for {label!r}: {duration}")
        start = max(self._cursors.get(resource, 0.0), not_before)
        end = start + duration
        # fold the interval into the aggregates
        self._busy[resource] = self._busy.get(resource, 0.0) + (end - start)
        by = self._busy_label.setdefault(resource, {})
        by[label] = by.get(label, 0.0) + (end - start)
        cnt = self._counts.setdefault(resource, {})
        cnt[label] = cnt.get(label, 0) + 1
        if end > self._makespan:
            self._makespan = end
        if self.track_overlap:
            if resource == "cpu":
                self._pend_cpu.append((start, end))
                self._drain_overlap()
            elif resource == "gpu":
                self._pend_gpu.append((start, end))
                self._drain_overlap()
        self._cursors[resource] = end
        return Interval(resource, label, start, end)

    def barrier(self, resources: list[str], at_least: float = 0.0) -> float:
        """Align the cursors of ``resources`` to their common maximum.

        Models a process-synchronization point (paper Algorithm 3,
        "process synchronization" lines).  Returns the sync time.
        """
        t = max([self._cursors.get(r, 0.0) for r in resources] + [at_least])
        for r in resources:
            self._cursors[r] = t
        return t

    @property
    def makespan(self) -> float:
        return self._makespan

    def busy_time(self, resource: str) -> float:
        """Total occupied seconds on one lane (intervals never overlap
        within a lane by construction).  An untouched lane returns the
        integer ``0`` — the ``sum`` of no intervals — which golden
        fixtures pin as distinct from ``0.0``."""
        return self._busy.get(resource, 0)

    def busy_time_by_label(self, resource: str) -> dict[str, float]:
        return dict(self._busy_label.get(resource, {}))

    def count(self, resource: str, label: str) -> int:
        """How many intervals of ``label`` ran on ``resource``."""
        return self._counts.get(resource, {}).get(label, 0)

    def utilization(self, resource: str) -> float:
        """Busy fraction of a lane over the full makespan."""
        m = self.makespan
        return self.busy_time(resource) / m if m > 0 else 0.0

    def cpu_gpu_overlap(self) -> float:
        """Exact seconds during which the cpu and gpu lanes were both
        busy — the concurrency the power model charges at throttled
        two-device power.  Includes any still-pending head intervals
        without consuming them."""
        if not self.track_overlap:
            return 0.0
        total = self._overlap
        pc = list(self._pend_cpu)
        pg = list(self._pend_gpu)
        i = j = 0
        while i < len(pc) and j < len(pg):
            s = max(pc[i][0], pg[j][0])
            e = min(pc[i][1], pg[j][1])
            if e > s:
                total += e - s
            if pc[i][1] <= pg[j][1]:
                i += 1
            else:
                j += 1
        return total

    # -- checkpoint/resume --------------------------------------------
    def state_dict(self) -> dict:
        """JSON-able snapshot of the aggregates — O(1) in run length.

        The exact cpu/gpu overlap accumulator and the (bounded) pending
        queues are included, so a resumed run reproduces an
        uninterrupted run's energy numbers bit-for-bit without ever
        retaining the schedule itself.
        """
        return {
            "cursors": dict(self._cursors),
            "busy": dict(self._busy),
            "busy_label": {r: dict(d) for r, d in self._busy_label.items()},
            "counts": {r: dict(d) for r, d in self._counts.items()},
            "makespan": self._makespan,
            "overlap": self._overlap,
            "pend_cpu": [list(t) for t in self._pend_cpu],
            "pend_gpu": [list(t) for t in self._pend_gpu],
        }

    def load_state_dict(self, doc: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place."""
        self._cursors = {str(k): float(v) for k, v in doc["cursors"].items()}
        self._busy = {str(k): float(v) for k, v in doc["busy"].items()}
        self._busy_label = {
            str(r): {str(k): float(v) for k, v in d.items()}
            for r, d in doc["busy_label"].items()
        }
        self._counts = {
            str(r): {str(k): int(v) for k, v in d.items()}
            for r, d in doc["counts"].items()
        }
        self._makespan = float(doc["makespan"])
        self._overlap = float(doc["overlap"])
        self._pend_cpu = deque(
            (float(s), float(e)) for s, e in doc["pend_cpu"]
        )
        self._pend_gpu = deque(
            (float(s), float(e)) for s, e in doc["pend_gpu"]
        )

    @classmethod
    def from_state(cls, doc: dict) -> "Timeline":
        tl = cls()
        tl.load_state_dict(doc)
        return tl

    def validate(self) -> None:
        """Check the aggregate invariants.

        The per-lane no-overlap property is guaranteed by construction
        (cursors are monotone), so without a retained interval list the
        checkable invariants are consistency ones: label totals sum to
        the lane total, busy time fits inside the lane cursor, and the
        overlap never exceeds either lane's busy time.
        """
        tol = 1e-12
        for res, total in self._busy.items():
            if total < -tol:
                raise AssertionError(f"negative busy time on {res!r}")
            label_sum = sum(self._busy_label.get(res, {}).values())
            if abs(label_sum - total) > tol * max(1.0, abs(total)):
                raise AssertionError(
                    f"label totals {label_sum} != lane total {total} on {res!r}"
                )
            if total > self._cursors.get(res, 0.0) + tol:
                raise AssertionError(
                    f"busy time {total} exceeds cursor on {res!r}"
                )
        overlap = self.cpu_gpu_overlap()
        cap = min(
            self._busy.get("cpu", 0.0), self._busy.get("gpu", 0.0)
        )
        if self.track_overlap and overlap > cap + tol:
            raise AssertionError(
                f"cpu/gpu overlap {overlap} exceeds lane busy minimum {cap}"
            )
