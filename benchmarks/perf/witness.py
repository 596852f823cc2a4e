"""In-process witness kernels: a fixed stream triad and a small dgemm.

Their cost does not depend on the code under test, so a change in
their readings between the start and the end of a run means the
machine changed under the run (another tenant, frequency), not the
program — the witness-channel idea of arXiv:2206.05785 applied to
benchmark noise.  The arrays are allocated once and kept for the life
of the process, so they are a constant offset in ``peak_rss_mb``.

Sizes: the triad streams three 4 MiB arrays eight times (larger than
the 4 MiB L2 of the reference box, inside its 260 MiB shared L3 — a
noise witness, not a memory-bandwidth measurement); the dgemm is
640x640x640.  Each takes several milliseconds and a reading is the
best of ``_REPS``: shorter kernels read +-15% on an idle shared box.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["Witness", "DRIFT_LIMIT"]

#: A run whose before/after witness readings differ by more than this
#: share is marked invalid.
DRIFT_LIMIT = 0.10

_TRIAD_N = 1 << 19
_TRIAD_PASSES = 8
_GEMM_N = 640
_REPS = 15


def _best_ms(fn) -> float:
    best = float("inf")
    for _ in range(_REPS):
        t0 = time.perf_counter_ns()
        fn()
        best = min(best, time.perf_counter_ns() - t0)
    return best / 1e6


class Witness:
    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._a = np.empty(_TRIAD_N)
        self._b = rng.standard_normal(_TRIAD_N)
        self._c = rng.standard_normal(_TRIAD_N)
        self._m = rng.standard_normal((_GEMM_N, _GEMM_N))
        self._n = rng.standard_normal((_GEMM_N, _GEMM_N))
        self._out = np.empty((_GEMM_N, _GEMM_N))

    def _triad(self) -> None:
        for _ in range(_TRIAD_PASSES):
            np.multiply(self._c, 3.0, out=self._a)
            np.add(self._a, self._b, out=self._a)

    def _dgemm(self) -> None:
        np.matmul(self._m, self._n, out=self._out)

    def read(self) -> dict[str, float]:
        """Best-of-``_REPS`` milliseconds of each kernel."""
        return {"triad_ms": _best_ms(self._triad), "dgemm_ms": _best_ms(self._dgemm)}


def drift(before: dict[str, float], after: dict[str, float]) -> float:
    """Largest relative change between two readings."""
    return max(
        abs(after[k] - before[k]) / min(after[k], before[k]) for k in before
    )
