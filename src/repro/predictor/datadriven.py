"""Data-driven initial-solution predictor (paper §3.2, method of [6]).

The Adams-Bashforth extrapolation captures low-order temporal modes;
what remains — the *correction* ``d_it = u_it - u_bar(AB)_it`` — is
estimated from history by orthogonal decomposition:

* keep the corrections (and forces — Eq. 3's ``X_it`` and ``F_it``)
  of the last ``s+1`` completed steps;
* form input/output pairs ``x_k = [d_k ; w f_{k+1}]``,
  ``y_k = d_{k+1}`` (``w`` balances force and correction scales; the
  force block captures the exactly-linear forced response, the
  correction block the free-vibration modes);
* per spatial subdomain, orthonormalize ``X = [x_1 .. x_s]``,
  ``P = X U`` (``U`` upper triangular);
* for the new input ``x = [d_{it-1} ; w f_it]`` estimate
  ``y = Y U c`` with ``c = P^T x``  (i.e. ``y = Y U U^T X^T x``).

The paper orthonormalizes by modified Gram-Schmidt on the CPU; the
estimate is the same for any orthogonal factorisation, and on the host
it is a Householder QR — one stacked LAPACK call for all subdomains,
behind the array-backend seam
(:meth:`repro.sparse.backend.ArrayBackend.qr_estimate`).

The subdomain split (the paper's "divides the target region into small
regions") keeps the estimate local and communication-free; here
subdomains are equal contiguous dof chunks so the whole batch of
factorisations is one call.  The history lives in one preallocated
ring in that region layout, so assembling a step's regression inputs
is a fixed number of block copies whatever ``s`` is.
"""

from __future__ import annotations

import numpy as np

from repro.predictor.adams_bashforth import AdamsBashforth
from repro.predictor.registry import Predictor, register_predictor
from repro.sparse.backend import as_backend
from repro.util import counters

__all__ = ["DataDrivenPredictor", "mgs_estimate"]


def mgs_estimate(Z: np.ndarray, Y: np.ndarray, rtol: float = 1e-12) -> np.ndarray:
    """Batched history estimate ``y = Y U U^T X^T x`` per region.

    Named for the paper's kernel (MGS on the CPU); the host executes it
    as the array seam's orthogonal factorisation, Householder QR, on the
    shared instance (predictors carry no backend of their own).

    Parameters
    ----------
    Z : (nreg, m_in, s + 1) ``[X | x]`` per region: the input history
        ``X`` as the first ``s`` columns (``m_in`` may differ from the
        output length, e.g. correction rows stacked with force rows),
        the new input ``x`` as the last.
    Y : (nreg, m_out, s) output history per region.
    rtol : columns whose residual norm falls below ``rtol`` times the
        largest column norm are treated as linearly dependent and
        dropped (their coefficient is zeroed).

    Returns
    -------
    y : (nreg, m_out) estimated outputs.
    """
    return as_backend().qr_estimate(Z, Y, rtol)


@register_predictor
class DataDrivenPredictor(Predictor):
    """The paper's data-driven predictor with adjustable history ``s``.

    Wraps an :class:`AdamsBashforth` extrapolator and adds the
    correction estimate once enough history has accumulated.  Until
    then it behaves exactly like Adams-Bashforth, mirroring the paper's
    warm-up (the refinement solver guarantees accuracy throughout).

    Parameters
    ----------
    n : scalar dof count.
    dt : time step.
    s_max : maximum stored history pairs (paper: 32 on the 480 GB
        single-GH200 node, 11 on the 128 GB Alps node).
    n_regions : number of spatial subdomains (contiguous dof chunks).
    s : initial number of history pairs used (defaults to ``s_max``;
        the adaptive controller may change :attr:`s` every step).
    """

    name = "data-driven"
    description = (
        "Adams-Bashforth + per-subdomain least-squares correction "
        "estimate from history (the paper's Eq. 3) — the heterogeneous "
        "pipeline's native predictor"
    )

    @classmethod
    def build(cls, n, dt, *, s_min=8, s_max=32, n_regions=16):
        """The exact construction :func:`repro.core.methods.run_method`
        has always used for the heterogeneous sets: start at ``s_min``
        (the adaptive controller earns more), cap at ``s_max``."""
        return cls(n, dt, s_max=s_max, n_regions=n_regions, s=s_min)

    def __init__(
        self,
        n: int,
        dt: float,
        s_max: int = 32,
        n_regions: int = 8,
        s: int | None = None,
        tag: str = "predictor.mgs",
    ) -> None:
        if s_max < 1:
            raise ValueError("s_max must be >= 1")
        if n_regions < 1:
            raise ValueError("n_regions must be >= 1")
        self.n = int(n)
        self.dt = float(dt)
        self.s_max = int(s_max)
        # Guard against overfitting: each region must have several
        # times more rows than the widest basis it may be asked to fit,
        # otherwise the least-squares estimate extrapolates wildly.
        max_regions = max(1, int(n) // (4 * self.s_max))
        self.n_regions = int(min(n_regions, max_regions))
        self.s = int(s if s is not None else s_max)
        self.tag = tag
        self.ab = AdamsBashforth(n, dt)
        self._last_ab: np.ndarray | None = None

        m = -(-self.n // self.n_regions)  # ceil
        self._region_len = m
        # corrections d_k = u_k - u_bar(AB)_k (block 0) of the last
        # s_max+1 steps with the force f_k that produced each (block 1,
        # Eq. 3's F_it store): a ring of region-layout columns, zero
        # beyond dof n so a column reshapes to (n_regions, m)
        self._hist = np.zeros((2, self.s_max + 1, m * self.n_regions))
        self._norm = np.zeros((2, self.s_max + 1))  # 2-norm of each column
        self._head = 0  # ring column the next observation goes to
        self._count = 0  # columns stored

    # -- configuration -------------------------------------------------
    @property
    def s_effective(self) -> int:
        """History pairs actually usable right now."""
        return max(0, min(self.s, self._count - 1))

    def set_s(self, s: int) -> None:
        self.s = int(np.clip(s, 1, self.s_max))

    def memory_bytes(self) -> int:
        """CPU-side training-data footprint (the paper's ``n x s``
        stores of both responses and forces)."""
        return 8 * self.n * 2 * self._count + self.ab.memory_bytes()

    def state_dict(self) -> dict:
        """JSON-able snapshot of everything :meth:`predict` reads:
        the current ``s``, the AB extrapolator, the correction/force
        history (oldest first) and the pending ``_last_ab``
        (non-``None`` between a ``predict`` and its ``observe`` —
        exactly the situation of the trailing process set at a pipeline
        checkpoint boundary)."""
        spans = self._spans(self._count)
        corr, force = (
            [col[: self.n].copy() for _, src in spans for col in block[src]]
            for block in self._hist
        )
        return {
            "s": self.s,
            "ab": self.ab.state_dict(),
            "corr": corr,
            "force": force,
            "last_ab": self._last_ab,
        }

    def load_state_dict(self, doc: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place."""
        corr = [np.asarray(d, dtype=float) for d in doc["corr"]]
        force = [np.asarray(f, dtype=float) for f in doc["force"]]
        last = doc.get("last_ab")
        last = None if last is None else np.asarray(last, dtype=float)
        if len(corr) != len(force):
            raise ValueError("state has unequal correction and force histories")
        vectors = corr + force + ([] if last is None else [last])
        if any(v.shape != (self.n,) for v in vectors):
            raise ValueError(
                f"state size mismatch: history vectors must have shape ({self.n},)"
            )
        self.s = int(np.clip(int(doc["s"]), 1, self.s_max))
        self.ab.load_state_dict(doc["ab"])
        self._head = self._count = 0
        cap = self.s_max + 1
        for d, f in zip(corr[-cap:], force[-cap:]):
            self._append(d, f)
        self._last_ab = last

    # -- history ring --------------------------------------------------
    def _append(self, d: np.ndarray, f: np.ndarray | None) -> None:
        """Store one step's correction and force in the ring column at
        ``_head``, over the oldest once the ring is full."""
        k = self._head
        col = self._hist[:, k]
        col[0, : self.n] = d
        col[1, : self.n] = 0.0 if f is None else f
        np.sqrt(np.einsum("bn,bn->b", col, col), out=self._norm[:, k])
        self._head = (k + 1) % (self.s_max + 1)
        self._count = min(self._count + 1, self.s_max + 1)

    def _spans(self, count: int) -> list[tuple[slice, slice]]:
        """``(dst, src)`` slices that lay the newest ``count`` ring
        columns out oldest first: one pair, two when they wrap."""
        cap = self.s_max + 1
        start = (self._head - count) % cap
        first = min(count, cap - start)
        spans = [(slice(0, first), slice(start, start + first))]
        if first < count:
            spans.append((slice(first, count), slice(0, count - first)))
        return spans

    # -- prediction ----------------------------------------------------
    def predict(self, f_next: np.ndarray | None = None) -> np.ndarray:
        """Initial guess for the upcoming step (Eq. 3).

        ``f_next`` is the external force of the step being predicted;
        when provided (and the stored force history is not identically
        zero), the regression input is the stacked
        ``[d_{it-1} ; w f_it]`` so forced response is captured too.
        """
        u_ab = self.ab.predict()
        self._last_ab = u_ab.copy()
        s = self.s_effective
        if s < 1:
            return u_ab

        # the newest s+1 columns, oldest first, are d_{it-s-1} .. d_{it-1};
        # force f_k is paired with output d_k, so the force block uses
        # the newest s
        nreg, m = self.n_regions, self._region_len
        spans = self._spans(s + 1)
        norm = np.concatenate([self._norm[:, src] for _, src in spans], axis=1)
        scale_d = float(np.mean(norm[0, :-1]))
        scale_f = float(np.mean(norm[1, 1:]))
        use_force = scale_f > 0.0 and scale_d > 0.0
        rows = 2 if use_force else 1

        # W[r, j] = [d_{it-s-1+j} ; w_f f_{it-s+j}] of region r: inputs X
        # are columns 0..s-1, outputs Y the correction rows of columns
        # 1..s, the new input x is column s with w_f f_it.  Region-major
        # with each column contiguous, [X | x] is a view the QR factors
        # as it is, so a step stacks its history once
        W = np.empty((nreg, s + 1, rows, m))
        for dst, src in spans:
            W[:, dst, 0] = self._hist[0, src].reshape(-1, nreg, m).transpose(1, 0, 2)
        if use_force:
            w_f = scale_d / scale_f
            for dst, src in self._spans(s):
                np.multiply(
                    self._hist[1, src].reshape(-1, nreg, m).transpose(1, 0, 2), w_f,
                    out=W[:, dst, 1],
                )
            f_in = np.zeros(nreg * m)
            if f_next is not None:
                f_in[: self.n] = f_next
            np.multiply(f_in.reshape(nreg, m), w_f, out=W[:, s, 1])
        yr = mgs_estimate(
            W.reshape(nreg, s + 1, rows * m).transpose(0, 2, 1),
            W[:, 1:, 0].transpose(0, 2, 1),
        )
        d_hat = yr.reshape(-1)[: self.n]

        # the paper's MGS kernel, as modeled on GH200 (not what the host
        # ran): ~2ns^2 (factorization) + 4ns (projection/estimate);
        # streaming X (and F) and Y once plus the new input/output.
        counters.charge(
            self.tag,
            2.0 * rows * self.n * s * s + 4.0 * rows * self.n * s,
            8.0 * self.n * ((1 + rows) * s + 2),
        )
        return u_ab + d_hat

    def observe(self, u: np.ndarray, v: np.ndarray, f: np.ndarray | None = None) -> None:
        """Record the refined solution (and its force) for the
        completed step."""
        if self._last_ab is None:
            # First step: AB predicted from empty history (zeros).
            self._last_ab = np.zeros(self.n)
        self._append(u - self._last_ab, f)
        self.ab.observe(u, v)
        self._last_ab = None
