"""Preconditioned conjugate gradients (paper Algorithm 1).

One implementation serves both of the paper's solver shapes:

* ``CRS-CG`` / ``EBE-CG`` — one right-hand side;
* ``MCG`` — ``r`` cases solved *fused* in a single iteration loop
  (paper §2.2): the operator is applied to an ``(n, r)`` block, which
  is what lets the EBE kernel amortize its random access (Eq. 9).

Each case carries its own CG scalars; the loop runs until every case
meets ``||r||_2 / ||f||_2 < eps`` and per-case first-crossing
iterations are recorded (these are the paper's "solver iterations per
time step").  A case whose relative residual turns NaN or infinite is
closed at that iteration with ``converged`` False: nothing can mend it,
and its fused neighbours must not spin to ``max_iter`` behind it.

The loop body is allocation-free: all ``(n, r)`` working blocks live
in a :class:`PCGWorkspace` (reusable across solves — the campaign
runner and the pipeline hold one per case set), and the per-iteration
vector updates run in place.  The operator and the preconditioner
write into those blocks themselves: the loop calls
``A.matvec(V, out=)`` and ``precond.apply(R, out=)`` directly, so
every operator of the package — EBE, block CRS, distributed,
block-Jacobi — takes ``out=``, and nothing here inspects a
signature or wraps a bare matrix.

Every vector operation in the loop routes through the
:class:`~repro.sparse.backend.ArrayBackend` seam, which is
bit-identical to the historical solver (golden-pinned) — the same
roundings in the same order, no longer the same call sequence: it
picks its kernels by the operand's shape.

Each kernel of an iteration is one seam call deep: the operator and the
preconditioner take a ready ``(n, r)`` block straight to a charge
priced once per width and their primitive, the column updates and the
norm are one seam call each, the scalar guards and the crossing test
are C-level counts, and an fp64 solve makes no store call at all.  On
small solves the interpreter, not the kernels, set the pace.  Warm
solves, single-threaded BLAS on a shared 2-vCPU x86 host, medians of
six alternating timings against the previous loop (best of 9x20
solves each): a ``(2, 2, 1)`` r = 1 CRS iteration (225 dofs,
``endurance-225``'s shape) went from 38.0 to 30.6 us, the ``(3, 3, 2)``
one (735 dofs) from 65.6 to 58.7 us and a grouped ``(6, 6, 3)`` r = 4
EBE one from 382 to 361 us; ``benchmarks/test_campaign_throughput.py``
puts the first two's kernels, called bare, at 22-24 and 49-54 us.
cProfile counts 44.5 calls per iteration where it counted 79, and 63
where 114.  End to end, ten alternating pairs of ``endurance-225``
read ``case_steps_per_s`` 697 -> 840 in the median (1.21x, every pair
faster): short of the 1.25x aimed at.

The *modeled* vector traffic is charged here, outside the seam, so the
roofline tally does not depend on how the primitives execute: once per
solve, after the loop, as ``loop_iterations`` calls of the
per-iteration cost — to the last bit what charging it every iteration
gave (see :mod:`repro.util.counters`).

Transprecision storage (``precision=``): the CG *recurrences* — dot
products, the scalar dance, the solution update — always run at fp64,
but the working vectors ``r, z, p, q`` are rounded to the storage
format on every store (the group's FP32/FP21 trick) via the backend's
``quantize_store`` primitive, and the modeled vector traffic is
charged at the storage itemsize.  Under the default ``fp64`` policy
every quantization is a no-op and the solve is bit-identical to the
historical fp64-only implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparse.backend import ArrayBackend, as_backend, count_nonzero
from repro.sparse.precision import Precision, as_precision
from repro.sparse.traffic import cg_vector_traffic
from repro.util import counters

__all__ = ["CGResult", "PCGWorkspace", "pcg"]


@dataclass
class CGResult:
    """Outcome of one (multi-)CG solve."""

    x: np.ndarray
    iterations: np.ndarray
    loop_iterations: int
    converged: np.ndarray
    initial_relres: np.ndarray
    final_relres: np.ndarray
    residual_history: np.ndarray | None = None

    @property
    def mean_iterations(self) -> float:
        return float(np.mean(self.iterations))


class PCGWorkspace:
    """Preallocated ``(n, r)`` blocks for :func:`pcg`.

    One instance serves any sequence of solves; buffers are
    (re)allocated only when the problem shape changes.  Holding one
    across time steps keeps the steady-state solver loop free of heap
    traffic.
    """

    __slots__ = ("n", "r", "R", "Z", "P", "Q", "T",
                 "rho", "rho_prev", "alpha", "beta", "relres", "work")

    def __init__(self) -> None:
        self.n = self.r = -1

    def ensure(self, n: int, r: int,
               backend: ArrayBackend | None = None) -> None:
        if (self.n, self.r) == (n, r):
            return
        self.n, self.r = n, r
        bk = as_backend(backend)
        for name in ("R", "Z", "P", "Q", "T"):
            setattr(self, name, bk.empty((n, r)))
        for name in ("rho", "rho_prev", "alpha", "beta", "relres", "work"):
            setattr(self, name, np.empty(r))


def _as_block(v: np.ndarray | None, n: int, r: int) -> np.ndarray:
    if v is None:
        return np.zeros((n, r))
    v = np.array(v, dtype=np.float64, order="C")  # a copy, whatever the layout
    if v.ndim == 1:
        v = v[:, None]
    if v.shape != (n, r):
        raise ValueError(f"expected shape {(n, r)}, got {v.shape}")
    return v


def _guarded_divide(num: np.ndarray, den: np.ndarray, out: np.ndarray,
                    done: np.ndarray | None) -> np.ndarray:
    """``out = num / den`` columnwise with the CG scalar guard:
    zero denominators (converged or zero columns would produce
    0/0 -> NaN and poison the block update) and already-closed
    columns (``done``; ``None`` while every column is open) are frozen
    at 0.  Mutates ``den`` (a scratch buffer)."""
    if count_nonzero(den) < den.size:
        den[den == 0.0] = 1.0
    np.divide(num, den, out)
    if done is not None:
        out[done] = 0.0
    return out


def _mark_crossings(relres: np.ndarray, eps: float, done: np.ndarray,
                    converged: np.ndarray, iterations: np.ndarray,
                    loop_it: int) -> int:
    """Close the open columns whose relative residual met the tolerance
    at iteration ``loop_it`` (their first crossing: ``converged``) or
    is not finite — a NaN or overflowed case no further iteration can
    mend, closed at once with ``converged`` False instead of spinning
    the fused loop to ``max_iter``.  Closed columns stay closed.
    Returns how many it closed."""
    met = relres < eps
    if not count_nonzero(met) and not count_nonzero(relres - relres):
        return 0  # the common case: all open, all finite (inf - inf is NaN)
    closing = ~done
    closing &= met | ~np.isfinite(relres)
    iterations[closing] = loop_it
    converged |= closing & met
    done |= closing
    return count_nonzero(closing)


def _charge_vec_iters(n: int, r: int, prec: Precision, iters: int) -> None:
    """Modeled vector traffic of ``iters`` iterations, charged as that
    many calls."""
    if iters:
        w = cg_vector_traffic(n, prec.itemsize)
        counters.charge("cg.vec", w.flops * r, w.bytes * r, calls=iters)


def pcg(
    A,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    precond=None,
    eps: float = 1e-8,
    max_iter: int = 10_000,
    record_history: bool = False,
    workspace: PCGWorkspace | None = None,
    reduction=None,
    precision: Precision | str | None = None,
    backend: ArrayBackend | None = None,
) -> CGResult:
    """Solve ``A x = b`` (column-wise for block ``b``) by preconditioned CG.

    Parameters
    ----------
    A : operator with ``matvec(V, out=)`` writing ``A V`` for an
        ``(n, r)`` block into the C-contiguous ``(n, r)`` ``out`` — the
        only way it is called (bare matrices are not operators: wrap
        one in an object with that method).  One on the stacked
        part-local layout of a partitioned solve
        (:class:`~repro.sparse.distributed.PartLocalOperator`) names
        its slice lengths in ``row_extents``: the modeled vector
        traffic is then charged once per slice, as each rank would.
    b : ``(n,)`` or ``(n, r)`` right-hand side(s).
    x0 : optional initial guess(es), same shape as ``b``.
    precond : optional preconditioner with ``apply(R, out=)`` writing
        ``M R`` into ``out`` (same contract as ``A.matvec``); identity
        when omitted.
    eps : relative tolerance on ``||r||/||b||`` (paper uses 1e-8).
    record_history : keep the per-iteration relative residuals
        (used by the Fig. 3 reproduction).
    workspace : reusable :class:`PCGWorkspace`; pass the same instance
        across solves of one case set to keep the loop allocation-free.
    reduction : optional dot-product strategy with
        ``dot(V, W, out)`` / ``norm(V, out)``; defaults to one fused
        sweep over all rows.  The part-local solve is this loop on
        the stacked layout (every update and store is elementwise, so
        one call there rounds as one call per part would) with a
        :class:`~repro.sparse.distributed.PartitionedReduction` over
        each part's *owned* rows here; the fused global reference
        takes the same class over the owned *global* dofs and so sums
        in the same (deterministic, canonical part order) grouping —
        the basis of the bit-identity guarantee.
    precision : storage policy (:class:`~repro.sparse.precision.Precision`
        or name) for the working vectors ``r, z, p, q``: each store is
        rounded to the format and the per-iteration vector traffic is
        charged at its itemsize.  ``None``/``"fp64"`` (default) is a
        no-op — the solve is bit-identical to the fp64-only solver.
        The right-hand side, the solution and all CG scalars stay fp64
        (the FP64-accurate outer loop).
    backend : an :class:`~repro.sparse.backend.ArrayBackend` to run the
        vector primitives on (a test's counting or regrouping
        subclass); ``None`` is the shared instance.
    """
    bk = as_backend(backend)
    prec = as_precision(precision)
    lossy = not prec.is_fp64  # fp64 stores are no-ops, so none is made
    b = np.asarray(b, dtype=float)
    single = b.ndim == 1
    B = b[:, None] if single else b
    n, r = B.shape
    X = _as_block(x0, n, r)

    ws = workspace if workspace is not None else PCGWorkspace()
    ws.ensure(n, r, backend=bk)
    R, Z, P, Q, T = ws.R, ws.Z, ws.P, ws.Q, ws.T
    rho, rho_prev, alpha, beta = ws.rho, ws.rho_prev, ws.alpha, ws.beta
    relres, work = ws.relres, ws.work

    if reduction is None:  # one contiguous sweep over all rows
        dot, norm = bk.colwise_dot, bk.colwise_norm
        norm_b = np.sqrt(np.add.reduce(B * B, axis=0))  # np.linalg.norm's sums
    else:
        dot, norm = reduction.dot, reduction.norm
        norm_b = norm(B, out=np.empty(r))
    # Zero RHS: solution 0, converged immediately (relative test is
    # ill-defined; the paper's problems always have nonzero f after the
    # first impulse, but robustness demands the guard).
    zero_rhs = norm_b == 0.0
    denom = norm_b
    if count_nonzero(zero_rhs):
        denom[zero_rhs] = 1.0

    A.matvec(X, out=R)
    bk.subtract(B, R, out=R)
    if lossy:
        bk.quantize_store(R, prec)
    norm(R, out=relres)
    relres /= denom
    initial_relres = relres.copy()
    history = [relres.copy()] if record_history else None

    iterations = np.zeros(r, dtype=np.int64)
    done, converged = zero_rhs, zero_rhs.copy()
    n_open = r - count_nonzero(done)  # kept in step with ``done``
    n_open -= _mark_crossings(relres, eps, done, converged, iterations, 0)

    bk.fill(P, 0.0)
    rho_prev.fill(1.0)
    loop_it = 0

    while n_open and loop_it < max_iter:
        loop_it += 1
        frozen = done if n_open < r else None
        if precond is None:  # identity
            bk.copy(Z, R)
        else:
            precond.apply(R, out=Z)
        if lossy:
            bk.quantize_store(Z, prec)
        dot(Z, R, out=rho)
        # beta = rho/rho_prev; closed/zero columns frozen at 0
        # (rho_prev is spent after this: the divide may use it up).
        _guarded_divide(rho, rho_prev, beta, frozen)
        if loop_it == 1:
            beta.fill(0.0)
        bk.xpay_cols(P, beta, Z)
        if lossy:
            bk.quantize_store(P, prec)
        A.matvec(P, out=Q)
        if lossy:
            bk.quantize_store(Q, prec)
        dot(P, Q, out=work)
        _guarded_divide(rho, work, alpha, frozen)
        bk.axpy_cols(X, alpha, P, T)
        bk.axmy_cols(R, alpha, Q, T)
        if lossy:
            bk.quantize_store(R, prec)
        rho, rho_prev = rho_prev, rho  # next dot overwrites the old one

        norm(R, out=relres)
        relres /= denom
        if record_history:
            history.append(relres.copy())
        n_open -= _mark_crossings(relres, eps, done, converged, iterations,
                                  loop_it)

    # one charge per part's rows on a stacked part-local layout
    for rows in getattr(A, "row_extents", (n,)):
        _charge_vec_iters(rows, r, prec, loop_it)
    if n_open:
        iterations[~done] = loop_it  # still-open cases report the cap
    return CGResult(
        x=X[:, 0] if single else X,
        iterations=iterations,
        loop_iterations=loop_it,
        converged=converged,
        initial_relres=initial_relres,
        final_relres=relres.copy(),
        residual_history=np.asarray(history) if record_history else None,
    )
