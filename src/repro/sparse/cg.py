"""Preconditioned conjugate gradients (paper Algorithm 1).

One implementation serves both of the paper's solver shapes:

* ``CRS-CG`` / ``EBE-CG`` — one right-hand side;
* ``MCG`` — ``r`` cases solved *fused* in a single iteration loop
  (paper §2.2): the operator is applied to an ``(n, r)`` block, which
  is what lets the EBE kernel amortize its random access (Eq. 9).

Each case carries its own CG scalars; the loop runs until every case
meets ``||r||_2 / ||f||_2 < eps`` and per-case first-crossing
iterations are recorded (these are the paper's "solver iterations per
time step").

The loop body is allocation-free: all ``(n, r)`` working blocks live
in a :class:`PCGWorkspace` (reusable across solves — the campaign
runner and the pipeline hold one per case set), operators that accept
``out=`` write into them directly, and the per-iteration vector
updates run in place.

Every vector operation in the loop routes through an
:class:`~repro.sparse.backend.ArrayBackend` (``backend=``): the
``numpy`` default is bit-identical to the historical solver
(golden-pinned) — the same roundings in the same order, no longer the
same call sequence: it picks its kernels by the operand's shape — and
accelerated backends swap the execution engine without touching the
algorithm.  The *modeled* vector traffic is charged here, outside the
seam, so the roofline tally is identical for every backend: once per
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

import functools
import inspect
from dataclasses import dataclass

import numpy as np

from repro.sparse.backend import ArrayBackend, as_backend
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
    (re)allocated only when the problem shape (or the owning backend)
    changes.  Holding one across time steps keeps the steady-state
    solver loop free of heap traffic.
    """

    __slots__ = ("n", "r", "backend_name", "R", "Z", "P", "Q", "T",
                 "rho", "rho_prev", "alpha", "beta", "relres", "work")

    def __init__(self) -> None:
        self.n = self.r = -1
        self.backend_name = ""

    def ensure(self, n: int, r: int,
               backend: "ArrayBackend | None" = None) -> None:
        bk = as_backend("numpy") if backend is None else backend
        if (self.n, self.r, self.backend_name) == (n, r, bk.name):
            return
        self.n, self.r, self.backend_name = n, r, bk.name
        for name in ("R", "Z", "P", "Q", "T"):
            setattr(self, name, bk.empty((n, r)))
        # CG scalars stay host-side fp64 regardless of backend
        for name in ("rho", "rho_prev", "alpha", "beta", "relres", "work"):
            setattr(self, name, np.empty(r))


def _as_block(v: np.ndarray | None, n: int, r: int) -> np.ndarray:
    if v is None:
        return np.zeros((n, r))
    v = np.asarray(v, dtype=float)
    if v.ndim == 1:
        v = v[:, None]
    if v.shape != (n, r):
        raise ValueError(f"expected shape {(n, r)}, got {v.shape}")
    return v.copy()  # C-order copy regardless of input layout


@functools.lru_cache(maxsize=256)
def _accepts_out(fn) -> bool:
    """Whether ``fn`` takes ``out=`` (by name, or through ``**kwargs``)."""
    params = inspect.signature(fn).parameters.values()
    return any(p.name == "out" or p.kind is p.VAR_KEYWORD for p in params)


def _make_apply(op, method_name: str):
    """Wrap an operator into ``apply(V, out) -> out``.

    Prefers the operator's own ``out=`` support, decided from its
    signature, never by trial; operators without it, and plain
    matrices, go through ``np.copyto``.  Whatever the operator body
    raises propagates — it is never run a second time.
    """
    bound = getattr(op, method_name, None)
    if bound is None:  # plain ndarray / anything supporting @
        def apply(V: np.ndarray, out: np.ndarray) -> np.ndarray:
            try:
                np.matmul(op, V, out=out)
            except TypeError:
                np.copyto(out, op @ V)
            return out

        return apply

    if _accepts_out(getattr(bound, "__func__", bound)):
        def apply(V: np.ndarray, out: np.ndarray) -> np.ndarray:
            bound(V, out=out)
            return out
    else:
        def apply(V: np.ndarray, out: np.ndarray) -> np.ndarray:
            np.copyto(out, bound(V))
            return out

    return apply


def _guarded_divide(num: np.ndarray, den: np.ndarray, out: np.ndarray,
                    done: np.ndarray | None) -> np.ndarray:
    """``out = num / den`` columnwise with the CG scalar guard:
    zero denominators (converged or zero columns would produce
    0/0 -> NaN and poison the block update) and already-converged
    columns (``done``; ``None`` while every column is open) are frozen
    at 0.  Mutates ``den`` (a scratch buffer)."""
    if not den.all():
        den[den == 0.0] = 1.0
    np.divide(num, den, out=out)
    if done is not None:
        out[done] = 0.0
    return out


def _mark_crossings(relres: np.ndarray, eps: float, done: np.ndarray,
                    iterations: np.ndarray, loop_it: int) -> int:
    """Close the columns that met the tolerance at iteration
    ``loop_it`` (their first crossing; closed columns stay closed).
    Returns how many it closed."""
    newly = relres < eps
    if not newly.any():
        return 0
    newly &= ~done
    iterations[newly] = loop_it
    done |= newly
    return int(newly.sum())


def _store_fn(bk: ArrayBackend, prec: Precision):
    """``store(a)``, resolved once per solve: round a working block to
    the storage format in place — nothing at all under fp64."""
    if prec.is_fp64:
        return lambda a: a
    return lambda a: bk.quantize_store(a, prec)


def _charge_vec_iters(n: int, r: int, prec: Precision, iters: int) -> None:
    """Modeled vector traffic of ``iters`` iterations, charged as that
    many calls (backend-independent)."""
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
    backend: "ArrayBackend | str | None" = None,
) -> CGResult:
    """Solve ``A x = b`` (column-wise for block ``b``) by preconditioned CG.

    Parameters
    ----------
    A : operator with ``matvec`` accepting ``(n, r)`` blocks
        (``matvec(V, out=...)`` is used when supported).  One on the
        stacked part-local layout of a partitioned solve
        (:class:`~repro.sparse.distributed.PartLocalOperator`) names
        its slice lengths in ``row_extents``: the modeled vector
        traffic is then charged once per slice, as each rank would.
    b : ``(n,)`` or ``(n, r)`` right-hand side(s).
    x0 : optional initial guess(es), same shape as ``b``.
    precond : optional preconditioner with ``apply`` (block-capable);
        identity when omitted.
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
    backend : execution engine (:class:`~repro.sparse.backend.ArrayBackend`,
        registry name, or ``None`` for the ambient default — the
        ``REPRO_BACKEND`` env override, else ``numpy``).  The ``numpy``
        backend is bit-identical to the pre-seam solver; the modeled
        traffic is the same for every backend.
    """
    bk = as_backend(backend)
    prec = as_precision(precision)
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

    apply_A = _make_apply(A, "matvec")
    if precond is None:
        apply_M = lambda V, out: np.copyto(out, V) or out  # noqa: E731
    elif hasattr(precond, "apply"):
        apply_M = _make_apply(precond, "apply")
    else:
        apply_M = _make_apply(precond, "__nonexistent__")  # matrix path

    if reduction is None:  # one contiguous sweep over all rows
        dot, norm = bk.colwise_dot, bk.colwise_norm
        norm_b = np.linalg.norm(B, axis=0)
    else:
        dot, norm = reduction.dot, reduction.norm
        norm_b = norm(B, out=np.empty(r))
    # Zero RHS: solution 0, converged immediately (relative test is
    # ill-defined; the paper's problems always have nonzero f after the
    # first impulse, but robustness demands the guard).
    zero_rhs = norm_b == 0.0
    denom = np.where(zero_rhs, 1.0, norm_b)

    store = _store_fn(bk, prec)
    apply_A(X, out=R)
    bk.subtract(B, R, out=R)
    store(R)
    norm(R, out=relres)
    relres /= denom
    initial_relres = relres.copy()
    history = [relres.copy()] if record_history else None

    iterations = np.zeros(r, dtype=np.int64)
    done = (relres < eps) | zero_rhs

    bk.fill(P, 0.0)
    rho_prev.fill(1.0)
    loop_it = 0
    n_open = r - int(done.sum())  # kept in step with ``done``

    while n_open and loop_it < max_iter:
        loop_it += 1
        frozen = done if n_open < r else None
        apply_M(R, out=Z)
        store(Z)
        dot(Z, R, out=rho)
        # beta = rho/rho_prev; converged/zero columns frozen at 0
        # (rho_prev is spent after this: the divide may use it up).
        _guarded_divide(rho, rho_prev, beta, frozen)
        if loop_it == 1:
            beta.fill(0.0)
        bk.xpay_cols(P, beta, Z)
        store(P)
        apply_A(P, out=Q)
        store(Q)
        dot(P, Q, out=work)
        _guarded_divide(rho, work, alpha, frozen)
        bk.axpy_cols(X, alpha, P, T)
        bk.axmy_cols(R, alpha, Q, T)
        store(R)
        rho, rho_prev = rho_prev, rho  # next dot overwrites the old one

        norm(R, out=relres)
        relres /= denom
        if record_history:
            history.append(relres.copy())
        n_open -= _mark_crossings(relres, eps, done, iterations, loop_it)

    # one charge per part's rows on a stacked part-local layout
    for rows in getattr(A, "row_extents", (n,)):
        _charge_vec_iters(rows, r, prec, loop_it)
    iterations[~done] = loop_it  # non-converged cases report the cap
    final_relres = relres.copy()
    out_x = X[:, 0] if single else X
    return CGResult(
        x=out_x,
        iterations=iterations if not single else iterations[:1],
        loop_iterations=loop_it,
        converged=done if not single else done[:1],
        initial_relres=initial_relres if not single else initial_relres[:1],
        final_relres=final_relres if not single else final_relres[:1],
        residual_history=np.asarray(history) if record_history else None,
    )
