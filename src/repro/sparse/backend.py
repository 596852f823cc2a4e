"""Pluggable array-backend execution seam for the sparse hot paths.

The reproduction executes every kernel in NumPy while device time is
*modeled* from analytic traffic tallies.  This module is the seam that
separates the two concerns: the solver hot loops (``cg``, ``ebe``,
``bcrs``, ``precond``, ``distributed``) and the data-driven
predictor's history regression (``predictor.datadriven``) are written
purely against the :class:`ArrayBackend` primitive set below, and a
registered backend decides how those primitives execute — reference
NumPy, cache-blocked NumPy or Numba-jitted parallel kernels.  The
*modeled* flop/byte tallies (:mod:`repro.sparse.traffic`) are charged
by the operator wrappers outside the seam, so they are identical for
every backend: measured wall time moves with the backend, modeled
device time does not — which is exactly the modeled-vs-measured
validation axis the backends exist to open.

Mirroring CoCoNuT's ``solver_wrappers/`` pattern (one interface,
per-engine wrappers), backends register by name in a strict registry
(:func:`register_backend` / :func:`backend_by_name`, loud on unknown
names like ``scenario_by_name``).  Contracts:

* ``numpy`` — the reference.  Every primitive makes the roundings the
  pre-seam hot loops made, in the same order, so the default execution
  is **bit-identical** to the historical code (the committed golden
  fixtures pin this).  *Which* kernel makes them is chosen by the
  operand's shape: one vector takes scipy's single-vector SpMV, a
  large block is scaled through a wide view.
* ``numpy-blocked`` — always-available variant that runs the column
  reductions in cache-sized row blocks.  Elementwise primitives stay
  bit-identical; dot products regroup their summation, so this backend
  exercises the norm-scaled-tolerance parity contract accelerated
  backends are held to, with no optional dependency.
* ``numba`` — the accelerated engine, registered always but
  *available* only when its import succeeds
  (:meth:`ArrayBackend.available`); resolving an unavailable backend
  raises :class:`BackendUnavailableError` so callers (and tests) can
  skip cleanly instead of failing.

The ambient default is ``numpy``; the ``REPRO_BACKEND`` environment
variable overrides it wherever a backend is resolved from ``None``
(library entry points, the CLI flags' defaults).  Campaign cells are
the exception: their executor always receives an explicit backend name
from the cell parameters, never the environment — a content-addressed
cache must not change meaning with ambient state.
"""

from __future__ import annotations

import abc
import os

import numpy as np

try:  # scipy's C kernels that accumulate A @ X into a caller buffer
    from scipy.sparse import _sparsetools as _spt

    _csr_matvec = getattr(_spt, "csr_matvec", None)  # one vector
    _csr_matvecs = getattr(_spt, "csr_matvecs", None)  # (n, r) block
except ImportError:  # pragma: no cover - scipy always ships them today
    _csr_matvec = _csr_matvecs = None

__all__ = [
    "DEFAULT_BACKEND",
    "ArrayBackend",
    "BackendUnavailableError",
    "NumpyBackend",
    "BlockedNumpyBackend",
    "register_backend",
    "backend_by_name",
    "backend_names",
    "available_backend_names",
    "as_backend",
    "default_backend_name",
]

DEFAULT_BACKEND = "numpy"


class BackendUnavailableError(RuntimeError):
    """A registered backend's engine is not importable here.

    Distinct from the ``ValueError`` an *unknown* name raises: the name
    is valid, the environment just lacks the optional dependency —
    callers (CI jobs, parity tests) catch this to skip, not fail.
    """


class ArrayBackend(abc.ABC):
    """Primitive set every sparse hot loop is written against.

    All primitives operate on C-contiguous fp64 host ``numpy`` arrays
    (accelerated backends may mirror to device storage internally; only
    ``copy`` accepts a strided source, which is how a strided operand
    gets staged) and write results **in place** into caller-owned
    buffers — the seam preserves the repo's allocation-free hot-loop
    discipline.  Blocked vector primitives treat ``(n, r)`` arrays as
    ``r`` independent columns (the fused multi-RHS layout).  The EBE
    sweep is ``gather_rows`` / ``batched_matmul`` / ``spmv_csr`` on
    node views.

    Subclass contract: the reference :class:`NumpyBackend` reproduces
    the pre-seam code's results bit for bit; accelerated backends may
    regroup/parallelize arithmetic and are held to norm-scaled-tolerance
    parity, never bit parity.  Every backend keeps the columns of a
    block independent: a non-finite case must not reach its neighbours.
    """

    #: registry name (``backend_by_name`` key); subclasses override.
    name: str = ""
    #: one-line human description for ``repro backends``.
    description: str = ""

    @classmethod
    def available(cls) -> bool:
        """Whether this backend's engine can execute here (its optional
        dependency imports).  Registration is unconditional; resolution
        of an unavailable backend raises
        :class:`BackendUnavailableError`."""
        return True

    # -- workspace allocation -----------------------------------------
    def empty(self, shape) -> np.ndarray:
        """Uninitialized workspace buffer owned by this backend."""
        return np.empty(shape)

    def zeros(self, shape) -> np.ndarray:
        """Zero-filled workspace buffer owned by this backend."""
        return np.zeros(shape)

    # -- blocked streaming primitives ---------------------------------
    @abc.abstractmethod
    def copy(self, dst: np.ndarray, src: np.ndarray) -> np.ndarray:
        """``dst[...] = src``; returns ``dst``."""

    @abc.abstractmethod
    def fill(self, a: np.ndarray, value: float) -> np.ndarray:
        """``a[...] = value``; returns ``a``."""

    @abc.abstractmethod
    def subtract(self, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out = a - b`` elementwise."""

    @abc.abstractmethod
    def xpay_cols(self, P: np.ndarray, beta: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """``P = P * beta + Z`` with per-column scales ``beta`` —
        the CG search-direction update (two separately rounded ops,
        elementwise: column ``j`` sees ``beta[j]`` only)."""

    @abc.abstractmethod
    def axpy_cols(
        self, Y: np.ndarray, s: np.ndarray, V: np.ndarray, work: np.ndarray
    ) -> np.ndarray:
        """``Y += s * V`` with per-column scales ``s``, using the
        caller's ``(n, r)`` scratch ``work`` (no allocation)."""

    @abc.abstractmethod
    def axmy_cols(
        self, Y: np.ndarray, s: np.ndarray, V: np.ndarray, work: np.ndarray
    ) -> np.ndarray:
        """``Y -= s * V`` with per-column scales ``s`` (scratch as in
        :meth:`axpy_cols`)."""

    @abc.abstractmethod
    def colwise_dot(self, V: np.ndarray, W: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Per-column dot products ``out[j] = sum_i V[i,j] W[i,j]``."""

    def colwise_norm(self, V: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Per-column 2-norms into ``out`` (dot then in-place sqrt)."""
        self.colwise_dot(V, V, out)
        return self.sqrt_(out)

    @abc.abstractmethod
    def sqrt_(self, a: np.ndarray) -> np.ndarray:
        """In-place elementwise square root."""

    def quantize_store(self, a: np.ndarray, precision) -> np.ndarray:
        """Round ``a`` to ``precision``'s storage format in place — the
        one quantize-on-store code path every hot loop (cg, distributed,
        ebe, bcrs, precond) routes through.  fp64 is a no-op."""
        return precision.quantize_(a)

    # -- gather / apply / scatter -------------------------------------
    @abc.abstractmethod
    def gather_rows(self, X: np.ndarray, idx: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out = X[idx]`` row gather (``idx`` may be multi-dim; all
        indices pre-validated in range by the caller)."""

    @abc.abstractmethod
    def batched_matmul(self, A: np.ndarray, X: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Batched dense mat-vec ``out[e] = A[e] @ X[e]`` over the
        leading axis (the per-element 30x30 apply)."""

    # -- operator kernels ---------------------------------------------
    @abc.abstractmethod
    def block_diag_matvec(
        self, inv: np.ndarray, R: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """Apply ``(nb, 3, 3)`` diagonal blocks to ``(3 nb, r)`` columns
        (the block-Jacobi kernel); ``R``/``out`` C-contiguous."""

    @abc.abstractmethod
    def spmv_csr(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        X: np.ndarray,
        out: np.ndarray,
    ) -> np.ndarray:
        """CSR SpMV ``out = A @ X`` into the caller buffer (``X``/``out``
        shaped ``(n, r)``, ``r >= 1``).  Every row accumulates from zero
        in ``indices`` order at every width — the EBE scatter (a 0/1
        incidence matrix) takes its summation order from this, and one
        column alone gets the bits it gets inside a block, so an engine
        may pick its kernel by ``r``."""

    # -- grid-transfer primitives -------------------------------------
    #
    # Node-level CSR operators applied to node-major dof vectors: a
    # C-contiguous ``(3*n, r)`` dof block viewed as ``(n, 3*r)`` turns
    # the 3-components-per-node application into a plain multi-vector
    # SpMV, so every backend inherits a correct implementation from its
    # own ``spmv_csr``; engines with bespoke kernels override.

    def prolong(self, indptr, indices, data, X, out):
        """Coarse-to-fine transfer ``out = (P x I3) @ X``: node-level
        CSR ``P`` applied to dof columns (``X`` ``(3*n_coarse, r)``,
        ``out`` ``(3*n_fine, r)``, both C-contiguous)."""
        return self._node_csr_apply(indptr, indices, data, X, out)

    def restrict(self, indptr, indices, data, X, out):
        """Fine-to-coarse transfer ``out = (R x I3) @ X`` (``X``
        ``(3*n_fine, r)``, ``out`` ``(3*n_coarse, r)``)."""
        return self._node_csr_apply(indptr, indices, data, X, out)

    def _node_csr_apply(self, indptr, indices, data, X, out):
        r = X.shape[1]
        self.spmv_csr(
            indptr, indices, data,
            X.reshape(X.shape[0] // 3, 3 * r),
            out.reshape(out.shape[0] // 3, 3 * r),
        )
        return out

    # -- history regression (the data-driven predictor) ---------------
    def qr_estimate(
        self, X: np.ndarray, Y: np.ndarray, x: np.ndarray, rtol: float
    ) -> np.ndarray:
        """Batched least-squares history estimate ``y = Y w`` with
        ``w = argmin ||x - X w||`` per region (the paper's Eq. 3).

        ``X`` is ``(nreg, m_in, s)``, ``Y`` ``(nreg, m_out, s)``, ``x``
        ``(nreg, m_in)``; returns a fresh ``(nreg, m_out)`` array
        rather than filling a caller's: LAPACK factors a copy anyway.

        One stacked Householder QR of ``[X | x]`` per call: the last
        column of ``R`` is ``Q^T x``, so ``Q`` is never formed.  Column
        ``j`` is *dead* — linearly dependent, coefficient exactly 0 —
        when its residual against the alive columns before it is at
        most ``rtol`` times the region's largest column norm; the
        alive columns are always fitted by exact least squares.
        """
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        x = np.asarray(x, dtype=float)
        nreg, m, s = X.shape
        # [X | x] transposed: one Fortran-ordered matrix per region,
        # zero rows added when a region has fewer rows than columns
        A = np.empty((nreg, s + 1, max(m, s + 1)))
        A[:, :s, :m] = X.transpose(0, 2, 1)
        A[:, s, :m] = x
        A[:, :, m:] = 0.0
        col_scale = np.sqrt(
            np.einsum("rsm,rsm->rs", A[:, :s], A[:, :s]).max(axis=1)
        )
        tol = rtol * np.where(col_scale == 0.0, 1.0, col_scale)
        R = np.linalg.qr(A.transpose(0, 2, 1), mode="r")
        small = (np.abs(np.einsum("rjj->rj", R)[:, :s]) <= tol[:, None]).any(axis=0)
        if small.any():
            _skip_dead_columns(R, tol, int(small.argmax()))
        w = np.linalg.solve(R[:, :s, :s], R[:, :s, s:])
        return np.matmul(Y, w)[:, :, 0]


def _skip_dead_columns(R: np.ndarray, tol: np.ndarray, j0: int) -> None:
    """Re-triangularise, in place, the systems ``R = [T | c]`` of
    :meth:`ArrayBackend.qr_estimate` from column ``j0`` on — the first
    with a pivot within ``tol`` in some region — leaving dead columns
    out.

    Up to ``j0`` every column is alive and ``|T_jj|`` is its residual.
    From a dead column on it no longer is: Householder spends a row on
    the dead column, and what later columns hold in that row is lost to
    their pivots.  So the trailing block of ``[T | c]``, whose columns
    are the residuals against the alive columns before ``j0``, is
    orthogonalised again by right-looking modified Gram-Schmidt, which
    takes a dead column out of the basis instead: its row becomes the
    identity row with right-hand side 0, pinning the coefficient to
    exactly 0 in the back substitution, and the remaining columns are
    fitted by least squares.  ``c`` rides along as a last column, which
    keeps MGS least squares backward stable.
    """
    s = R.shape[1] - 1
    B = R[:, j0:s, j0:]
    k = s - j0
    N = np.zeros_like(B)
    for j in range(k):
        v = B[:, :, j]
        nrm = np.sqrt(np.einsum("rk,rk->r", v, v))
        alive = nrm > tol
        q = v * (alive / np.where(alive, nrm, 1.0))[:, None]
        N[:, j, j] = np.where(alive, nrm, 1.0)
        N[:, j, j + 1 :] = np.matmul(q[:, None, :], B[:, :, j + 1 :])[:, 0]
        B[:, :, j + 1 :] -= q[:, :, None] * N[:, j, None, j + 1 :]
    B[...] = N


class NumpyBackend(ArrayBackend):
    """Reference backend: the roundings the pre-seam hot loops made, in
    the same order — bit-identical to the historical implementation
    (asserted by the golden fixtures) — from whichever NumPy/scipy
    kernel makes them fastest for the operand's shape."""

    name = "numpy"
    description = "reference NumPy execution (bit-exact default)"

    def __init__(self) -> None:
        # r -> ((_TILE, r), (_TILE * r,)) views of one scale scratch
        self._tiles: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    # -- blocked streaming primitives ---------------------------------
    def copy(self, dst, src):
        np.copyto(dst, src)
        return dst

    def fill(self, a, value):
        a.fill(value)
        return a

    def subtract(self, a, b, out):
        np.subtract(a, b, out=out)
        return out

    def xpay_cols(self, P, beta, Z):
        self._scale_cols(P, beta, P)
        P += Z
        return P

    def axpy_cols(self, Y, s, V, work):
        self._scale_cols(V, s, work)
        Y += work
        return Y

    def axmy_cols(self, Y, s, V, work):
        self._scale_cols(V, s, work)
        Y -= work
        return Y

    #: rows folded into one wide row by the column scaling (measured:
    #: 16-64 alike, 4 and 128 slower); under ``_TILE`` wide rows the
    #: plain broadcast is as fast.
    _TILE = 32

    def _scale_cols(self, V, s, out):
        """``out = V * s``, per-column scales (``out`` may be ``V``).
        The broadcast's inner loop is only ``r`` long, so a large block
        is scaled as its ``(n // k, k * r)`` view against a ``k``-tiled
        copy of ``s``: the same products, elementwise (a diagonal GEMM
        is faster still, but lets a NaN column into its neighbours)."""
        n, r = V.shape
        k = self._TILE
        m = n // k
        if r == 1 or m < k or not (V.flags.c_contiguous
                                   and out.flags.c_contiguous):
            return np.multiply(V, s, out=out)
        tile = self._tiles.get(r)
        if tile is None:
            flat = np.empty(k * r)
            tile = self._tiles[r] = (flat.reshape(k, r), flat)
        np.copyto(tile[0], s)
        mk = m * k
        np.multiply(V[:mk].reshape(m, k * r), tile[1],
                    out=out[:mk].reshape(m, k * r))
        if mk < n:
            np.multiply(V[mk:], s, out=out[mk:])
        return out

    def colwise_dot(self, V, W, out):
        return np.einsum("ij,ij->j", V, W, out=out)

    def sqrt_(self, a):
        return np.sqrt(a, out=a)

    # -- gather / apply / scatter -------------------------------------
    def gather_rows(self, X, idx, out):
        # mode="clip" writes straight into `out` (mode="raise" rechecks
        # the indices through a temporary); callers validate indices
        # in-range at construction.
        np.take(X, idx, axis=0, out=out, mode="clip")
        return out

    def batched_matmul(self, A, X, out):
        np.matmul(A, X, out=out)
        return out

    # -- operator kernels ---------------------------------------------
    def block_diag_matvec(self, inv, R, out):
        nb = inv.shape[0]
        r = R.shape[-1]
        np.matmul(inv, R.reshape(nb, 3, r), out=out.reshape(nb, 3, r))
        return out

    def spmv_csr(self, indptr, indices, data, X, out):
        n, r = out.shape
        if indptr.size != n + 1:  # the C kernels would read past its end
            raise ValueError(f"indptr size {indptr.size} != {n} rows + 1")
        if (
            _csr_matvecs is not None
            and X.flags.c_contiguous
            and out.flags.c_contiguous
            and X.dtype == np.float64
        ):
            out.fill(0.0)  # both kernels accumulate: y += A @ x
            if r == 1:  # same row-by-row order, no axpy call per entry
                _csr_matvec(n, X.shape[0], indptr, indices, data,
                            X.ravel(), out.ravel())
            else:
                _csr_matvecs(n, X.shape[0], r, indptr, indices, data,
                             X.ravel(), out.ravel())
            return out
        import scipy.sparse as sp  # fallback: wrap without copying

        m = sp.csr_matrix((data, indices, indptr), shape=(n, X.shape[0]))
        np.copyto(out, m @ X)
        return out


class BlockedNumpyBackend(NumpyBackend):
    """Cache-blocked column reductions on the NumPy substrate.

    Streams the dot/norm reductions in row blocks of
    :attr:`block_rows`, accumulating per-block partial sums — a
    different (but deterministic) summation grouping than the fused
    einsum, so results agree with the reference to rounding only.
    Elementwise primitives are inherited untouched and stay
    bit-identical.  Always available: this is the backend the parity
    harness uses to exercise the accelerated-backend tolerance
    contract without optional dependencies.
    """

    name = "numpy-blocked"
    description = "cache-blocked NumPy column reductions (parity reference)"
    block_rows = 4096

    def colwise_dot(self, V, W, out):
        out[...] = 0.0
        nb = self.block_rows
        for lo in range(0, V.shape[0], nb):
            out += np.einsum("ij,ij->j", V[lo:lo + nb], W[lo:lo + nb])
        return out


#: Strict registry: name -> backend class (instances cached lazily).
BACKENDS: dict[str, type[ArrayBackend]] = {}
_INSTANCES: dict[str, ArrayBackend] = {}


def register_backend(cls: type[ArrayBackend]) -> type[ArrayBackend]:
    """Register a backend class under ``cls.name`` (usable as a class
    decorator).  Duplicate names fail loudly — silently shadowing an
    execution engine is how wrong numbers get attributed."""
    name = cls.name
    if not name:
        raise ValueError("backend class needs a non-empty `name`")
    if name in BACKENDS and BACKENDS[name] is not cls:
        raise ValueError(f"backend {name!r} already registered")
    BACKENDS[name] = cls
    return cls


def backend_names() -> tuple[str, ...]:
    """All registered backend names, sorted (available or not)."""
    return tuple(sorted(BACKENDS))


def available_backend_names() -> tuple[str, ...]:
    """Registered backends whose engine imports here, sorted."""
    return tuple(n for n in backend_names() if BACKENDS[n].available())


def backend_by_name(name: str) -> ArrayBackend:
    """Resolve a backend instance by registry name.

    Unknown names raise ``ValueError`` (a typo'd backend must never
    silently execute NumPy); known-but-unavailable engines raise
    :class:`BackendUnavailableError` so callers can skip cleanly.
    """
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; choose from {backend_names()}"
        ) from None
    if not cls.available():
        raise BackendUnavailableError(
            f"backend {name!r} is registered but its engine is not "
            f"importable here (try `pip install {name}`); available: "
            f"{available_backend_names()}"
        )
    inst = _INSTANCES.get(name)
    if inst is None:
        inst = _INSTANCES[name] = cls()
    return inst


def default_backend_name() -> str:
    """The ambient default backend name: ``REPRO_BACKEND`` when set
    (and non-empty), else ``"numpy"``."""
    return os.environ.get("REPRO_BACKEND") or DEFAULT_BACKEND


def as_backend(spec: "ArrayBackend | str | None" = None) -> ArrayBackend:
    """Resolve a backend from an instance, a name, or ``None`` (the
    ambient default — ``REPRO_BACKEND`` env override, else numpy)."""
    if spec is None:
        spec = default_backend_name()
    if isinstance(spec, ArrayBackend):
        return spec
    return backend_by_name(spec)


register_backend(NumpyBackend)
register_backend(BlockedNumpyBackend)

# The accelerated engine registers unconditionally (its *availability*
# is probed at resolution time); the import is cheap because the
# engine import itself happens lazily inside the module.
from repro.sparse.backend_numba import NumbaBackend  # noqa: E402

register_backend(NumbaBackend)
