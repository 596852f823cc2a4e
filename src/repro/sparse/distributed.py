"""Distributed preconditioned CG on part-local vectors (paper §2.2).

The paper's headline runs solve on *partitions*: every rank keeps the
dof values of the nodes its elements touch, runs the EBE sweep locally,
point-to-point-synchronizes shared nodes after every operator
application, and allreduces the CG scalars.  That is Algorithm 1
unchanged, and :func:`distributed_pcg` **is** :func:`repro.sparse.cg.pcg`
on the *stacked part-local layout*: part ``p``'s block (owned and ghost
rows) is the row slice ``[offs[p], offs[p + 1])`` of one
``(sum_p ld_p, r)`` array.  Every recurrence update and store of the
loop is elementwise, so one backend call on the stacked block makes
exactly the roundings one call per part would; what a partitioned solve
does differently sits where ``pcg`` already takes it:

* the **operator** (:class:`PartLocalOperator`) — local EBE sweeps
  slice by slice, then the cached halo-exchange plan of the
  :class:`~repro.cluster.halo.DistributedEBE` on the same slices;
* the **preconditioner** — block-Jacobi from the globally-consistent
  diagonal blocks restricted per part (no communication), or a global
  family behind a gather of the owned rows and a rescatter;
* the **reduction** (:class:`PartitionedReduction`) — partial sums over
  each part's *owned* rows (lowest touching part owns a node), added
  in ascending part order: the deterministic allreduce.

Bit-identity guarantee
----------------------
Running the fused *global* solve with the same operator and the
matching reduction::

    red = PartitionedReduction(dist.owned_global_dofs)
    ref = pcg(dist, B, x0=G, precond=BlockJacobi(dist.diagonal_blocks()),
              reduction=red)

produces **bit-identical** displacements, iteration counts and
residual histories to the part-local solve at any part count — the
halo tests' exactness guarantee extended to full solves (asserted by
:mod:`tests.sparse.test_distributed_pcg` at nparts 1/2/4/8).  The
canonical part order gives it: after an exchange every part's copy of
a shared node holds the bits of the global vector and each dof has one
owner, so both solves take the same partial sums over the same values
and add them in the same order.  Against the plain single-operator
solve the results agree to rounding (the partitioned reduction and
part-grouped scatter order flops differently, nothing more).
"""

from __future__ import annotations

import numpy as np

from repro.sparse.backend import ArrayBackend, as_backend
from repro.sparse.cg import CGResult, PCGWorkspace, pcg
from repro.sparse.precision import Precision, as_precision
from repro.sparse.precond import BlockJacobi
from repro.util import counters

__all__ = ["PartitionedReduction", "PartLocalOperator", "part_block_jacobi",
           "distributed_pcg"]


class PartitionedReduction:
    """Deterministic partitioned dot products for :func:`~repro.sparse.cg.pcg`.

    ``groups`` are the per-part *owned* row index arrays — global dof
    ids for the fused reference solve (a permutation of all dofs when
    concatenated), stacked rows for the part-local one.  ``dot``/``norm``
    accumulate the per-group partial sums in ascending part order — the
    arithmetic of the allreduce (one partial per rank), the same in
    both solves, which is what makes them bit-identical.
    """

    def __init__(self, groups: list[np.ndarray],
                 backend: "ArrayBackend | str | None" = None) -> None:
        self.groups = [np.asarray(g, dtype=np.int64) for g in groups]
        self.backend = as_backend(backend)
        self._partial: np.ndarray | None = None

    def dot(self, V: np.ndarray, W: np.ndarray, out: np.ndarray) -> np.ndarray:
        bk = self.backend
        if self._partial is None or self._partial.shape != out.shape:
            # per-group gather buffers, held across calls (re-made only
            # when the column count changes)
            self._partial = bk.empty(out.shape)
            self._owned = [(bk.empty((g.size, out.size)),
                            bk.empty((g.size, out.size))) for g in self.groups]
        out[...] = 0.0
        for g, (VO, WO) in zip(self.groups, self._owned):
            bk.gather_rows(V, g, VO)
            bk.gather_rows(W, g, WO)
            out += bk.colwise_dot(VO, WO, self._partial)
        return out

    def norm(self, V: np.ndarray, out: np.ndarray) -> np.ndarray:
        self.dot(V, V, out)
        return self.backend.sqrt_(out)


def part_block_jacobi(dist) -> list[BlockJacobi]:
    """Per-part block-Jacobi preconditioners from the globally-consistent
    diagonal blocks of a :class:`~repro.cluster.halo.DistributedEBE`.

    Each part inverts the blocks of every node it touches (owned and
    ghost), so the preconditioner application needs no communication —
    and the per-node inverses are the same 3x3 inverses the fused
    ``BlockJacobi(dist.diagonal_blocks())`` holds.  The operator's
    storage precision carries over, so per-part inverses are quantized
    exactly like the fused preconditioner at the same policy.
    """
    blocks = dist.diagonal_blocks()
    return [
        BlockJacobi(blocks[nodes], precision=dist.precision,
                    backend=dist.backend)
        for nodes in dist.local_to_global
    ]


class PartLocalOperator:
    """A :class:`~repro.cluster.halo.DistributedEBE` on the stacked
    part-local layout — what :func:`~repro.sparse.cg.pcg` iterates with
    in a partitioned solve.  Everything about the layout that is
    constant across solves lives here, built once per partition and
    vector ``backend`` (:meth:`DistributedEBE.part_local` keeps it)."""

    def __init__(self, dist, backend: ArrayBackend) -> None:
        self.dist, self.backend = dist, backend
        gdofs = dist.local_global_dofs
        # rows per part: ``pcg`` charges ``cg.vec`` once per entry
        self.row_extents = tuple(g.size for g in gdofs)
        offs = np.concatenate(([0], np.cumsum(self.row_extents)))
        self._slices = [slice(a, b) for a, b in zip(offs[:-1], offs[1:])]
        # global dof of every stacked row: ``V[local_rows]`` scatters a
        # global block to the parts
        self.local_rows = np.concatenate(gdofs)
        # per part, the stacked rows of the dofs it owns
        owned = [o + ldofs for o, ldofs in zip(offs, dist.owned_local_dofs)]
        self.reduction = PartitionedReduction(owned, backend)
        # per global dof, the stacked row of its owner's copy: the
        # gather back takes every dof from exactly one part
        self.owner_rows = np.empty(dist.n, dtype=np.int64)
        self.owner_rows[np.concatenate(dist.owned_global_dofs)] = (
            np.concatenate(owned))
        self._global: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def split(self, V: np.ndarray) -> list[np.ndarray]:
        """The per-part blocks of a stacked array, as views."""
        return [V[s] for s in self._slices]

    def matvec(self, V: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Local EBE sweeps, then the halo exchange in place (the plan
        stages the pre-exchange surface values first, like MPI send
        buffers, and charges the comm)."""
        parts = self.split(out)
        for op, v, y in zip(self.dist.local_ops, self.split(V), parts):
            op.matvec(v, out=y)
        self.dist.halo_exchange(parts, out=parts)
        return out

    def global_blocks(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        """Full-vector ``(n, r)`` staging of a *global* preconditioner
        (assembled residual, corrected block), made on first use."""
        blocks = self._global.get(r)
        if blocks is None:
            shape = (self.dist.n, r)
            blocks = self._global[r] = (
                self.backend.empty(shape), self.backend.empty(shape))
        return blocks


class _PerPartPrecond:
    """``preconds[p]`` applied to part ``p``'s slice — no communication."""

    def __init__(self, op: PartLocalOperator, preconds: list) -> None:
        self.split, self.preconds = op.split, preconds

    def apply(self, R: np.ndarray, out: np.ndarray) -> np.ndarray:
        for M, r, z in zip(self.preconds, self.split(R), self.split(out)):
            M.apply(r, out=z)
        return out


class _GatheredPrecond:
    """A *global* preconditioner in a partitioned solve: the owned
    residual rows are assembled into a full vector (the allgather an
    MPI implementation would run), preconditioned once, and the
    correction rescattered to the parts' owned+ghost rows."""

    def __init__(self, op: PartLocalOperator, precond, r: int,
                 prec: Precision) -> None:
        self.op, self.precond = op, precond
        self.RG, self.ZG = op.global_blocks(r)
        # residual up, correction down, in storage words
        self.comm_bytes = 2.0 * prec.itemsize * op.dist.n * r

    def apply(self, R: np.ndarray, out: np.ndarray) -> np.ndarray:
        op, bk = self.op, self.op.backend
        bk.gather_rows(R, op.owner_rows, self.RG)
        # wire bytes on their own tag keep the modeled comm/device split honest
        counters.charge("halo.exchange.precond", 0.0, self.comm_bytes)
        self.precond.apply(self.RG, out=self.ZG)
        return bk.gather_rows(self.ZG, op.local_rows, out)


def distributed_pcg(
    dist,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    local_preconds: list[BlockJacobi] | None = None,
    precond=None,
    eps: float = 1e-8,
    max_iter: int = 10_000,
    record_history: bool = False,
    workspace: PCGWorkspace | None = None,
    precision: Precision | str | None = None,
    backend: "ArrayBackend | str | None" = None,
) -> CGResult:
    """Solve ``A x = b`` by CG iterating on part-local vector blocks:
    :func:`~repro.sparse.cg.pcg` on the stacked layout of ``dist``.

    Parameters
    ----------
    dist : :class:`~repro.cluster.halo.DistributedEBE` (defines the
        partitioned operator, the halo-exchange plan and dof ownership).
    b : ``(n,)`` or ``(n, r)`` global right-hand side(s); scattered to
        parts once up front (how the ranks would receive their slices).
    x0 : optional global initial guess(es), same shape as ``b``.
    local_preconds : per-part block-Jacobi preconditioners; built with
        :func:`part_block_jacobi` when omitted.
    precond : optional *global* preconditioner (anything with
        ``apply(r, out=) -> out``, e.g. a
        :class:`~repro.sparse.twogrid.TwoGrid`).  When given it
        replaces the part-local preconditioners: each iteration the
        owned residual rows are gathered, preconditioned once and
        rescattered, the wire bytes charged on the
        ``halo.exchange.precond`` tag.  Mutually exclusive with
        ``local_preconds``.
    eps, max_iter, record_history : as in :func:`~repro.sparse.cg.pcg`.
    workspace : reusable :class:`~repro.sparse.cg.PCGWorkspace` (it
        holds stacked blocks); pass the same instance across solves of
        one case set to keep the loop free of heap traffic.
    precision : transprecision storage policy for the part-local
        working vectors (as in :func:`~repro.sparse.cg.pcg`); defaults
        to the operator's own policy (``dist.precision``), so a
        distributed operator built at fp21 solves at fp21 without
        repeating the argument.  The bit-identity guarantee against
        the fused reference holds at fp64 (the default).
    backend : execution engine for the part-local vector loop (as in
        :func:`~repro.sparse.cg.pcg`); defaults to the operator's own
        (``dist.backend``), like ``precision``.

    Returns the same :class:`~repro.sparse.cg.CGResult` as the fused
    solver; ``x`` is assembled from each part's owned dofs.
    """
    prec = as_precision(precision if precision is not None else dist.precision)
    bk = as_backend(backend if backend is not None else dist.backend)
    b = np.asarray(b, dtype=float)
    n, r = (b[:, None] if b.ndim == 1 else b).shape
    if n != dist.n:
        raise ValueError(f"rhs size {n} != operator size {dist.n}")
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        if (x0[:, None] if x0.ndim == 1 else x0).shape != (n, r):
            raise ValueError(f"expected x0 shape {(n, r)}, got {x0.shape}")

    op = dist.part_local(bk)
    if precond is not None:
        if local_preconds is not None:
            raise ValueError("pass local_preconds or a global precond, not both")
        M = _GatheredPrecond(op, precond, r, prec)
    else:
        if local_preconds is None:
            local_preconds = part_block_jacobi(dist)
        if len(local_preconds) != dist.nparts:
            raise ValueError("one local preconditioner per part required")
        M = _PerPartPrecond(op, local_preconds)

    res = pcg(
        op, b[op.local_rows],
        x0=None if x0 is None else x0[op.local_rows],
        precond=M, eps=eps, max_iter=max_iter, record_history=record_history,
        workspace=workspace, reduction=op.reduction, precision=prec, backend=bk,
    )
    res.x = res.x[op.owner_rows]  # every dof from the part that owns it
    return res
