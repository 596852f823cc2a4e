"""Halo exchange plan and the distributed EBE matrix-vector product.

In the partitioned solver each rank stores the dof values of every
node its elements touch; after the local element sweep, contributions
to *shared* nodes must be summed across the touching ranks — the
paper's "point-to-point synchronization between GPUs ... so that the
nodal values between partitions are consistent".

:class:`DistributedEBE` runs that algorithm literally (per-part local
gather/apply/scatter in local index spaces, then a pairwise halo sum)
and is verified in tests to match the global operator exactly.  The
per-part index arrays of the exchange (send lists, accumulation
targets, ghost-node owner maps) are computed once into an
:class:`_ExchangePlan` — no per-exchange temporaries beyond the
staged send buffers, matching the solver hot-path discipline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.cluster.partition import PartitionInfo
from repro.sparse.backend import ArrayBackend, as_backend, check_out
from repro.sparse.distributed import PartLocalOperator
from repro.sparse.ebe import EBEOperator, class_groups
from repro.sparse.precision import FP64, Precision, as_precision
from repro.util import counters

__all__ = ["HaloPlan", "build_halo_plan", "DistributedEBE"]


def _node_dofs(nodes: np.ndarray) -> np.ndarray:
    """Flat dof ids (3 per node) of a node index array."""
    return (3 * nodes[:, None] + np.arange(3)[None, :]).ravel()


@dataclass
class HaloPlan:
    """Which nodes each pair of parts must sum over.

    Attributes
    ----------
    pair_nodes : {(p, q): node ids} with p < q, global node indices
        shared between the two parts.
    part_shared_bytes : per-part bytes sent per exchange (3 dofs at
        fp64 words, to every neighbour sharing each node).
        Transprecision callers scale these reference bytes by the
        policy's ``storage_ratio`` — the wire carries storage words.
    """

    nparts: int
    pair_nodes: dict[tuple[int, int], np.ndarray]
    part_shared_bytes: np.ndarray

    def neighbors(self, p: int) -> list[int]:
        out = []
        for a, b in self.pair_nodes:
            if a == p:
                out.append(b)
            elif b == p:
                out.append(a)
        return sorted(out)

    def messages_per_exchange(self, p: int) -> int:
        return len(self.neighbors(p))

    def max_bytes_per_exchange(self) -> float:
        return float(self.part_shared_bytes.max()) if self.nparts > 1 else 0.0


def build_halo_plan(info: PartitionInfo) -> HaloPlan:
    """Derive the pairwise shared-node lists from a partition."""
    nparts = info.nparts
    pair_nodes: dict[tuple[int, int], np.ndarray] = {}
    part_bytes = np.zeros(nparts)
    part_node_sets = [set(map(int, nodes)) for nodes in info.part_nodes]
    for p in range(nparts):
        for q in range(p + 1, nparts):
            common = np.array(
                sorted(part_node_sets[p] & part_node_sets[q]), dtype=np.int64
            )
            if common.size:
                pair_nodes[(p, q)] = common
                nbytes = 8.0 * 3 * common.size
                part_bytes[p] += nbytes
                part_bytes[q] += nbytes
    return HaloPlan(nparts=nparts, pair_nodes=pair_nodes, part_shared_bytes=part_bytes)


class _ExchangePlan:
    """Precomputed index arrays for the pairwise halo summation.

    Per part ``p``:

    * ``shared_ldofs[p]`` — local dof ids of every node ``p`` shares
      with any neighbour (the part's send/receive surface);
    * ``adds[p]`` — ``(q, dest, src)`` triples in ascending source-part
      order (``p`` included): accumulate rows ``src`` of part ``q``'s
      staged surface values into local dofs ``dest`` of part ``p``.

    The staged surface buffers are the literal MPI send buffers; the
    ascending-``q`` accumulation order is the determinism discipline
    that makes every part's copy of a shared node bit-identical.
    """

    def __init__(self, plan: HaloPlan, local_node_index: list[np.ndarray]) -> None:
        nparts = plan.nparts

        def ldofs(part: int, nodes: np.ndarray) -> np.ndarray:
            return _node_dofs(local_node_index[part][nodes])

        self.shared_nodes: list[np.ndarray] = []
        self.shared_ldofs: list[np.ndarray] = []
        for p in range(nparts):
            pairs = [plan.pair_nodes[(min(p, q), max(p, q))]
                     for q in plan.neighbors(p)]
            own = (np.unique(np.concatenate(pairs)) if pairs
                   else np.empty(0, dtype=np.int64))
            self.shared_nodes.append(own)
            self.shared_ldofs.append(ldofs(p, own))

        def stage_rows(part: int, nodes: np.ndarray) -> np.ndarray:
            """Row indices of ``nodes`` within part's staged surface."""
            return _node_dofs(np.searchsorted(self.shared_nodes[part], nodes))

        self.adds: list[list[tuple[int, np.ndarray, np.ndarray]]] = []
        for p in range(nparts):
            triples: list[tuple[int, np.ndarray, np.ndarray]] = []
            neighbors = plan.neighbors(p)
            if neighbors:
                pair_of = {
                    q: plan.pair_nodes[(min(p, q), max(p, q))] for q in neighbors
                }
                for q in sorted([p, *neighbors]):
                    nodes = self.shared_nodes[p] if q == p else pair_of[q]
                    triples.append((q, ldofs(p, nodes), stage_rows(q, nodes)))
            self.adds.append(triples)


@dataclass
class DistributedEBE:
    """Partitioned matrix-free operator with explicit halo summation.

    Built from the same constrained element matrices as the global
    :class:`~repro.sparse.ebe.EBEOperator`; ``matvec`` is exact (the
    halo sum reproduces the global scatter), which the tests assert.
    """

    info: PartitionInfo
    plan: HaloPlan
    local_ops: list[EBEOperator]
    local_to_global: list[np.ndarray]
    comm_bytes_per_matvec: float
    _n_dofs: int
    precision: Precision = FP64
    backend: ArrayBackend | None = None
    _xplan: _ExchangePlan | None = field(default=None, repr=False)
    _part_local: PartLocalOperator | None = field(default=None, repr=False)

    @classmethod
    def from_elements(
        cls,
        elem_mats: np.ndarray,
        info: PartitionInfo,
        precision: Precision | str | None = None,
        backend: ArrayBackend | None = None,
        classes: np.ndarray | None = None,
    ) -> "DistributedEBE":
        """Partition the constrained ``(ne, 30, 30)`` element matrices
        over ``info``.

        ``classes`` are the elements' class labels; a part whose own
        slice of them groups (:func:`~repro.sparse.ebe.class_groups`)
        keeps one matrix per class, its members' lowest-id one.

        ``precision`` is the transprecision storage policy: the local
        EBE operators store/gather at the format, and the halo wire
        moves storage-precision words, so ``comm_bytes_per_matvec``
        (and every ``halo.exchange`` charge) shrinks with the itemsize.

        ``backend`` is the array seam the local EBE sweeps and a
        ``distributed_pcg`` run on this operator use; the halo staging
        itself stays host NumPy — it models the MPI wire, not a device
        kernel.
        """
        prec = as_precision(precision)
        bk = as_backend(backend)
        mesh = info.mesh
        plan = build_halo_plan(info)
        local_ops: list[EBEOperator] = []
        l2g: list[np.ndarray] = []
        for p in range(info.nparts):
            eids = info.part_elems[p]
            nodes = info.part_nodes[p]
            remap = -np.ones(mesh.n_nodes, dtype=np.int64)
            remap[nodes] = np.arange(nodes.size)
            local_elems = remap[mesh.elems[eids]]
            groups = None if classes is None else class_groups(classes[eids])
            pick, labels = (eids, None) if groups is None else (eids[groups[0]], groups[1])
            local_ops.append(
                EBEOperator(
                    elem_mats[pick], local_elems, nodes.size, tag="spmv.ebe",
                    precision=prec, backend=bk, classes=labels,
                )
            )
            l2g.append(nodes)
        comm = float(plan.part_shared_bytes.sum()) * prec.storage_ratio
        return cls(
            info=info,
            plan=plan,
            local_ops=local_ops,
            local_to_global=l2g,
            comm_bytes_per_matvec=comm,
            _n_dofs=mesh.n_dofs,
            precision=prec,
            backend=bk,
        )

    @property
    def n(self) -> int:
        return self._n_dofs

    @property
    def nparts(self) -> int:
        return self.info.nparts

    @property
    def shape(self) -> tuple[int, int]:
        return (self._n_dofs, self._n_dofs)

    @cached_property
    def _node_index(self) -> list[np.ndarray]:
        """Per-part global-node-id -> local-node-index maps, built once."""
        out = []
        for nodes in self.local_to_global:
            remap = -np.ones(self.info.mesh.n_nodes, dtype=np.int64)
            remap[nodes] = np.arange(nodes.size)
            out.append(remap)
        return out

    @cached_property
    def local_global_dofs(self) -> list[np.ndarray]:
        """Per-part global dof ids of the local vector entries (the
        restriction map ``x_local = x[local_global_dofs[p]]``)."""
        return [_node_dofs(nodes) for nodes in self.local_to_global]

    @cached_property
    def node_owner(self) -> np.ndarray:
        """Owning part per node (lowest touching part id — the
        canonical MPI convention so each node is reduced exactly once)."""
        owner = np.full(self.info.mesh.n_nodes, -1, dtype=np.int64)
        for p in reversed(range(self.nparts)):
            owner[self.local_to_global[p]] = p
        return owner

    @cached_property
    def owned_local_dofs(self) -> list[np.ndarray]:
        """Per-part local dof indices of the nodes the part owns."""
        out = []
        for p, nodes in enumerate(self.local_to_global):
            mine = np.flatnonzero(self.node_owner[nodes] == p)
            out.append(_node_dofs(mine))
        return out

    @cached_property
    def owned_global_dofs(self) -> list[np.ndarray]:
        """Per-part global dof ids of owned nodes, in local order.

        The concatenation over parts is a permutation of all dofs: the
        index sets of the canonical partitioned reductions.
        """
        return [
            g[ldofs]
            for g, ldofs in zip(self.local_global_dofs, self.owned_local_dofs)
        ]

    @property
    def exchange_plan(self) -> _ExchangePlan:
        """The cached halo-exchange index plan (built on first use)."""
        if self._xplan is None:
            self._xplan = _ExchangePlan(self.plan, self._node_index)
        return self._xplan

    def part_local(self) -> PartLocalOperator:
        """This operator on the stacked part-local layout of
        ``distributed_pcg``: built on first use and kept — a solve
        rebuilds no index array or staging."""
        if self._part_local is None:
            self._part_local = PartLocalOperator(self, self.backend)
        return self._part_local

    def halo_exchange(
        self,
        local_values: list[np.ndarray],
        out: list[np.ndarray] | None = None,
    ) -> list[np.ndarray]:
        """Point-to-point halo summation over per-part nodal vectors.

        ``local_values[p]`` is part ``p``'s local dof vector (``(ld,)``
        or ``(ld, r)`` for fused multi-RHS columns); the return value
        adds, for every shared node, every touching part's
        *pre-exchange* contribution — the MPI algorithm.  Contributions
        accumulate in ascending part-id order on every part (the
        standard determinism discipline), so afterwards each part's
        copy of a shared node holds the bit-identical global sum — the
        "consistent nodal values" the paper synchronizes for, asserted
        by :mod:`tests.cluster.test_halo`.

        ``out`` receives the exchanged vectors without allocating
        (aliasing the inputs is fine: pre-exchange surface values are
        staged first, exactly like MPI send buffers).  The wire traffic
        is charged to the ``halo.exchange`` counter — one exchange's
        bytes per column, as :meth:`matvec` charges it.
        """
        nparts = self.nparts
        if len(local_values) != nparts:
            raise ValueError("one local vector per part required")
        xp = self.exchange_plan
        ncols = 1 if local_values[0].ndim == 1 else int(local_values[0].shape[1])
        # stage every part's pre-exchange surface values (send buffers)
        stages = [
            np.asarray(v, dtype=float)[xp.shared_ldofs[p]]
            for p, v in enumerate(local_values)
        ]
        if out is None:
            exchanged = [np.array(v, dtype=float, copy=True) for v in local_values]
        else:
            exchanged = out
            for dst, src in zip(exchanged, local_values):
                if dst is not src:  # in place: nothing to move
                    np.copyto(dst, src)
        for p in range(nparts):
            if not xp.adds[p]:
                continue
            exchanged[p][xp.shared_ldofs[p]] = 0.0
            for _q, dest, src in xp.adds[p]:
                exchanged[p][dest] += stages[_q][src]
        counters.charge(
            "halo.exchange", 0.0, self.comm_bytes_per_matvec * ncols
        )
        return exchanged

    def matvec(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Global mat-vec via per-part local sweeps + halo sum, into
        ``out`` (``x``'s shape) when given."""
        x = np.asarray(x, dtype=float)
        check_out(out, x.shape)
        if out is None:
            out = np.zeros_like(x)
        else:
            out[...] = 0.0
        X, Y = (x[:, None], out[:, None]) if x.ndim == 1 else (x, out)
        for op, ldof in zip(self.local_ops, self.local_global_dofs):
            # halo sum: accumulating every part's shared contribution
            # into the global vector is exactly the pairwise exchange
            # result (addition is associative across neighbours).
            Y[ldof] += op.matvec(X[ldof])
        counters.charge("halo.exchange", 0.0, self.comm_bytes_per_matvec * X.shape[1])
        return out

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)

    def diagonal_blocks(self) -> np.ndarray:
        """Globally-consistent diagonal blocks from the local operators."""
        nb = self.info.mesh.n_nodes
        out = np.zeros((nb, 3, 3))
        for op, nodes in zip(self.local_ops, self.local_to_global):
            out[nodes] += op.diagonal_blocks()
        return out
