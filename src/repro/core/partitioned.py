"""Partitioned case set: the distributed solve path of the pipeline.

The paper's headline runs shard the finite element model across
compute nodes and run Algorithm 3 per node, synchronizing shared nodes
point-to-point inside every CG iteration.  :class:`PartitionedCaseSet`
is a drop-in :class:`~repro.core.pipeline.CaseSet` whose solver is
:func:`~repro.sparse.distributed.distributed_pcg` — the same ``pcg``
loop and workspace, on the stacked part-local layout of the problem's
:class:`~repro.cluster.halo.DistributedEBE`
(:meth:`~repro.core.problem.ElasticProblem.distributed_operator`, built
once per (nparts, precision) and shared by both sets of a
pipeline): the Newmark loop, the
predictors, the RHS build and the per-step source-force cache
(:meth:`~repro.core.pipeline.CaseSet.forces_at` — one evaluation per
(case, step), shared by predictor and solver) are untouched — exactly
the CoCoNuT-style separation of the coupling loop from the per-solver
execution.

Cost model
----------
* Compute: each of the ``nparts`` devices executes its share of the
  sweep concurrently, so a phase's modeled time is the fused tally
  time scaled by the *bottleneck* part's element share
  (:attr:`part_time_fraction`; 1/nparts for a balanced partition).
* Communication: per CG iteration one halo exchange of the bottleneck
  part's surface (:meth:`HaloPlan.max_bytes_per_exchange`, ``r`` fused
  columns wide, ``1 - overlap_fraction`` of it not hidden behind the
  interior sweep) plus two latency-bound scalar allreduces — the same
  model :mod:`repro.cluster.weakscaling` validates against Fig. 5.
  The pipeline schedules it on the ``nic`` timeline lane.

Accuracy: the part-local solve is bit-identical to the fused global
solve under the canonical partitioned reduction (see
:mod:`repro.sparse.distributed`), so a partitioned run's displacements
match an unpartitioned ``op_kind="ebe"`` run to solver rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.comm import CommCostModel
from repro.core.pipeline import CaseSet
from repro.hardware.transfer import TransferModel
from repro.sparse.cg import CGResult
from repro.sparse.distributed import distributed_pcg
from repro.util.counters import KernelTally

__all__ = ["PartitionedCaseSet"]


@dataclass
class PartitionedCaseSet(CaseSet):
    """``r`` cases advanced together by the part-local distributed solver.

    Parameters (beyond :class:`~repro.core.pipeline.CaseSet`)
    ----------
    nparts : number of mesh partitions (1 = degenerate single part).
    link : inter-part transfer model; pass
        ``TransferModel.nic(module)`` for multi-node runs (GPUDirect
        over the NIC) or ``TransferModel.c2c(module)`` for NVLink-class
        single-node multi-GPU.  Defaults to the Alps NIC.
    overlap_fraction : fraction of the halo exchange hidden behind the
        interior EBE sweep (allreduces are latency-bound and charged in
        full) — matching :func:`repro.cluster.weakscaling.weak_scaling_curve`.

    The partitioned operator (readable as ``dist``) and the per-part
    block-Jacobi appliers are asked of the current problem at every
    solve, never passed in or captured — a nonlinear material update
    swaps the problem, and the next solve runs on its partition.
    """

    nparts: int = 2
    link: TransferModel | None = None
    overlap_fraction: float = 0.8

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.op_kind != "ebe":
            raise ValueError(
                "the distributed solve path is EBE-based; use op_kind='ebe'"
            )
        if self.nparts < 1:
            raise ValueError("nparts must be >= 1")
        if not 0 <= self.overlap_fraction < 1:
            raise ValueError("overlap_fraction must be in [0, 1)")
        if self.link is None:
            from repro.hardware.specs import ALPS_MODULE

            self.link = TransferModel.nic(ALPS_MODULE)
        self._comm = CommCostModel(self.link)

    @property
    def dist(self):
        """The current problem's partitioned operator."""
        return self.problem.distributed_operator(self.nparts, self.precision)

    # -- solver ---------------------------------------------------------
    def _solve_system(self, B: np.ndarray, guesses: np.ndarray) -> CGResult:
        # per-part block-Jacobi appliers, cached on the problem, so
        # both pipeline sets share them
        return distributed_pcg(
            self.dist,
            B,
            x0=guesses,
            local_preconds=self.problem.part_preconditioners(
                self.nparts, self.precision),
            eps=self.eps,
            workspace=self._pcg_ws,
            precision=self.precision,
        )

    # -- cost model -----------------------------------------------------
    @property
    def part_time_fraction(self) -> float:
        """Element share of the most-loaded part (the concurrent-parts
        bottleneck; 1/nparts when perfectly balanced)."""
        sizes = [len(e) for e in self.dist.info.part_elems]
        return max(sizes) / self.problem.n_elems

    def solver_time(self, device, tally: KernelTally) -> float:
        # halo.exchange records wire bytes, not device kernels — they
        # are priced on the nic lane by comm_time, so timing them at
        # HBM bandwidth here would double-count the exchange
        t = device.time_for_tally(tally) - device.time_for_tally(
            tally, prefix="halo.exchange"
        )
        return t * self.part_time_fraction

    def predictor_time(self, device, tally: KernelTally) -> float:
        # the predictor partitions over the same dofs and needs no
        # communication (the paper's §2.2 scaling argument)
        return device.time_for_tally(tally) * self.part_time_fraction

    def comm_time(self, res: CGResult) -> float:
        """Non-overlapped inter-part seconds of one distributed solve.

        One halo exchange per operator application (initial residual +
        every loop iteration) at the bottleneck part's surface volume,
        plus two scalar allreduces per iteration.
        """
        if self.nparts == 1:
            return 0.0
        n_exchanges = res.loop_iterations + 1
        # the wire moves storage-precision words (the plan's reference
        # bytes are fp64)
        halo_bytes = (
            self.dist.plan.max_bytes_per_exchange()
            * self.precision.storage_ratio
            * self.r
        )
        t_halo = self._comm.halo_time([halo_bytes]) * (1.0 - self.overlap_fraction)
        t_reduce = 2.0 * self._comm.allreduce_time(8.0 * self.r, self.nparts)
        return n_exchanges * t_halo + res.loop_iterations * t_reduce
