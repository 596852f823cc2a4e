"""The four compared methods (paper §3.2).

=================  ==========  ========================  ==============
method             solver on   matrix representation     predictor
=================  ==========  ========================  ==============
crs-cg@cpu         CPU         3x3 block CRS             Adams-Bashforth
crs-cg@gpu         GPU         3x3 block CRS             Adams-Bashforth
crs-cg@cpu-gpu     GPU         3x3 block CRS             data-driven@CPU
ebe-mcg@cpu-gpu    GPU         matrix-free EBE, r fused  data-driven@CPU
=================  ==========  ========================  ==============

The two ``@cpu-gpu`` methods run the heterogeneous two-set pipeline
(Algorithms 3/4); the baselines run Algorithm 2 sequentially on a
single device.

The predictor column is each method's *native* pairing — what
``predictor="auto"`` (the default) resolves to, and what every run
before the predictor axis existed used.  Any registered predictor from
:mod:`repro.predictor.registry` (``repro predictors`` lists the zoo)
can be swapped in per run via ``run_method(..., predictor=...)`` or
per campaign cell via the ``predictors`` axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.partitioned import PartitionedCaseSet
from repro.core.pipeline import (
    CaseSet,
    HeterogeneousPipeline,
    SequentialSchedule,
    StepDriver,
)
from repro.core.problem import ElasticProblem
from repro.core.results import RunResult
from repro.hardware.power import PowerModel, energy_of_timeline
from repro.hardware.roofline import DeviceModel
from repro.hardware.specs import SINGLE_GH200, ModuleSpec
from repro.hardware.transfer import TransferModel
from repro.predictor.adaptive import AdaptiveSController
from repro.predictor.registry import (
    DEFAULT_PREDICTOR,
    build_predictor,
    predictor_by_name,
)
from repro.sparse.backend import ArrayBackend, as_backend
from repro.sparse.precision import Precision, as_precision
from repro.sparse.precond import DEFAULT_PRECONDITIONER, PRECONDITIONERS

__all__ = ["METHODS", "HETEROGENEOUS_METHODS", "PARTITIONABLE_METHODS",
           "NATIVE_PREDICTORS", "native_predictor", "RunConfig",
           "run_method", "estimate_memory", "cpu_share_factors"]

METHODS = ("crs-cg@cpu", "crs-cg@gpu", "crs-cg@cpu-gpu", "ebe-mcg@cpu-gpu")

#: Each method's paper-native predictor (the table above) — what the
#: ``"auto"`` sentinel resolves to.  Naming the native predictor
#: explicitly is equivalent to the default in every observable way
#: (numerics, cell hash, checkpoint header).
NATIVE_PREDICTORS = {
    "crs-cg@cpu": "adams-bashforth",
    "crs-cg@gpu": "adams-bashforth",
    "crs-cg@cpu-gpu": "data-driven",
    "ebe-mcg@cpu-gpu": "data-driven",
}


def native_predictor(method: str) -> str:
    """The registered predictor name ``predictor="auto"`` resolves to
    for ``method`` (its paper-native pairing)."""
    try:
        return NATIVE_PREDICTORS[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}") from None

#: Methods that pair two process sets (and therefore need even
#: ensembles) — the single source of truth for the spec-time validator.
HETEROGENEOUS_METHODS = ("crs-cg@cpu-gpu", "ebe-mcg@cpu-gpu")

#: Methods that can run the distributed part-local solve (nparts > 1) —
#: the single source of truth shared by run_method, the CLI and the
#: campaign spec.
PARTITIONABLE_METHODS = ("ebe-mcg@cpu-gpu",)

#: Solver working vectors per case (x, r, z, p, q, b, u, v, a, f).
_VECTORS_PER_CASE = 10

#: Diminishing-returns caps of the per-process CPU share beyond the
#: 36-core reference: flops stop scaling at 1.5x (SMT/frequency
#: headroom), bandwidth at 1.2x (LPDDR already near saturation).
_FLOP_FACTOR_CAP = 1.5
_BW_FACTOR_CAP = 1.2

#: Reference thread count (paper: 36 of 72 Grace cores per process).
_REFERENCE_THREADS = 36


def cpu_share_factors(threads: int | None) -> tuple[float, float]:
    """(flop, bandwidth) derating of the per-process CPU share.

    The paper's reference configuration runs the predictor on 36 of 72
    Grace cores per process; the calibrated predictor efficiency
    corresponds to that.  Fewer threads lose compute linearly but
    bandwidth only as ~sqrt (LPDDR saturates below full core count) —
    this reproduces the Table 4 thread sweep shape.  Above the
    reference count both gains are capped (see the cap constants).
    """
    t = _REFERENCE_THREADS if threads is None else int(threads)
    if not 1 <= t <= 72:
        raise ValueError("threads must be in 1..72")
    ratio = t / _REFERENCE_THREADS
    return min(_FLOP_FACTOR_CAP, ratio), min(_BW_FACTOR_CAP, float(np.sqrt(ratio)))


def estimate_memory(
    problem: ElasticProblem,
    method: str,
    n_cases: int,
    s_max: int = 32,
    *,
    precision: Precision | str | None = None,
    nparts: int = 1,
    backend: "ArrayBackend | str | None" = None,
) -> tuple[float, float]:
    """Modeled (cpu_bytes, gpu_bytes) footprint of a method.

    Matrix footprints come from the actual assembled/EBE structures;
    history and vector footprints from the actual dof counts — so the
    numbers scale exactly like the paper's Table 3 memory columns.
    ``precision`` applies real itemsizes: the solver working vectors
    ``r, z, p, q``, the matrix values and the block-Jacobi inverses are
    counted at the storage width, while the solution/state vectors and
    the CPU-side predictor history stay fp64.

    With ``nparts > 1`` (``ebe-mcg@cpu-gpu`` only) the estimate is
    **per part**: the bottleneck part's footprint — its local operator
    share, its case vectors over every node it touches (halo *ghost*
    vectors included) and its halo send/receive staging — which is
    what one device must actually hold, not the fused global sum.

    The byte counts are read off the problem's operators at
    ``precision`` on ``backend``: a run names its engine so the
    estimate reads the operators it solved with rather than building a
    second set.  The numbers themselves are backend-independent.
    """
    prec = as_precision(precision)
    n = problem.n_dofs
    # r, z, p, q stream at storage precision; x, b, u, v, a, f stay fp64
    vec_per_dof = 4 * prec.itemsize + (_VECTORS_PER_CASE - 4) * 8.0
    vec = vec_per_dof * n
    ab_hist = 8.0 * n * 5  # u + 4 velocities
    dd_hist = 8.0 * n * (s_max + 1) + ab_hist
    # precond: one inverted 3x3 block per node = 3 values per dof
    precond = 3.0 * prec.itemsize * n

    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if nparts < 1:
        raise ValueError("nparts must be >= 1")
    if nparts > 1 and method not in PARTITIONABLE_METHODS:
        raise ValueError(
            f"per-part estimates (nparts > 1) require {PARTITIONABLE_METHODS}"
        )

    if method.startswith("crs"):
        # CRS storage: effective matrix + mass + damping (for the RHS)
        crs_bytes = 3.0 * problem.crs_operator(prec, backend).memory_bytes()
        if method == "crs-cg@cpu":
            return crs_bytes + precond + n_cases * (vec + ab_hist), 0.0
        if method == "crs-cg@gpu":
            # CPU keeps an assembly staging copy of the matrix
            return crs_bytes, crs_bytes + precond + n_cases * (vec + ab_hist)
        return (  # crs-cg@cpu-gpu
            crs_bytes + n_cases * dd_hist,
            crs_bytes + precond + n_cases * vec,
        )

    if nparts == 1:
        ebe_bytes = 3.0 * problem.ebe_operator(prec, backend).memory_bytes()
        return (
            ebe_bytes + n_cases * dd_hist,
            ebe_bytes + precond + n_cases * vec,
        )

    dist = problem.distributed_operator(nparts, prec, backend)
    cpu = gpu = 0.0
    for p, (op, nodes) in enumerate(zip(dist.local_ops, dist.local_to_global)):
        ld = 3 * nodes.size  # local dofs: owned + halo ghosts
        local_ebe = 3.0 * op.memory_bytes()
        local_precond = 3.0 * prec.itemsize * ld
        # staged halo surface (the literal MPI send buffers), one
        # column per case, storage-precision words on the wire
        stage = (
            dist.plan.part_shared_bytes[p] * prec.storage_ratio * n_cases
        )
        gpu_p = local_ebe + local_precond + n_cases * vec_per_dof * ld + stage
        # the predictor partitions over the same (ghost-inclusive) dofs
        cpu_p = local_ebe + n_cases * dd_hist * (ld / n)
        gpu = max(gpu, gpu_p)
        cpu = max(cpu, cpu_p)
    return cpu, gpu


@dataclass(frozen=True)
class RunConfig:
    """What a run computes, apart from its inputs (problem, forces,
    step count) and its I/O (waveform/record logs, checkpointing):
    exactly :func:`run_method`'s other keywords, validated and resolved
    once — ``precision`` to a :class:`Precision`, ``backend`` to an
    :class:`ArrayBackend`, ``predictor`` (``"auto"``/``None`` included)
    to a registered name.  Built by :func:`run_method` and handed whole
    to the schedule builder and the checkpoint header, so a new run
    parameter is one field here plus its use.
    """

    method: str
    module: ModuleSpec = SINGLE_GH200
    eps: float = 1e-8
    s_range: tuple[int, int] = (8, 32)
    n_regions: int = 16
    cpu_threads: int | None = None
    nparts: int = 1
    precision: "Precision | str | None" = None
    backend: "ArrayBackend | str | None" = None
    precond: str = DEFAULT_PRECONDITIONER
    predictor: str | None = DEFAULT_PREDICTOR

    def __post_init__(self) -> None:
        native = native_predictor(self.method)  # unknown methods fail here
        if self.nparts < 1:
            raise ValueError("nparts must be >= 1")
        if self.nparts > 1 and self.method not in PARTITIONABLE_METHODS:
            raise ValueError(
                "the distributed solve path (nparts > 1) requires one of "
                f"{PARTITIONABLE_METHODS}"
            )
        if self.precond not in PRECONDITIONERS:
            raise ValueError(
                f"unknown precond {self.precond!r}; choose from {PRECONDITIONERS}"
            )
        resolve = object.__setattr__  # frozen: each field is resolved once, here
        resolve(self, "nparts", int(self.nparts))
        resolve(self, "precision", as_precision(self.precision))
        resolve(self, "backend", as_backend(self.backend))
        if self.predictor in (None, DEFAULT_PREDICTOR):
            resolve(self, "predictor", native)
        else:
            # an explicit name must exist in the registry (typos fail
            # loudly before any work starts)
            resolve(self, "predictor", predictor_by_name(self.predictor).name)

    @property
    def op_kind(self) -> str:
        return "ebe" if self.method.startswith("ebe") else "crs"

    # -- checkpoint header ---------------------------------------------
    def _identity(self) -> tuple[tuple[str, object, object], ...]:
        """``(key, this run's value, what a header without the key
        means)`` for everything a checkpoint must agree with the
        resuming run on — resuming into a different configuration would
        produce silently wrong numbers.  Keys whose third entry is
        ``None`` are always written; the later ones only when the value
        differs from it, so documents from before those keys existed
        stay byte-identical and still resume.  A native predictor named
        explicitly counts as ``"auto"`` (equivalent in every observable
        way).  The execution *backend* is deliberately absent:
        checkpoints hold only fp64 host state (Newmark kinematics,
        predictor history), so a state saved under one backend resumes
        under any other."""
        native = self.predictor == native_predictor(self.method)
        return (
            ("method", self.method, None),
            ("nparts", self.nparts, None),
            ("precision", self.precision.name, None),
            ("precond", self.precond, DEFAULT_PRECONDITIONER),
            ("predictor", DEFAULT_PREDICTOR if native else self.predictor,
             DEFAULT_PREDICTOR),
        )

    def header(self, step: int, state: dict) -> dict:
        """The checkpoint document of ``state`` after ``step`` completed
        steps.  Key order is part of the on-disk format: the always-
        written keys, ``step``, ``state``, then the optional keys."""
        fields = self._identity()
        doc = {key: value for key, value, absent in fields if absent is None}
        doc["step"] = step
        doc["state"] = state
        doc.update(
            (key, value) for key, value, absent in fields
            if absent is not None and value != absent
        )
        return doc

    def check_header(self, state: dict, nt: int) -> int:
        """Validate a resume document against this run, loudly; returns
        the completed step count."""
        for key, want, absent in self._identity():
            got = state.get(key, absent)
            if got != want:
                raise ValueError(
                    f"checkpoint {key} {got!r} does not match "
                    f"this run ({want!r})"
                )
        step = int(state.get("step", -1))
        if not 0 < step <= nt:
            raise ValueError(
                f"checkpoint step {state.get('step')!r} outside 1..{nt}"
            )
        return step


def _case_set(
    cfg: RunConfig,
    problem: ElasticProblem,
    forces: Sequence[Callable[[int], np.ndarray]],
    **partition,
) -> CaseSet:
    """One process set under ``cfg``, one fresh predictor per case;
    ``partition`` (nparts, link) selects the distributed part-local
    solver."""
    s_min, s_max = cfg.s_range
    cls = PartitionedCaseSet if partition else CaseSet
    return cls(
        problem,
        forces=list(forces),
        predictors=[
            build_predictor(
                cfg.predictor, problem.n_dofs, problem.dt,
                s_min=s_min, s_max=s_max, n_regions=cfg.n_regions,
            )
            for _ in forces
        ],
        op_kind=cfg.op_kind,
        eps=cfg.eps,
        precision=cfg.precision,
        backend=cfg.backend,
        precond=cfg.precond,
        **partition,
    )


def _partition(cfg: RunConfig) -> dict:
    """The :class:`PartitionedCaseSet` keywords of ``cfg.nparts > 1``
    (empty at one part): the EBE sets run on the distributed part-local
    solver — halo exchange per CG iteration, comm on the inter-part
    link: the NIC when the module has one (multi-node), otherwise
    NVLink-C2C (single-node multi-GPU).  The partitioned operator and
    its per-part block inverses come from the problem, so both sets
    share them."""
    if cfg.nparts == 1:
        return {}
    module = cfg.module
    link = (TransferModel.nic(module) if module.interconnect_bandwidth > 0
            else TransferModel.c2c(module))
    return dict(nparts=cfg.nparts, link=link)


def _schedule(
    cfg: RunConfig,
    problem: ElasticProblem,
    forces: Sequence[Callable[[int], np.ndarray]],
    partition: dict,
    **logs,
) -> tuple[StepDriver, PowerModel]:
    """The method's schedule of the step loop and its power model: the
    baselines run Algorithm 2 with one case per set on their device,
    the ``@cpu-gpu`` methods Algorithms 3 (ebe) / 4 (crs) with two sets,
    CPU and GPU overlapped.  ``logs`` are the :class:`StepDriver`
    fields."""
    module = cfg.module
    if cfg.method not in HETEROGENEOUS_METHODS:
        device = cfg.method.split("@", 1)[1]
        schedule = SequentialSchedule(
            sets=[_case_set(cfg, problem, [f]) for f in forces],
            device=device,
            model=DeviceModel(module.cpu if device == "cpu" else module.gpu),
            **logs,
        )
        return schedule, PowerModel(
            module, cpu_load=1.0 if device == "cpu" else 0.0, gpu_load=1.0
        )

    n_cases = len(forces)
    if n_cases < 2 or n_cases % 2:
        raise ValueError("heterogeneous methods need an even case count (2 sets)")
    r = n_cases // 2
    flop_f, bw_f = cpu_share_factors(cfg.cpu_threads)
    threads = _REFERENCE_THREADS if cfg.cpu_threads is None else cfg.cpu_threads
    power = PowerModel(
        module, cpu_load=threads / module.cpu.n_cores, gpu_load=1.0
    )
    s_min, s_max = cfg.s_range
    schedule = HeterogeneousPipeline(
        set_a=_case_set(cfg, problem, forces[:r], **partition),
        set_b=_case_set(cfg, problem, forces[r:], **partition),
        cpu=DeviceModel(module.cpu, flop_factor=flop_f, bw_factor=bw_f),
        gpu=DeviceModel(module.gpu),
        power=power,
        c2c=TransferModel.c2c(module),
        controller=AdaptiveSController(s_min=s_min, s_max=s_max),
        **logs,
    )
    return schedule, power


def _run_chunks(
    driver: StepDriver,
    cfg: RunConfig,
    nt: int,
    start_state: dict | None,
    checkpoint_every: int,
    on_checkpoint: Callable[[dict], None] | None,
) -> None:
    """Drive ``nt`` total steps, optionally resuming from
    ``start_state`` and flushing a state document to ``on_checkpoint``
    every ``checkpoint_every`` completed steps.  Chunked execution is
    numerically invisible: ``run(k); run(nt-k)`` is bit-identical to
    ``run(nt)`` (the PR-2 resume contract every schedule honors — they
    share the loop).

    Flushed state documents are *incremental*: each embeds only the
    records/waves produced since the previous flush (the first flush of
    a fresh run is a full snapshot, keeping its bytes legacy-shaped),
    so checkpoint I/O is O(1) per step instead of O(done).  Resume
    accepts a full document — merge a flush sequence with
    :func:`repro.io.results.merge_checkpoint_docs`."""
    done = 0
    flushed = 0
    if start_state is not None:
        done = cfg.check_header(start_state, nt)
        driver.load_state_dict(start_state["state"])
        logged = driver.records[-1].step if driver.records else 0
        if logged != done:
            # replaying from the header's step on a state that is
            # already elsewhere would silently repeat or skip steps
            raise ValueError(
                f"checkpoint step {done} does not match its records "
                f"(last logged step {logged})"
            )
        flushed = done
    while done < nt:
        k = nt - done if checkpoint_every < 1 else min(checkpoint_every, nt - done)
        driver.run(k)
        done += k
        if on_checkpoint is not None and checkpoint_every >= 1 and done < nt:
            on_checkpoint(
                cfg.header(done, driver.state_dict(since_step=flushed))
            )
            flushed = done


def run_method(
    problem: ElasticProblem,
    forces: Sequence[Callable[[int], np.ndarray]],
    nt: int,
    method: str,
    module: ModuleSpec = SINGLE_GH200,
    *,
    eps: float = 1e-8,
    s_range: tuple[int, int] = (8, 32),
    n_regions: int = 16,
    cpu_threads: int | None = None,
    waveform_dofs: np.ndarray | None = None,
    nparts: int = 1,
    precision: Precision | str | None = None,
    backend: "ArrayBackend | str | None" = None,
    precond: str = DEFAULT_PRECONDITIONER,
    predictor: str = DEFAULT_PREDICTOR,
    start_state: dict | None = None,
    checkpoint_every: int = 0,
    on_checkpoint: Callable[[dict], None] | None = None,
    record_log=None,
    wave_log=None,
) -> RunResult:
    """Run one of the paper's four methods for ``nt`` time steps.

    Parameters
    ----------
    problem : the discretized model.
    forces : one ``f(it) -> (n,)`` callable per problem case.  For the
        heterogeneous methods the count must be even (two process
        sets); ``ebe-mcg`` fuses ``len(forces)//2`` cases per set.
    method : one of :data:`METHODS`.
    module : hardware model (default: the paper's single-GH200 node).
    s_range : admissible data-driven history range (paper: 8..32 on
        single-GH200, capped at 11 on Alps by CPU memory).
    cpu_threads : predictor threads per process (paper Table 4 sweeps
        36/24/16).
    waveform_dofs : optional dof indices whose displacement history is
        recorded each step (feeds the FDD analysis of Fig. 1).
    nparts : mesh partitions for the distributed solve path
        (``ebe-mcg@cpu-gpu`` only).  Each part runs the EBE sweep on
        its own device with halo exchange every CG iteration; compute
        scales with the bottleneck part, communication is charged on
        the ``nic`` timeline lane.
    precision : transprecision storage policy (``"fp64"`` / ``"fp32"``
        / ``"fp21"`` or a :class:`~repro.sparse.precision.Precision`).
        The solver's streamed data (operator values, working vectors,
        preconditioner, halo words) is stored — and its traffic
        modeled — at this width; the time integration, predictors and
        CG recurrences stay fp64.  The fp64 default is bit-identical
        to the precision-unaware driver.
    backend : execution engine for the sparse hot paths
        (:class:`~repro.sparse.backend.ArrayBackend`, registry name, or
        ``None`` for the ambient default — ``REPRO_BACKEND`` env
        override, else ``numpy``).  Changes *measured* wall time only:
        the numpy backend is bit-identical to the pre-seam driver, and
        modeled device/communication times, traffic tallies, memory
        estimates and energy numbers are backend-independent.
        Checkpoints are backend-agnostic: a state saved under one
        backend resumes under any other.
    precond : preconditioner family
        (:data:`~repro.sparse.precond.PRECONDITIONERS`): ``"bj"`` is
        the paper's 3x3 block-Jacobi, ``"twogrid"`` the geometric
        two-grid cycle (block-Jacobi smoothing + direct coarse solve)
        that collapses CG iteration counts on hard scenarios.  With
        ``nparts > 1`` the two-grid cycle runs globally (gather /
        apply / scatter, wire traffic on the ``nic`` lane).
        Checkpoints record a non-default precond in their header and
        refuse to resume under a different one.
    predictor : initial-guess predictor, a registered name from
        :mod:`repro.predictor.registry` (``repro predictors`` lists
        them) or the ``"auto"`` default — the method's paper-native
        pairing (:data:`NATIVE_PREDICTORS`: Adams-Bashforth for the
        single-device baselines, data-driven for the heterogeneous
        pipeline).  Naming the native predictor explicitly is
        equivalent to ``"auto"`` in every observable way.  Non-native
        predictors are recorded in checkpoint headers, which refuse to
        resume under a different one.
    start_state : a state document produced by ``on_checkpoint`` (or
        loaded via :func:`repro.io.results.load_pipeline_state`): the
        run resumes from the checkpointed step and only executes the
        remaining ones.  The resumed run's records, summary, timeline
        and energy numbers are bit-identical to an uninterrupted run,
        under either schedule (they share the step loop and the logs'
        part of the document).  The document's method/nparts/precision
        header must match this call, and its ``step`` the last step its
        records hold; mismatches raise ``ValueError``.
    checkpoint_every : flush a state document to ``on_checkpoint``
        every this many completed steps (0 = never).  Checkpointing
        does not perturb the numerics — chunked execution is
        bit-identical to a straight ``nt``-step run.
    on_checkpoint : callback receiving each intermediate state
        document (JSON-able; persist with
        :func:`repro.io.results.save_pipeline_state`).  Documents after
        the first embed only the records/waves tail since the previous
        flush (``state["tail_from"]``) — O(1) bytes per step; merge a
        sequence with :func:`repro.io.results.merge_checkpoint_docs`
        before resuming.
    record_log : optional :class:`repro.io.spill.RecordLog` replacing
        the in-memory per-step record list — endurance runs keep memory
        flat by ring-buffering recent records and spilling the rest to
        disk.  ``RunResult.records`` is then the log (iterable, same
        summaries).
    wave_log : optional :class:`repro.io.spill.WaveLog` replacing the
        in-memory waveform frame list (requires ``waveform_dofs``).
        ``RunResult.waveforms`` is ``None`` — the caller owns the log
        (``wave_log.stacked()`` reassembles the cube when spilling).
    """
    cfg = RunConfig(
        method=method, module=module, eps=eps, s_range=s_range,
        n_regions=n_regions, cpu_threads=cpu_threads, nparts=nparts,
        precision=precision, backend=backend, precond=precond,
        predictor=predictor,
    )
    if nt < 1:
        raise ValueError("nt must be >= 1")
    if checkpoint_every < 0:
        raise ValueError("checkpoint_every must be >= 0")
    driver, power = _schedule(
        cfg, problem, forces, _partition(cfg),
        waveform_dofs=waveform_dofs,
        records=[] if record_log is None else record_log,
        _waves=[] if wave_log is None else wave_log,
    )
    _run_chunks(driver, cfg, nt, start_state, checkpoint_every, on_checkpoint)
    cpu_mem, gpu_mem = estimate_memory(
        problem, method, len(forces), s_max=cfg.s_range[1],
        precision=cfg.precision, nparts=cfg.nparts, backend=cfg.backend,
    )
    return RunResult(
        method=method,
        module_name=module.name,
        n_cases=len(forces),
        n_dofs=problem.n_dofs,
        records=driver.records,
        timeline=driver.timeline,
        cpu_memory_bytes=cpu_mem,
        gpu_memory_bytes=gpu_mem,
        power=energy_of_timeline(driver.timeline, power),
        final_states=[s for cs in driver.sets for s in cs.states],
        # a caller-supplied wave log is the caller's to reassemble
        waveforms=None if wave_log is not None else driver.waveforms(),
    )
