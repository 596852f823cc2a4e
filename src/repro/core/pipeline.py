"""The time-step loop and its two schedules (paper Algorithms 2, 3 & 4).

A :class:`CaseSet` advances ``r`` cases one step: predict, solve,
update.  :class:`StepDriver` is the one loop over time steps — it owns
the per-step record log, the waveform frames and their share of a
checkpoint — and a *schedule* is what one step of it does with the
sets and the modeled devices:

* :class:`SequentialSchedule` — Algorithm 2: every set predicts and
  solves in turn on a single device lane.
* :class:`HeterogeneousPipeline` — Algorithms 3 (EBE) / 4 (CRS): two
  sets of ``r`` cases leapfrog.  While set B's solver occupies the GPU,
  set A's predictor runs on the CPU; after a synchronization and a C2C
  exchange the roles swap within the same time step.  If predictor
  time <= solver time, the predictor is completely hidden — the paper's
  central scheduling claim.

Numerically the sets are executed sequentially on the host under
either schedule — the dependency order is exactly that of Algorithm 2,
so results match a sequential per-case run to rounding (the fused
multi-RHS kernels order flops differently, nothing more); concurrency
exists in the modeled :class:`~repro.util.timeline.Timeline`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.problem import ElasticProblem
from repro.core.results import StepRecord
from repro.fem.newmark import NewmarkState
from repro.hardware.power import PowerModel
from repro.hardware.roofline import DeviceModel
from repro.hardware.transfer import TransferModel
from repro.sparse.backend import ArrayBackend, as_backend
from repro.sparse.cg import CGResult, PCGWorkspace, pcg
from repro.sparse.precision import Precision, as_precision
from repro.sparse.precond import DEFAULT_PRECONDITIONER, PRECONDITIONERS
from repro.util.counters import KernelTally, tally_scope
from repro.util.timeline import Timeline

__all__ = ["CaseSet", "StepDriver", "SequentialSchedule",
           "HeterogeneousPipeline", "PipelineState"]


def _s_effective(cs: "CaseSet") -> int | None:
    """The history length the set's predictors are using right now
    (``None`` for predictors without a history-length notion, so the
    ``s_used`` reporting does not dilute campaign means with zeros)."""
    return getattr(cs.predictors[0], "s_effective", None)


@dataclass
class CaseSet:
    """``r`` problem cases advanced together by one fused solver.

    ``op_kind`` selects the solver's matrix representation: ``"ebe"``
    gives Algorithm 3 (EBE-MCG), ``"crs"`` gives Algorithm 4 (CRS-CG;
    the paper uses r=1 there).  ``precision`` is the transprecision
    storage policy of the solver (operator values, block-Jacobi
    inverses and CG working vectors); the Newmark states, the RHS
    build and the predictors stay fp64 — the FP64-accurate outer loop.
    ``backend`` is the execution engine of the solver hot paths
    (:class:`~repro.sparse.backend.ArrayBackend` or registry name;
    ``None`` resolves the ambient default).  The ``numpy`` backend is
    bit-identical to the pre-seam pipeline, and modeled times are
    backend-independent.  ``precond`` names the preconditioner family
    (:data:`~repro.sparse.precond.PRECONDITIONERS`): ``"bj"`` is the
    paper's block-Jacobi, ``"twogrid"`` wraps it in the geometric
    two-grid cycle.
    """

    problem: ElasticProblem
    forces: Sequence[Callable[[int], np.ndarray]]
    predictors: Sequence
    op_kind: str = "ebe"
    eps: float = 1e-8
    precision: Precision | str | None = None
    backend: ArrayBackend | str | None = None
    precond: str = DEFAULT_PRECONDITIONER
    states: list[NewmarkState] = field(default_factory=list)
    _pcg_ws: PCGWorkspace = field(default_factory=PCGWorkspace, repr=False)
    # per-step force cache: row k of ``_F_T`` is case k's forcing for
    # step ``_F_step``, shared by predict (f_next) and solve (RHS)
    _F_T: np.ndarray | None = field(default=None, repr=False, compare=False)
    _F_step: int | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.forces) != len(self.predictors):
            raise ValueError("one predictor per case required")
        if self.op_kind not in ("ebe", "crs"):
            raise ValueError("op_kind must be 'ebe' or 'crs'")
        if self.precond not in PRECONDITIONERS:
            raise ValueError(
                f"precond must be one of {PRECONDITIONERS}, got {self.precond!r}"
            )
        self.precision = as_precision(self.precision)
        self.backend = as_backend(self.backend)
        if not self.states:
            self.states = [self.problem.zero_state() for _ in self.forces]
        # late import: repro.workloads pulls in the scenario registry,
        # which builds on core.problem but not on this module
        from repro.workloads.sources import as_source

        self.forces = [as_source(f) for f in self.forces]

    @property
    def r(self) -> int:
        return len(self.forces)

    def _operator(self):
        return (
            self.problem.ebe_operator(self.precision, self.backend)
            if self.op_kind == "ebe"
            else self.problem.crs_operator(self.precision, self.backend)
        )

    def _solve_system(self, B: np.ndarray, guesses: np.ndarray) -> CGResult:
        """Fused (M)CG refinement; the partitioned subclass swaps in
        the part-local solver here without touching the Newmark loop."""
        return pcg(
            self._operator(),
            B,
            x0=guesses,
            precond=self.problem.preconditioner_for(
                self.precond, self.precision, self.backend, self.op_kind
            ),
            eps=self.eps,
            workspace=self._pcg_ws,
            precision=self.precision,
            backend=self.backend,
        )

    # -- timing hooks (overridden by PartitionedCaseSet) ---------------
    def solver_time(self, device, tally: KernelTally) -> float:
        """Modeled device seconds for one solve's work tally."""
        return device.time_for_tally(tally)

    def predictor_time(self, device, tally: KernelTally) -> float:
        """Modeled device seconds for one predict's work tally."""
        return device.time_for_tally(tally)

    def comm_time(self, res: CGResult) -> float:
        """Modeled inter-part communication seconds of one solve
        (0 for the fused single-address-space set)."""
        return 0.0

    def forces_at(self, it: int) -> np.ndarray:
        """The ``(r, n_dofs)`` forcing for step ``it``, evaluated into a
        reused buffer **at most once per step**: the pipeline always
        predicts a step before solving it, so predict fills the cache
        and solve reuses it.  Evaluation happens outside the kernel
        tally scopes — forcing is input data, not modeled device work —
        and sources with declared quiet windows make silent steps a
        memset."""
        if self._F_step != it:
            if self._F_T is None or self._F_T.shape != (
                self.r,
                self.problem.n_dofs,
            ):
                self._F_T = np.empty((self.r, self.problem.n_dofs))
            for k, f in enumerate(self.forces):
                f.evaluate(it, self._F_T[k])
            self._F_step = it
        return self._F_T

    def predict(self, it: int) -> tuple[np.ndarray, KernelTally]:
        """All cases' initial guesses for step ``it``, and the
        predictor work tally.  The upcoming force (known in advance —
        the paper's Eq. 3 input ``f_it``) is passed to force-aware
        predictors."""
        F_T = self.forces_at(it)
        with tally_scope() as t:
            guesses = np.column_stack(
                [
                    p.predict(f_next=F_T[k])
                    for k, p in enumerate(self.predictors)
                ]
            )
        return guesses, t

    def solve(self, it: int, guesses: np.ndarray) -> tuple[CGResult, KernelTally]:
        """RHS build + fused (M)CG refinement + state advance + predictor
        observation for time step ``it``; returns the solver work tally."""
        pb = self.problem
        nm = pb.newmark
        F_T = self.forces_at(it)
        with tally_scope() as t:
            # fused effective RHS (Eq. 5 right side) for all cases
            U = np.column_stack([s.u for s in self.states])
            V = np.column_stack([s.v for s in self.states])
            Acc = np.column_stack([s.a for s in self.states])
            F = F_T.T
            UM = nm.c_mass * U + (4.0 / pb.dt) * V + Acc
            UC = nm.c_damp * U + V
            B = F + pb.mass_operator(self.op_kind, self.backend) @ UM
            B += pb.damping_operator(self.op_kind, self.backend) @ UC
            B[pb.fixed_dofs, :] = 0.0

            res = self._solve_system(B, guesses)
        X = res.x if res.x.ndim == 2 else res.x[:, None]
        for k in range(self.r):
            self.states[k] = nm.advance(self.states[k], X[:, k])
            self.predictors[k].observe(
                self.states[k].u, self.states[k].v, f=F[:, k]
            )
        return res, t

    def displacements(self) -> np.ndarray:
        return np.column_stack([s.u for s in self.states])

    # -- checkpoint/resume --------------------------------------------
    def state_dict(self) -> dict:
        """JSON-able snapshot of the set's numeric state: the Newmark
        kinematics and each predictor's history.  Operators, the
        preconditioner and the PCG workspace are rebuilt/reallocated —
        they are pure functions of the problem, not state."""
        doc = {
            "states": [
                {"u": s.u, "v": s.v, "a": s.a, "step": int(s.step)}
                for s in self.states
            ],
            "predictors": [p.state_dict() for p in self.predictors],
        }
        # content addition: the built-in sources are stateless ({}), so
        # the key appears only when a source actually carries state —
        # existing snapshots stay byte-identical
        src_states = [f.state_dict() for f in self.forces]
        if any(src_states):
            doc["sources"] = src_states
        return doc

    def load_state_dict(self, doc: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place."""
        if len(doc["states"]) != self.r or len(doc["predictors"]) != self.r:
            raise ValueError(
                f"state has {len(doc['states'])} cases, set has {self.r}"
            )
        self.states = [
            NewmarkState(
                np.asarray(d["u"], dtype=float),
                np.asarray(d["v"], dtype=float),
                np.asarray(d["a"], dtype=float),
                step=int(d["step"]),
            )
            for d in doc["states"]
        ]
        for p, d in zip(self.predictors, doc["predictors"]):
            p.load_state_dict(d)
        if "sources" in doc:
            if len(doc["sources"]) != self.r:
                raise ValueError(
                    f"state has {len(doc['sources'])} sources, set has "
                    f"{self.r}"
                )
            for f, d in zip(self.forces, doc["sources"]):
                f.load_state_dict(d)
        # the cached step's forcing may belong to the abandoned future;
        # deterministic sources recompute it bit-identically
        self._F_step = None


@dataclass(kw_only=True)
class StepDriver:
    """The loop over time steps, and what every schedule of it shares.

    A schedule provides ``sets`` — its :class:`CaseSet` objects, in case
    order — and ``_step(it)``, which advances them all by one time step
    and returns the step's record (built by :meth:`_record`).  The
    driver owns the two per-step logs and their share of a checkpoint,
    so a step ends in exactly one place.  The logs may be the caller's
    (:class:`repro.io.spill.RecordLog` / :class:`~repro.io.spill.WaveLog`,
    or any ``list``): the probes of their optional surface live here
    and nowhere else.
    """

    records: list[StepRecord] = field(default_factory=list)
    waveform_dofs: np.ndarray | None = None
    _waves: list[np.ndarray] = field(default_factory=list)

    def run(self, nt: int) -> None:
        """Execute ``nt`` further time steps (appends to the logs).

        Calling ``run`` again continues seamlessly: ``run(nt); run(nt)``
        produces the same records and makespan as ``run(2 * nt)``.
        """
        start_step = self.records[-1].step + 1 if self.records else 1
        dofs = self.waveform_dofs
        for it in range(start_step, start_step + nt):
            self.records.append(self._step(it))
            if dofs is not None:
                self._waves.append(
                    np.concatenate([cs.displacements()[dofs].T for cs in self.sets])
                )

    @staticmethod
    def _record(it: int, results: Sequence[CGResult], **costs) -> StepRecord:
        """Step ``it``'s record from its solves (in set order) and its
        modeled ``costs``.  The worst residual is folded with a
        reduction that propagates NaN — the builtin ``max`` drops one
        depending on operand order, and a diverged solve would read as
        converged."""
        relres = np.concatenate([res.final_relres for res in results])
        return StepRecord(
            step=it,
            iterations=np.concatenate([res.iterations for res in results]),
            relres=float(np.max(relres)),
            **costs,
        )

    def waveforms(self) -> np.ndarray | None:
        """(ncases, nt, nrec) recorded displacements, if requested."""
        if not len(self._waves):
            return None
        if hasattr(self._waves, "stacked"):
            return self._waves.stacked()
        return np.stack(self._waves, axis=1)

    # -- the logs' share of a snapshot ----------------------------------
    def _logs_doc(self, since_step: int | None) -> dict:
        """``records`` and ``waves`` of a snapshot.  With ``since_step``
        (> 0) only the tail after that step is embedded and
        ``tail_from`` marks the cut, so a periodic checkpointer writes
        O(1) bytes per step instead of re-serializing the whole
        history; ``None`` or ``0`` means the full logs."""
        records, waves = self.records, self._waves
        if since_step:
            recs = (
                records.tail(since_step)
                if hasattr(records, "tail")
                else [r for r in records if r.step > since_step]
            )
            n = len(recs)
            if not len(waves):
                frames = []
            elif hasattr(waves, "last"):
                frames = waves.last(n)
            else:
                frames = list(waves[-n:]) if n else []
        else:
            recs = list(records)
            frames = waves.all() if hasattr(waves, "all") else list(waves)
        doc = {"records": [r.to_dict() for r in recs], "waves": frames}
        if since_step:
            doc["tail_from"] = int(since_step)
        return doc

    def _load_logs(self, records: list, waves: list, tail_from=None) -> None:
        """Reset both logs to a full snapshot's; a tail is refused."""
        if tail_from:
            raise ValueError(
                f"cannot resume from an incremental checkpoint tail "
                f"(tail_from={tail_from}); merge the checkpoint "
                "sequence with repro.io.results.merge_checkpoint_docs "
                "first"
            )
        recs = [StepRecord.from_dict(d) for d in records]
        if hasattr(self.records, "replace"):
            self.records.replace(recs)
        else:
            self.records = recs
        frames = [np.asarray(w, dtype=float) for w in waves]
        if hasattr(self._waves, "replace"):
            self._waves.replace(frames)
        else:
            self._waves = frames


@dataclass
class SequentialSchedule(StepDriver):
    """Algorithm 2 on one device: each set (the baselines run one case
    per set) predicts and solves in turn on the ``device`` lane.  The
    full numeric state (case sets, timeline, logs) snapshots through
    ``state_dict`` / ``load_state_dict``, so a checkpointed run resumes
    bit-identically — same contract as :class:`HeterogeneousPipeline`.
    """

    sets: list[CaseSet]
    device: str  # the timeline lane: "cpu" or "gpu"
    model: DeviceModel
    # single-lane schedule: the cpu/gpu overlap is identically zero, so
    # skip the overlap queues (keeps long runs O(1))
    timeline: Timeline = field(default_factory=lambda: Timeline(track_overlap=False))

    def _step(self, it: int) -> StepRecord:
        tl = self.timeline
        t0 = tl.makespan
        results, s_vals = [], []
        t_solve = t_pred = 0.0
        for cs in self.sets:
            # capture before predict: the history length this very
            # prediction consumes (same convention as the pipeline)
            s_vals.append(_s_effective(cs))
            guess, tp = cs.predict(it)
            res, ts = cs.solve(it, guess)
            tp_t = self.model.time_for_tally(tp)
            ts_t = self.model.time_for_tally(ts)
            tl.schedule(self.device, "predictor", tp_t)
            tl.schedule(self.device, "solver", ts_t)
            t_pred += tp_t
            t_solve += ts_t
            results.append(res)
        return self._record(
            it, results,
            t_solver=t_solve, t_predictor=t_pred, t_transfer=0.0,
            t_step=tl.makespan - t0,
            s_used=max((v for v in s_vals if v is not None), default=None),
        )

    # -- checkpoint/resume --------------------------------------------
    def state_dict(self, since_step: int | None = None) -> dict:
        """Snapshot between steps; ``since_step`` as in
        :meth:`StepDriver._logs_doc`."""
        return {
            "sets": [cs.state_dict() for cs in self.sets],
            "timeline": self.timeline.state_dict(),
            **self._logs_doc(since_step),
        }

    def load_state_dict(self, doc: dict) -> None:
        self._load_logs(doc["records"], doc["waves"], doc.get("tail_from"))
        if len(doc["sets"]) != len(self.sets):
            raise ValueError(
                f"state has {len(doc['sets'])} cases, driver has "
                f"{len(self.sets)}"
            )
        for cs, d in zip(self.sets, doc["sets"]):
            cs.load_state_dict(d)
        self.timeline.load_state_dict(doc["timeline"])


@dataclass
class PipelineState:
    """Mid-run snapshot of a :class:`HeterogeneousPipeline`.

    Captures everything the pipeline's step reads across step
    boundaries — the step index, both sets' Newmark/predictor
    state, set B's carried prediction (``_next_guesses_b`` /
    ``_next_s_b``), the adaptive controller, the full timeline and the
    per-step records — so a pipeline restored from a snapshot
    continues *bit-identically* to one that never stopped.  All fields
    are JSON-able (arrays as nested float lists, which round-trip
    exactly); :mod:`repro.io.results` persists snapshots to disk.

    ``tail_from`` marks an *incremental* snapshot: ``records``/``waves``
    hold only the steps after that index (the live numeric state is
    always complete).  Tails keep periodic checkpointing O(1) bytes per
    step; :func:`repro.io.results.merge_checkpoint_docs` reassembles a
    full snapshot from a contiguous run of them before resume.
    """

    step: int
    set_a: dict
    set_b: dict
    next_guesses_b: list | None
    next_s_b: int | None
    controller: dict | None
    timeline: dict
    records: list
    waves: list
    tail_from: int | None = None

    def to_dict(self) -> dict:
        doc = asdict(self)
        if doc.get("tail_from") is None:
            # content addition: full snapshots keep the legacy schema
            del doc["tail_from"]
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineState":
        unknown = set(doc) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown pipeline state keys {sorted(unknown)}")
        return cls(**doc)


@dataclass
class HeterogeneousPipeline(StepDriver):
    """Schedules two :class:`CaseSet` objects per Algorithm 3/4.

    Parameters
    ----------
    cpu, gpu : device timing models (``cpu`` should already reflect the
        per-process thread count).
    power : module power model (provides cap throttling).
    c2c : the strongly-connected CPU<->GPU transfer model.
    controller : optional :class:`~repro.predictor.adaptive.AdaptiveSController`;
        when given, every predictor with a ``set_s`` method follows it.
    """

    set_a: CaseSet
    set_b: CaseSet
    cpu: DeviceModel
    gpu: DeviceModel
    power: PowerModel
    c2c: TransferModel
    controller: object | None = None
    timeline: Timeline = field(default_factory=Timeline)
    # set B's prediction for the next step, carried across steps (and
    # run() calls, so resumed runs continue instead of re-bootstrapping)
    _next_guesses_b: np.ndarray | None = field(default=None, repr=False)
    # None when set B's predictor keeps no history length (see
    # ``_s_effective``); 0 only as the pre-bootstrap default
    _next_s_b: int | None = field(default=0, repr=False)

    @property
    def sets(self) -> tuple[CaseSet, CaseSet]:
        return self.set_a, self.set_b

    def _gpu_concurrent(self) -> DeviceModel:
        f = self.power.gpu_throttle_factor(cpu_concurrent=True)
        return self.gpu.throttled(f)

    def _exchange_time(self, n_vectors: int) -> float:
        """Full-duplex C2C exchange: guesses up, solutions down.

        Always fp64 words: the exchanged vectors are the predictor
        guesses and the solutions — exactly the ``x``-side data the
        transprecision policy keeps at full precision (only the
        solver-internal halo/NIC traffic moves storage-width words).
        """
        nbytes = 8.0 * self.set_a.problem.n_dofs * n_vectors
        return self.c2c.time(nbytes)

    def _step(self, it: int) -> StepRecord:
        tl = self.timeline
        lanes = ["cpu", "gpu", "c2c", "nic"]

        if self._next_guesses_b is None:
            # Bootstrap (first step only): set B's first prediction
            # (Algorithm 3 needs x_bar for the first phase-A solve).
            # Every later step — resumed runs included — reuses the
            # prediction made in phase B of the step before;
            # re-predicting here would double-charge the predictor and
            # call predict twice without an intervening observe.
            self._next_guesses_b, tp = self.set_b.predict(it)
            self._next_s_b = _s_effective(self.set_b)
            tl.schedule("cpu", "predictor", self.set_b.predictor_time(self.cpu, tp))
            tl.barrier(lanes)
        guesses_b, s_used_b = self._next_guesses_b, self._next_s_b

        t0 = tl.makespan

        # ---- phase A: predictor(A)@CPU || solver(B)@GPU ----
        guesses_a, tp_a = self.set_a.predict(it)
        s_used_a = _s_effective(self.set_a)
        res_b, ts_b = self.set_b.solve(it, guesses_b)
        t_cpu_a = self.set_a.predictor_time(self.cpu, tp_a)
        t_gpu_a = self.set_b.solver_time(self._gpu_concurrent(), ts_b)
        t_nic_a = self.set_b.comm_time(res_b)
        tl.schedule("cpu", "predictor", t_cpu_a)
        tl.schedule("gpu", "solver", t_gpu_a)
        if t_nic_a > 0.0:
            # halo/allreduce traffic not hidden behind the sweep,
            # serialized after the solver phase it belongs to
            tl.schedule("nic", "halo", t_nic_a, not_before=tl.now("gpu"))
        sync = tl.barrier(["cpu", "gpu", "nic"])
        t_x1 = self._exchange_time(self.set_a.r)
        tl.schedule("c2c", "exchange", t_x1, not_before=sync)
        tl.barrier(lanes)

        # ---- phase B: solver(A)@GPU || predictor(B)@CPU ----
        res_a, ts_a = self.set_a.solve(it, guesses_a)
        self._next_guesses_b, tp_b = self.set_b.predict(it + 1)
        self._next_s_b = _s_effective(self.set_b)
        t_gpu_b = self.set_a.solver_time(self._gpu_concurrent(), ts_a)
        t_nic_b = self.set_a.comm_time(res_a)
        t_cpu_b = self.set_b.predictor_time(self.cpu, tp_b)
        tl.schedule("gpu", "solver", t_gpu_b)
        tl.schedule("cpu", "predictor", t_cpu_b)
        if t_nic_b > 0.0:
            tl.schedule("nic", "halo", t_nic_b, not_before=tl.now("gpu"))
        sync = tl.barrier(["cpu", "gpu", "nic"])
        t_x2 = self._exchange_time(self.set_b.r)
        tl.schedule("c2c", "exchange", t_x2, not_before=sync)
        tl.barrier(lanes)

        if self.controller is not None:
            t_pred = max(t_cpu_a, t_cpu_b)
            t_solve = max(t_gpu_a, t_gpu_b)
            s_new = self.controller.update(t_pred, t_solve)
            for p in (*self.set_a.predictors, *self.set_b.predictors):
                if hasattr(p, "set_s"):
                    p.set_s(s_new)

        return self._record(
            it, (res_a, res_b),
            t_solver=t_gpu_a + t_gpu_b,
            t_predictor=t_cpu_a + t_cpu_b,
            t_transfer=t_x1 + t_x2,
            t_step=tl.makespan - t0,
            # s actually used by the predictions consumed this step:
            # set A predicted in phase A above; set B's guess was
            # produced at the end of the previous step (or the
            # bootstrap), before any controller update in between.
            s_used=s_used_a,
            s_used_b=s_used_b,
            t_halo=t_nic_a + t_nic_b,
        )

    # -- checkpoint/resume --------------------------------------------
    def save_state(self, since_step: int | None = None) -> PipelineState:
        """Snapshot the pipeline between steps (i.e. between ``run``
        calls) for later :meth:`load_state`.  Resuming from the
        snapshot and finishing the remaining steps is bit-identical to
        an uninterrupted run — records, summaries, timeline and energy
        numbers included.  ``since_step`` (> 0) makes the snapshot an
        incremental tail (see :meth:`StepDriver._logs_doc`).
        """
        return PipelineState(
            step=self.records[-1].step if len(self.records) else 0,
            set_a=self.set_a.state_dict(),
            set_b=self.set_b.state_dict(),
            next_guesses_b=self._next_guesses_b,
            next_s_b=None if self._next_s_b is None else int(self._next_s_b),
            controller=(
                self.controller.state_dict()
                if self.controller is not None
                and hasattr(self.controller, "state_dict")
                else None
            ),
            timeline=self.timeline.state_dict(),
            **self._logs_doc(since_step),
        )

    def load_state(self, state: PipelineState | dict) -> None:
        """Restore a :meth:`save_state` snapshot (accepts the dataclass
        or its :meth:`PipelineState.to_dict`/JSON-loaded dict form)."""
        if isinstance(state, dict):
            state = PipelineState.from_dict(state)
        self._load_logs(state.records, state.waves, state.tail_from)
        if state.step != (self.records[-1].step if self.records else 0):
            raise ValueError(
                f"state step {state.step} does not match its records"
            )
        self.set_a.load_state_dict(state.set_a)
        self.set_b.load_state_dict(state.set_b)
        guesses, s_b = state.next_guesses_b, state.next_s_b
        self._next_guesses_b = (
            None if guesses is None else np.asarray(guesses, dtype=float)
        )
        self._next_s_b = None if s_b is None else int(s_b)
        if state.controller is not None:
            if self.controller is None or not hasattr(
                self.controller, "load_state_dict"
            ):
                raise ValueError(
                    "state has controller history but this pipeline "
                    "has no compatible controller"
                )
            self.controller.load_state_dict(state.controller)
        self.timeline.load_state_dict(state.timeline)

    # the snapshot surface every schedule offers ``run_method``
    def state_dict(self, since_step: int | None = None) -> dict:
        return self.save_state(since_step).to_dict()

    load_state_dict = load_state
