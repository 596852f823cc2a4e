"""The paper's contribution: heterogeneous multi-case time evolution.

* :class:`~repro.core.problem.ElasticProblem` — everything needed to
  time-step one discretized dynamic-elasticity model (Eq. 5);
* :mod:`~repro.core.methods` — the four compared methods:
  ``CRS-CG@CPU``, ``CRS-CG@GPU`` (Algorithm 2), ``CRS-CG@CPU-GPU``
  (Algorithm 4), ``EBE-MCG@CPU-GPU`` (Algorithm 3);
* :mod:`~repro.core.pipeline` — the one time-step loop
  (:class:`~repro.core.pipeline.StepDriver`) and its two schedules on a
  simulated timeline: :class:`~repro.core.pipeline.SequentialSchedule`
  (Algorithm 2) and :class:`~repro.core.pipeline.HeterogeneousPipeline`
  (the two-process-set CPU/GPU overlap of Algorithms 3/4);
* :mod:`~repro.core.results` — per-step records and table-ready
  summaries.
"""

from repro.core.problem import ElasticProblem, build_problem
from repro.core.results import RunResult, StepRecord
from repro.core.methods import METHODS, run_method
from repro.core.partitioned import PartitionedCaseSet

__all__ = [
    "ElasticProblem",
    "build_problem",
    "RunResult",
    "StepRecord",
    "METHODS",
    "run_method",
    "PartitionedCaseSet",
]
