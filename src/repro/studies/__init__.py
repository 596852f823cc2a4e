"""Design studies on top of the core library.

* :mod:`~repro.studies.sensitivity` — the paper's stated future work
  (§4): "understand sensitivities to the relevant architectural
  features, e.g., CPU memory, CPU-GPU bandwidth, and GPU throughput".
  Characterizes a real workload once, then sweeps modeled hardware
  parameters.
* :mod:`~repro.studies.ablation` — predictor design ablations: what
  each ingredient (Adams-Bashforth base, MGS correction, force input,
  subdomain split, history length) buys in solver iterations.
* :mod:`~repro.studies.weakscaling` — weak/strong-scaling sweeps over
  the distributed part-local solver, one campaign cell per part count.
* :mod:`~repro.studies.transprecision` — accuracy-vs-speed sweeps over
  the FP64/FP32/FP21 storage policies, one campaign cell per
  precision (achieved residual, iteration inflation, modeled speedup).
* :mod:`~repro.studies.scenarios` — cross-scenario difficulty sweeps
  over the registered workload library, one campaign cell per
  scenario (iterations/step, earned predictor history, achieved
  residual, inflation vs the impulse anchor).
* :mod:`~repro.studies.twogrid` — preconditioner comparison: paired
  block-Jacobi vs geometric two-grid cells per scenario x resolution
  (iteration reduction and modeled time, anchored on soft-soil).
* :mod:`~repro.studies.predictors` — initial-guess predictor zoo
  sweep over the registered accelerators (constant/linear ladder,
  Adams-Bashforth, Aitken, IQN-ILS, data-driven), one campaign cell
  per scenario x predictor (iterations/step, earned history,
  inflation vs the data-driven anchor).
* :mod:`~repro.studies.endurance` — memory- and I/O-flatness profile
  of one long scenario run through the bounded ring/spill logs
  (throughput, short-vs-long tracemalloc peaks, checkpoint bytes per
  flush), with the pass/fail gates the nightly benchmark enforces.

Both sweeps are also expressible as *campaigns* (see
:mod:`repro.campaign`): ``ablation_cells`` / ``sensitivity_cells``
emit the same work as content-hashed cells that the shared
``CampaignRunner`` caches and parallelizes.
"""

from repro.studies.sensitivity import (  # isort: skip
    SensitivityPoint,
    StepProfile,
    characterize_pipeline,
    modeled_step_time,
    run_sensitivity_campaign,
    scaled_module,
    sensitivity_cells,
    sweep_parameter,
)
from repro.studies.ablation import (
    PredictorAblation,
    ablation_cells,
    run_ablation_campaign,
    run_predictor_ablation,
)
from repro.studies.weakscaling import (
    ScalingPoint,
    scaling_cells,
    scaling_table,
)
from repro.studies.transprecision import (
    TransprecisionPoint,
    modeled_solver_bytes_per_iteration,
    transprecision_cells,
    transprecision_table,
)
from repro.studies.scenarios import (
    ScenarioPoint,
    render_scenario_table,
    scenario_cells,
    scenario_table,
)
from repro.studies.twogrid import (
    TwoGridPoint,
    render_twogrid_table,
    twogrid_cells,
    twogrid_table,
)
from repro.studies.predictors import (
    PredictorPoint,
    predictor_cells,
    predictor_table,
    render_predictor_table,
)
from repro.studies.endurance import (
    EndurancePoint,
    endurance_gates,
    render_endurance_report,
    run_endurance,
)

__all__ = [
    "StepProfile",
    "SensitivityPoint",
    "characterize_pipeline",
    "modeled_step_time",
    "scaled_module",
    "sweep_parameter",
    "sensitivity_cells",
    "run_sensitivity_campaign",
    "PredictorAblation",
    "run_predictor_ablation",
    "ablation_cells",
    "run_ablation_campaign",
    "ScalingPoint",
    "scaling_cells",
    "scaling_table",
    "TransprecisionPoint",
    "transprecision_cells",
    "transprecision_table",
    "modeled_solver_bytes_per_iteration",
    "ScenarioPoint",
    "scenario_cells",
    "scenario_table",
    "render_scenario_table",
    "TwoGridPoint",
    "twogrid_cells",
    "twogrid_table",
    "render_twogrid_table",
    "PredictorPoint",
    "predictor_cells",
    "predictor_table",
    "render_predictor_table",
    "EndurancePoint",
    "run_endurance",
    "endurance_gates",
    "render_endurance_report",
]
