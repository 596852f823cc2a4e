"""repro — reproduction of "Heterogeneous computing in a strongly-
connected CPU-GPU environment: fast multiple time-evolution
equation-based modeling accelerated using data-driven approach"
(Ichimura et al., SC 2024).

Quick start — one ensemble run::

    from repro import build_ground_problem, stratified_model, run_method
    from repro.analysis import ImpulseForce

    problem = build_ground_problem(stratified_model(), resolution=(6, 6, 3))
    forces = [ImpulseForce.random(problem.mesh, rng=i) for i in range(8)]
    result = run_method(problem, forces, nt=40, method="ebe-mcg@cpu-gpu")
    print(result.summary())

Many scenarios at once — a *campaign* (grid of ground models x input
waves x methods x resolutions, cached on disk, optionally executed
over a process pool)::

    from repro.campaign import (CampaignRunner, CampaignSpec,
                                ResultStore, default_waves)

    spec = CampaignSpec(
        name="demo",
        models=("stratified", "basin", "slanted"),
        waves=default_waves(2),
        methods=("crs-cg@gpu", "ebe-mcg@cpu-gpu"),
        resolutions=((3, 3, 2),),
        cases=2, steps=8,
    )
    report = CampaignRunner(store=ResultStore("campaign-results"),
                            jobs=4).run(spec)
    print(report.render())   # per-method + per-scenario tables

Workloads themselves are pluggable: ``CampaignSpec(scenarios=(...))``
fans the grid over registered scenarios — distinct ground-structure x
source-process bundles (``repro.workloads.scenario``;
``repro.scenario_names()`` lists the ones the library ships) — and
third-party scenarios plug in through ``@register_scenario``.  The
scenario is one of six campaign axes, all declared in one table
(``repro.campaign.axes``).

A second ``run`` of the same spec is pure cache hits: every cell is
keyed by a content hash of its parameters, and per-cell RNG seeds are
content-derived, so results never depend on grid shape or worker
placement.  The same engine is exposed as ``python -m repro campaign``
and underlies the design studies (``repro.studies``); see
``examples/campaign_sweep.py`` for an end-to-end script.

See README.md for the system inventory, ``benchmarks/`` for the
paper-table reproductions (``pytest -m slow``) and ``benchmarks/perf``
for measured wall-clock performance.
"""

from repro.core import ElasticProblem, RunResult, build_problem, run_method
from repro.core.methods import METHODS
from repro.workloads import (
    GROUND_MODELS,
    SCENARIOS,
    Scenario,
    basin_model,
    build_ground_problem,
    register_scenario,
    scenario_by_name,
    scenario_names,
    slanted_model,
    stratified_model,
)

__version__ = "1.0.0"

__all__ = [
    "ElasticProblem",
    "RunResult",
    "build_problem",
    "run_method",
    "METHODS",
    "GROUND_MODELS",
    "SCENARIOS",
    "Scenario",
    "register_scenario",
    "scenario_by_name",
    "scenario_names",
    "stratified_model",
    "basin_model",
    "slanted_model",
    "build_ground_problem",
    "__version__",
]
