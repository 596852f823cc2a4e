"""Design studies on top of the core library.

**The method-cell studies are one table.**  "Solve the same problem
many times — along which dimension?" is a row of
:data:`~repro.studies.sweeps.SWEEPS`: the swept
:func:`~repro.campaign.spec.method_cell_params` keywords and their
registry defaults, the key rows are compared *along* and its anchor
value, and the printed columns (plain metrics or ratios against the
anchor row).  ``SWEEP[name].cells(...)`` emits ordinary cached
``"method"`` campaign cells, ``.rows(outcomes)`` reduces them and
``.render(rows)`` prints them:

============== ========================================================
scenarios      every registered workload vs the ``impulse`` anchor
               (iterations/step, earned predictor history, residual)
transprecision FP64/FP32/FP21 storage vs ``fp64`` (residual, iteration
               inflation, modeled speedup)
weakscaling    part counts on an x-y tiled mesh, constant size per part
               (the paper's Fig. 5 protocol; parallel efficiency)
strongscaling  part counts on one fixed mesh (efficiency of ``p * t``)
twogrid        block-Jacobi vs the geometric two-grid cycle per
               scenario x resolution (iteration reduction, modeled
               speedup), soft-soil listed first
predictors     the initial-guess predictor zoo per scenario x
               resolution vs ``data-driven`` (iteration inflation,
               earned history)
============== ========================================================

Adding a study is adding a row — no cell builder, row class, reduction
or renderer.  The ROADMAP's predictor accounting ("is the data-driven
guess worth its history?") would read::

    Sweep(
        name="accounting", label="accounting",
        title="data-driven vs Adams-Bashforth by history cap",
        swept=("scenario", "s_max", "predictor"),
        values={"scenario": lambda: ("impulse", "aftershocks"),
                "s_max": lambda: (4, 8, 16, 32),
                "predictor": lambda: ("adams-bashforth", "data-driven")},
        along="predictor", anchor="adams-bashforth",
        columns=(Column("scenario", "scenario"), Column("s_max", "s_max"),
                 Column("predictor", "predictor"),
                 Column("iterations_per_step", "iters/step", ".1f"),
                 Column("vs_ab", "iters / AB", ".2f",
                        ratio=("iterations_per_step", "row/anchor"))),
    )

The other studies run in process over an already-built problem and
keep their own modules (a *cached* ablation, when one is wanted, is a
``Sweep`` row over method cells like the one above, not a cell kind of
its own):

* :mod:`~repro.studies.sensitivity` — the paper's stated future work
  (§4): "understand sensitivities to the relevant architectural
  features, e.g., CPU memory, CPU-GPU bandwidth, and GPU throughput".
  Characterizes a real workload once, then sweeps modeled hardware
  parameters.
* :mod:`~repro.studies.ablation` — predictor design ablations: what
  each ingredient (Adams-Bashforth base, MGS correction, force input,
  subdomain split, history length) buys in solver iterations.
* :mod:`~repro.studies.endurance` — memory- and I/O-flatness profile
  of one long scenario run through the bounded ring/spill logs
  (throughput, peak growth between two long runs, checkpoint bytes per
  flush), with the pass/fail gates the nightly benchmark enforces.
"""

from repro.studies.sensitivity import (  # isort: skip
    SensitivityPoint,
    StepProfile,
    characterize_pipeline,
    modeled_step_time,
    scaled_module,
    sweep_parameter,
)
from repro.studies.ablation import (
    PredictorAblation,
    run_predictor_ablation,
)
from repro.studies.sweeps import SWEEP, SWEEPS, Column, Sweep
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
    "PredictorAblation",
    "run_predictor_ablation",
    "Column",
    "Sweep",
    "SWEEPS",
    "SWEEP",
    "EndurancePoint",
    "run_endurance",
    "endurance_gates",
    "render_endurance_report",
]
