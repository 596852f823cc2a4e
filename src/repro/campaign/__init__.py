"""Many-scenario campaign engine.

The paper's throughput story is about *ensembles*: many ground
structures x many input waves x several methods, all day long.  This
package turns that into a first-class subsystem:

* :mod:`~repro.campaign.axes` — the one :data:`AXES` table declaring
  every swept axis (key, spec field, default, validator, label);
* :mod:`~repro.campaign.spec` — declarative :class:`CampaignSpec`
  grids expanded into content-hashed :class:`CampaignCell` work items
  with deterministic per-cell RNG seeds;
* :mod:`~repro.campaign.store` — on-disk :class:`ResultStore` with
  content-hash caching (re-runs skip every already-computed cell);
* :mod:`~repro.campaign.runner` — :class:`CampaignRunner` executing
  cells inline or over a ``concurrent.futures`` process pool, with a
  per-kind executor registry (the built-in ``"method"`` kind is what
  every :mod:`repro.studies.sweeps` row runs);
* :mod:`~repro.campaign.aggregate` — :class:`CampaignReport`
  per-method / per-scenario summary tables.

Axes
----
Besides the plain grid a campaign sweeps the axes declared in
:mod:`~repro.campaign.axes` — one table that spec validation, grid
expansion, the cell schema, the executor, the report and the CLI flags
all iterate: workload ``scenarios`` (:mod:`repro.workloads.scenario`),
``nparts`` of the distributed part-local solver
(:func:`repro.sparse.distributed.distributed_pcg`, partitionable
methods only), storage ``precision``, execution ``backends``,
``preconditioners`` and ``predictors``.  One rule covers all of them:
a cell at an axis default keeps the content hash it had before the
axis existed, so growing a cached campaign along any axis recomputes
only the new values, and the cell seed depends on no axis, so sweeps
compare identical random draws.  Per-axis study helpers live in
:mod:`repro.studies`.

CLI: ``python -m repro campaign --models stratified,basin,slanted
--waves 2 --methods crs-cg@gpu,ebe-mcg@cpu-gpu --jobs 2``
(add ``--nparts 1,2,4`` with ``--methods ebe-mcg@cpu-gpu`` for the
distributed axis, ``--scenario impulse,aftershocks`` for the workload
axis).
"""

from repro.campaign.aggregate import CampaignReport, format_table
from repro.campaign.runner import (
    CELL_EXECUTORS,
    CampaignRunner,
    CellOutcome,
    register_executor,
)
from repro.campaign.spec import (
    CampaignCell,
    CampaignSpec,
    WaveSpec,
    cell_key,
    default_waves,
    derive_seed,
)
from repro.campaign.store import ResultStore
from repro.workloads.scenario import DEFAULT_SCENARIO

__all__ = [
    "DEFAULT_SCENARIO",
    "CampaignSpec",
    "CampaignCell",
    "WaveSpec",
    "cell_key",
    "derive_seed",
    "default_waves",
    "CampaignRunner",
    "CellOutcome",
    "CELL_EXECUTORS",
    "register_executor",
    "ResultStore",
    "CampaignReport",
    "format_table",
]
