"""Sparse linear algebra substrate.

Implements the two matrix application strategies the paper compares:

* :class:`~repro.sparse.bcrs.BlockCRS` — 3x3 block compressed row
  storage, the "CRS" baseline (paper Algorithm 1 / Table 2 rows 1-2);
* :class:`~repro.sparse.ebe.EBEOperator` — matrix-free
  element-by-element application (Eq. 8) with fused multi-right-hand-
  side support (Eq. 9, "EBE4").

plus the preconditioned conjugate gradient solver of Algorithm 1 with
single- and multi-RHS (MCG) modes, the transprecision storage policies
(:mod:`repro.sparse.precision`: fp64 / fp32 / fp21 with an
FP64-accurate outer loop), and the analytic per-kernel flop/byte
traffic models that feed the hardware roofline.
"""

from repro.sparse.backend import (
    ArrayBackend,
    BackendUnavailableError,
    as_backend,
    available_backend_names,
    backend_by_name,
    backend_names,
    default_backend_name,
    register_backend,
)
from repro.sparse.bcrs import BlockCRS
from repro.sparse.precision import (
    FP21,
    FP32,
    FP64,
    PRECISIONS,
    Precision,
    as_precision,
)
from repro.sparse.precond import BlockJacobi
from repro.sparse.cg import CGResult, pcg
from repro.sparse.distributed import (
    PartitionedReduction,
    distributed_pcg,
    part_block_jacobi,
)
from repro.sparse.ebe import EBEOperator
from repro.sparse.traffic import (
    crs_traffic,
    ebe_traffic,
    modeled_solver_bytes_per_iteration,
    vector_traffic,
)

__all__ = [
    "ArrayBackend",
    "BackendUnavailableError",
    "as_backend",
    "available_backend_names",
    "backend_by_name",
    "backend_names",
    "default_backend_name",
    "register_backend",
    "BlockCRS",
    "BlockJacobi",
    "CGResult",
    "pcg",
    "distributed_pcg",
    "PartitionedReduction",
    "part_block_jacobi",
    "EBEOperator",
    "Precision",
    "FP64",
    "FP32",
    "FP21",
    "PRECISIONS",
    "as_precision",
    "crs_traffic",
    "ebe_traffic",
    "vector_traffic",
    "modeled_solver_bytes_per_iteration",
]
