"""Analytic flop / byte models for the SpMV kernels.

These are the *device-kernel* costs — what a tuned GPU/CPU kernel moves
through main memory — not what the NumPy reference implementation
happens to allocate.  They drive the hardware roofline model that
regenerates the paper's Table 2.

Conventions (4-byte indices, ``value_bytes`` per stored value):

* Floating point *values* — matrix blocks, solver vectors, the
  preconditioner — are charged at ``value_bytes`` each (default 8.0,
  fp64).  Transprecision storage (:mod:`repro.sparse.precision`) passes
  the policy's itemsize here (4.0 for fp32, 21/8 for fp21), which is
  how the FP32/FP21 byte savings reach the roofline: flops are
  unchanged, bytes shrink with the word, so the bandwidth-bound kernels
  speed up proportionally.
* Structural data is precision-independent: column/connectivity indices
  are 4-byte integers, nodal coordinates (24 B/node) and material
  parameters (16 B/element) keep their native widths.
* block-CRS SpMV: each 3x3 block is read once (9 values + a 4 B column
  index); the source and destination vectors stream once
  (2 values/scalar dof).  flops = 18 per block.
* EBE SpMV (Eq. 8): matrix-free.  Per element: connectivity (40 B) and
  material (16 B) are read and the element matrix is *recomputed*
  (:data:`EBE_CONSTRUCTION_FLOPS` flops); nodal coordinates and the
  gathered/scattered vectors are counted at perfect-cache unique
  traffic (each node read once per sweep).  Per right-hand side:
  the 30x30 mat-vec costs 1800 flops/element, and x/y move
  6 values/node.  Fusing r right-hand sides (Eq. 9) amortizes every
  per-element term over r — the paper's "block random access is
  reduced to 1/r".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sparse.precision import Precision, as_precision

__all__ = ["KernelWork", "crs_traffic", "ebe_traffic", "vector_traffic",
           "cg_vector_traffic", "block_jacobi_traffic",
           "modeled_solver_bytes_per_iteration",
           "transfer_traffic", "coarse_solve_traffic",
           "EBE_CONSTRUCTION_FLOPS"]

#: Estimated flops to rebuild one TET10 effective element matrix
#: (Jacobians + quadrature contractions) inside the fused EBE kernel.
#: Chosen so that total EBE flops/element (~3.7 kflop) matches the
#: paper's measured 43 GFLOP per 11.4M-element sweep (Table 2).
EBE_CONSTRUCTION_FLOPS: float = 1900.0

_IDX_BYTES = 4


@dataclass(frozen=True)
class KernelWork:
    """Work of one kernel invocation, per problem case."""

    flops: float
    bytes: float

    @property
    def intensity(self) -> float:
        """Arithmetic intensity [flop/byte]."""
        return self.flops / self.bytes if self.bytes else float("inf")


def crs_traffic(
    nnzb: int,
    n_block_rows: int,
    n_rhs: int = 1,
    value_bytes: float = 8.0,
) -> KernelWork:
    """Per-case work of a 3x3 block-CRS SpMV.

    ``nnzb`` is the number of stored 3x3 blocks, ``n_block_rows`` the
    number of block rows (= nodes).  With multiple right-hand sides the
    matrix is re-streamed per case (no fusion benefit in the CRS
    baseline; this matches the paper's use of CRS for r = 1 only).
    ``value_bytes`` is the storage width of matrix blocks and vectors.
    """
    flops = 18.0 * nnzb
    bytes_ = (
        (9 * value_bytes + _IDX_BYTES) * nnzb  # blocks + column indices
        + _IDX_BYTES * (n_block_rows + 1)
        + 2 * value_bytes * 3 * n_block_rows  # stream x once, write y once
    )
    return KernelWork(flops=flops, bytes=bytes_)


def ebe_traffic(
    n_elems: int,
    n_nodes: int,
    n_rhs: int = 1,
    value_bytes: float = 8.0,
) -> KernelWork:
    """Per-case work of the matrix-free EBE SpMV with ``n_rhs`` fused
    right-hand sides (Eq. 8 for r=1, Eq. 9 for r>1).  ``value_bytes``
    is the storage width of the gathered/scattered case vectors."""
    if n_rhs < 1:
        raise ValueError("n_rhs must be >= 1")
    per_elem_fixed_bytes = 40.0 + 16.0  # connectivity + material
    per_node_fixed_bytes = 24.0  # coordinates
    # Flops per case are independent of fusion: the paper reports the
    # same ~43 GFLOP/case for EBE and EBE4 (Table 2: 9.51 TFLOPS x
    # 4.56 ms == 18.1 TFLOPS x 2.39 ms).  Fusion pays off in *bytes*:
    # fixed per-element/per-node traffic is shared across the r cases.
    per_case_flops = (1800.0 + EBE_CONSTRUCTION_FLOPS) * n_elems
    per_case_bytes = (
        (per_elem_fixed_bytes * n_elems + per_node_fixed_bytes * n_nodes) / n_rhs
        + 2 * value_bytes * 3 * n_nodes  # gather x + scatter y at unique traffic
    )
    return KernelWork(flops=per_case_flops, bytes=per_case_bytes)


def transfer_traffic(
    nnz: int,
    n_rows: int,
    n_cols: int,
    value_bytes: float = 8.0,
) -> KernelWork:
    """Per-case work of one grid-transfer application (restriction or
    prolongation): a node-level CSR with ``nnz`` interpolation weights
    applied to 3-component dof vectors.  The weight matrix streams once
    (value + 4 B column index per entry, plus the row pointer), and the
    source/destination dof vectors stream once each at ``value_bytes``.
    flops = one multiply-add per weight per component."""
    flops = 2.0 * 3 * nnz
    bytes_ = (
        (value_bytes + _IDX_BYTES) * nnz  # weights + column indices
        + _IDX_BYTES * (n_rows + 1)  # row pointers
        + value_bytes * 3 * (n_rows + n_cols)  # write out, read in
    )
    return KernelWork(flops=flops, bytes=bytes_)


def coarse_solve_traffic(
    factor_nnz: int,
    n: int,
    value_bytes: float = 8.0,
) -> KernelWork:
    """Per-case work of the prefactorized direct coarse solve: two
    triangular sweeps streaming the ``factor_nnz`` stored L+U entries
    (value + 4 B index each) with one multiply-add per entry, plus the
    right-hand side read and solution write of both sweeps."""
    flops = 2.0 * factor_nnz
    bytes_ = (value_bytes + _IDX_BYTES) * factor_nnz + 4 * value_bytes * n
    return KernelWork(flops=flops, bytes=bytes_)


def vector_traffic(
    n: int,
    n_reads: int,
    n_writes: int,
    flops_per_entry: float,
    value_bytes: float = 8.0,
) -> KernelWork:
    """Work of a streaming vector kernel (axpy, dot, preconditioner...)."""
    return KernelWork(
        flops=flops_per_entry * n,
        bytes=value_bytes * n * (n_reads + n_writes),
    )


def cg_vector_traffic(n: int, value_bytes: float = 8.0) -> KernelWork:
    """Per-case vector work of one PCG iteration: 13 streams per entry.
    The 11 on the r/z/p/q side move ``value_bytes`` words; the solution
    x (one read + one write) stays fp64 under every storage policy —
    the same split ``estimate_memory`` footprints."""
    w = vector_traffic(n, n_reads=9, n_writes=2, flops_per_entry=12.0,
                       value_bytes=value_bytes)
    return KernelWork(flops=w.flops, bytes=w.bytes + 8.0 * n * 2)


def block_jacobi_traffic(n: int, value_bytes: float = 8.0) -> KernelWork:
    """Per-case work of one block-Jacobi application: the inverted 3x3
    blocks and the residual stream in, the preconditioned vector out."""
    return vector_traffic(n, n_reads=2, n_writes=1, flops_per_entry=6.0,
                          value_bytes=value_bytes)


def modeled_solver_bytes_per_iteration(
    n_elems: int,
    n_nodes: int,
    n_rhs: int,
    precision: Precision | str | None = None,
) -> float:
    """Modeled main-memory bytes one fused EBE-MCG CG iteration moves
    *per case*: one EBE sweep (Eq. 9), one block-Jacobi application and
    the CG vector updates, all streaming at the policy's itemsize.

    Built from the same three charges the executed solve tallies, so
    the transprecision benchmark's paper-size table (FP21 must land at
    <= 0.55x of fp64, the "traffic nearly halved" claim) cannot drift
    from what an iteration is charged.
    """
    width = as_precision(precision).itemsize
    n = 3 * n_nodes
    return (
        ebe_traffic(n_elems, n_nodes, n_rhs=n_rhs, value_bytes=width).bytes
        + block_jacobi_traffic(n, width).bytes
        + cg_vector_traffic(n, width).bytes
    )
