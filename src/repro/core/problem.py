"""Problem container: one discretized dynamic-elasticity model.

Bundles the element matrices, constrained effective operator, Newmark
coefficients and boundary data so the method drivers
(:mod:`repro.core.methods`) can be written purely in terms of
operators.  Both matrix representations (block-CRS and EBE) are built
lazily from the *same* constrained element matrices, which is what
makes the CRS-vs-EBE comparisons apples-to-apples and lets tests assert
exact agreement.  The problem is also the one place a run's operators
come from: solver, RHS, preconditioners and the mesh partition are each
built once per (storage precision, engine) pair and cached here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from repro.fem.assembly import apply_dirichlet_to_elements, assemble_bsr
from repro.fem.elements import (
    element_mass_stiffness,
    face_dashpot_matrices,
    fold_faces_into_elements,
)
from repro.fem.material import lame_parameters, rayleigh_coefficients
from repro.fem.mesh import Tet10Mesh
from repro.fem.newmark import NewmarkBeta, NewmarkState
from repro.sparse.backend import ArrayBackend, as_backend
from repro.sparse.bcrs import BlockCRS
from repro.sparse.ebe import EBEOperator
from repro.sparse.precision import Precision, as_precision
from repro.sparse.precond import BlockJacobi

__all__ = ["ElasticProblem", "build_problem"]


@dataclass
class ElasticProblem:
    """A ready-to-step elasticity problem (paper Eq. 5).

    Use :func:`build_problem` to construct one from a mesh and
    materials; the attributes below are then consistent by
    construction.
    """

    mesh: Tet10Mesh
    dt: float
    newmark: NewmarkBeta
    Me: np.ndarray  # (ne, 30, 30) unconstrained mass
    Ce: np.ndarray  # (ne, 30, 30) unconstrained damping (Rayleigh + dashpots)
    Ke: np.ndarray  # (ne, 30, 30) unconstrained stiffness
    Ae: np.ndarray  # (ne, 30, 30) constrained effective matrix
    fixed_nodes: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_dofs(self) -> int:
        return self.mesh.n_dofs

    @property
    def n_nodes(self) -> int:
        return self.mesh.n_nodes

    @property
    def n_elems(self) -> int:
        return self.mesh.n_elems

    @cached_property
    def fixed_dofs(self) -> np.ndarray:
        return (3 * self.fixed_nodes[:, None] + np.arange(3)[None, :]).ravel()

    # -- operators (lazy, cached) -------------------------------------
    # Every operator of a run is a pure function of this problem and a
    # (storage precision, engine) pair, built here and nowhere else
    # under core/, studies/ or campaign/ (test_there_is_one_operator_factory).
    @staticmethod
    def _op_key(base: str, prec: Precision,
                backend: ArrayBackend | None = None) -> str:
        """Cache key per (operator, storage precision, backend);
        fp64 on the numpy backend keeps the historical bare key."""
        key = base if prec.is_fp64 else f"{base}@{prec.name}"
        if backend is not None and backend.name != "numpy":
            key = f"{key}#{backend.name}"
        return key

    def _cached(self, base: str, precision, backend, build):
        """The one lazy-build site: resolve the (precision, backend)
        pair once, look ``base`` up under :meth:`_op_key`, and call
        ``build(prec, bk)`` on a miss.  ``backend=None`` is the ambient
        default of a bare library call; a run always names its engine,
        so what it builds and what it later looks up share one key."""
        prec = as_precision(precision)
        bk = as_backend(backend)
        key = self._op_key(base, prec, bk)
        if key not in self._cache:
            self._cache[key] = build(prec, bk)
        return self._cache[key]

    def _element_operator(
        self, base: str, mats: np.ndarray, kind: str,
        precision=None, backend=None, crs_tag: str = "spmv.crs",
    ) -> BlockCRS | EBEOperator:
        """Element matrices ``mats`` as one operator: assembled into
        3x3 block CRS charging ``crs_tag`` (``kind="crs"``), or applied
        matrix-free (Eq. 8/9; every EBE sweep charges ``spmv.ebe``).
        Both come from the *same* element matrices, which is what makes
        the CRS-vs-EBE comparisons apples-to-apples."""
        def build(prec, bk):
            if kind == "crs":
                return BlockCRS(
                    assemble_bsr(mats, self.mesh.elems, self.n_nodes),
                    tag=crs_tag, precision=prec, backend=bk,
                )
            return EBEOperator(
                mats, self.mesh.elems, self.n_nodes, tag="spmv.ebe",
                precision=prec, backend=bk,
            )
        return self._cached(f"{base}_{kind}", precision, backend, build)

    def crs_operator(
        self,
        precision: Precision | str | None = None,
        backend: "ArrayBackend | str | None" = None,
    ) -> BlockCRS:
        """Effective matrix in 3x3 block CRS (the baseline storage),
        optionally held at a transprecision storage policy and executed
        by a non-default backend."""
        return self._element_operator(
            "A", self.Ae, "crs", precision, backend)

    def ebe_operator(
        self,
        precision: Precision | str | None = None,
        backend: "ArrayBackend | str | None" = None,
    ) -> EBEOperator:
        """Effective matrix applied matrix-free (Eq. 8/9), optionally
        held at a transprecision storage policy and executed by a
        non-default backend."""
        return self._element_operator(
            "A", self.Ae, "ebe", precision, backend)

    def mass_operator(
        self, kind: str = "crs",
        backend: "ArrayBackend | str | None" = None,
    ) -> BlockCRS | EBEOperator:
        """Mass matrix of the RHS build (always fp64: the outer loop is
        FP64-accurate), executed by the run's ``backend``."""
        return self._element_operator(
            "M", self.Me, kind, backend=backend, crs_tag="rhs.spmv")

    def damping_operator(
        self, kind: str = "crs",
        backend: "ArrayBackend | str | None" = None,
    ) -> BlockCRS | EBEOperator:
        """Damping matrix of the RHS build; see :meth:`mass_operator`."""
        return self._element_operator(
            "C", self.Ce, kind, backend=backend, crs_tag="rhs.spmv")

    def distributed_operator(
        self,
        nparts: int,
        precision: Precision | str | None = None,
        backend: "ArrayBackend | str | None" = None,
    ):
        """Effective matrix partitioned over ``nparts`` mesh parts
        (:class:`~repro.cluster.halo.DistributedEBE`).  Both sets of a
        pipeline and the memory estimate solve the same model, so they
        share this one partition (read-only inside a solve)."""
        from repro.cluster.halo import DistributedEBE
        from repro.cluster.partition import PartitionInfo, partition_elements

        return self._cached(
            f"A_dist.{nparts}", precision, backend,
            lambda prec, bk: DistributedEBE.from_elements(
                self.Ae,
                PartitionInfo(self.mesh, partition_elements(self.mesh, nparts)),
                precision=prec, backend=bk,
            ),
        )

    def part_preconditioners(
        self,
        nparts: int,
        precision: Precision | str | None = None,
        backend: "ArrayBackend | str | None" = None,
    ) -> list[BlockJacobi]:
        """Per-part block-Jacobi appliers of :meth:`distributed_operator`
        (:func:`~repro.sparse.distributed.part_block_jacobi`)."""
        from repro.sparse.distributed import part_block_jacobi

        return self._cached(
            f"precond.parts.{nparts}", precision, backend,
            lambda prec, bk: part_block_jacobi(
                self.distributed_operator(nparts, prec, bk)),
        )

    def preconditioner(
        self,
        precision: Precision | str | None = None,
        backend: "ArrayBackend | str | None" = None,
    ) -> BlockJacobi:
        """3x3 block-Jacobi of the constrained effective matrix, its
        block inverses stored at the requested precision and applied
        by the requested backend."""
        # Diagonal blocks come matrix-free so the EBE path never
        # needs the assembled matrix; they are taken from the
        # matching-precision operator so the inverted blocks see
        # exactly the values the solver applies.
        return self._cached(
            "precond", precision, backend,
            lambda prec, bk: BlockJacobi(
                self.ebe_operator(prec, bk).diagonal_blocks(),
                precision=prec, backend=bk,
            ),
        )

    def twogrid_preconditioner(
        self,
        precision: Precision | str | None = None,
        backend: "ArrayBackend | str | None" = None,
        op_kind: str = "ebe",
        n_smooth: int = 2,
    ):
        """Geometric two-grid preconditioner of the effective matrix
        (:mod:`repro.sparse.twogrid`): damped block-Jacobi smoothing on
        this mesh, direct solve on its coarsened companion, transfers
        from :mod:`repro.fem.transfer`.  Two sweeps per side is the
        default: one is too weak for the strong-contrast (`soft-soil`)
        regime this preconditioner exists for.  Two levels only: a
        third never saved an iteration and cost 4-8% more modeled time
        wherever it was measured (CHANGES, PR 24).

        ``op_kind`` picks which fine-level operator the cycle's
        residuals apply (``"ebe"``/``"crs"``) so the modeled traffic
        matches the solver it preconditions.  Raises for meshes that
        cannot be coarsened (already at resolution ``(1, 1, 1)``).
        """
        from repro.fem.mesh import mesh_hierarchy
        from repro.fem.transfer import build_transfer
        from repro.sparse.twogrid import build_twogrid

        def build(prec, bk):
            meshes = mesh_hierarchy(self.mesh, 2)
            if len(meshes) < 2:
                raise ValueError(
                    "mesh has no coarser companion: the two-grid "
                    "preconditioner needs a coarsenable resolution"
                )
            op = (self.crs_operator(prec, bk) if op_kind == "crs"
                  else self.ebe_operator(prec, bk))
            A_csr = assemble_bsr(
                self.Ae, self.mesh.elems, self.n_nodes
            ).tocsr()
            return build_twogrid(
                op, A_csr, build_transfer(*meshes), op.diagonal_blocks(),
                fixed_nodes=self.fixed_nodes, n_smooth=n_smooth,
                precision=prec, backend=bk,
            )
        return self._cached(
            f"precond.twogrid.{op_kind}.{n_smooth}", precision, backend, build)

    def preconditioner_for(
        self,
        name: str,
        precision: Precision | str | None = None,
        backend: "ArrayBackend | str | None" = None,
        op_kind: str = "ebe",
    ):
        """Preconditioner by campaign-axis name (``"bj"``/``"twogrid"``,
        see :data:`repro.sparse.precond.PRECONDITIONERS`)."""
        from repro.sparse.precond import DEFAULT_PRECONDITIONER, PRECONDITIONERS

        if name is None or name == DEFAULT_PRECONDITIONER:
            return self.preconditioner(precision, backend)
        if name == "twogrid":
            return self.twogrid_preconditioner(precision, backend, op_kind)
        raise ValueError(
            f"unknown preconditioner {name!r}; expected one of {PRECONDITIONERS}"
        )

    # -- stepping helpers ---------------------------------------------
    def zero_state(self) -> NewmarkState:
        return NewmarkState.zeros(self.n_dofs)

    def rhs(self, f_ext: np.ndarray, state: NewmarkState, kind: str = "crs") -> np.ndarray:
        """Effective right-hand side for the next step, with Dirichlet
        rows zeroed (fixed dofs then solve to exactly zero)."""
        M = self.mass_operator(kind)
        C = self.damping_operator(kind)
        b = self.newmark.rhs(M, C, f_ext, state)
        b[self.fixed_dofs] = 0.0
        return b

    def constrain(self, v: np.ndarray) -> np.ndarray:
        """Zero fixed dofs of a vector (in place; returned for chaining)."""
        v[self.fixed_dofs] = 0.0
        return v

    def updated(self, Ce: np.ndarray, Ke: np.ndarray) -> "ElasticProblem":
        """This model at a new material state (paper §2.2: the matrix
        changes under a nonlinear material): new damping and stiffness
        element matrices, the effective matrices rebuilt from them, and
        an empty operator cache — except the mass operators, which do
        not depend on the material state and are carried over."""
        return replace(
            self, Ce=Ce, Ke=Ke,
            Ae=_effective_matrices(
                self.newmark, self.Me, Ce, Ke, self.mesh, self.fixed_nodes),
            _cache={k: op for k, op in self._cache.items()
                    if k.startswith("M_")},
        )


def _effective_matrices(
    newmark: NewmarkBeta, Me, Ce, Ke, mesh: Tet10Mesh, fixed_nodes
) -> np.ndarray:
    """Constrained effective element matrices (Eq. 5 left side): the
    Newmark combination of mass, damping and stiffness with the
    Dirichlet rows/columns of ``fixed_nodes`` replaced by identity."""
    Ae_raw = newmark.c_mass * Me + newmark.c_damp * Ce + Ke
    return apply_dirichlet_to_elements(
        Ae_raw, mesh.elems, fixed_nodes, mesh.n_nodes)


def build_problem(
    mesh: Tet10Mesh,
    rho: np.ndarray,
    vp: np.ndarray,
    vs: np.ndarray,
    dt: float,
    damping_ratio: float = 0.02,
    damping_band: tuple[float, float] = (0.5, 5.0),
    absorbing_sides: bool = True,
    fix_bottom: bool = True,
) -> ElasticProblem:
    """Assemble an :class:`ElasticProblem` from mesh + materials.

    Parameters
    ----------
    rho, vp, vs : per-element density and wave speeds (scalars are
        broadcast).
    damping_ratio, damping_band : Rayleigh fit ``h`` at ``(f1, f2)`` Hz.
    absorbing_sides : add Lysmer-Kuhlemeyer dashpots on the four
        vertical sides (the paper's semi-infinite-ground treatment).
    fix_bottom : clamp the bottom surface (paper: "displacement at the
        bottom is fixed").
    """
    ne = mesh.n_elems
    rho = np.broadcast_to(np.asarray(rho, dtype=float), (ne,)).copy()
    vp = np.broadcast_to(np.asarray(vp, dtype=float), (ne,)).copy()
    vs = np.broadcast_to(np.asarray(vs, dtype=float), (ne,)).copy()
    lam, mu = lame_parameters(rho, vp, vs)

    Me, Ke = element_mass_stiffness(mesh, rho, lam, mu)
    alpha, beta = rayleigh_coefficients(damping_ratio, *damping_band)
    Ce = alpha * Me + beta * Ke

    if absorbing_sides:
        f_elem, _f_loc, f_nodes = mesh.side_faces()
        if f_nodes.shape[0]:
            Cf = face_dashpot_matrices(
                mesh, f_nodes, rho[f_elem], vp[f_elem], vs[f_elem]
            )
            fold_faces_into_elements(Ce, mesh, f_elem, f_nodes, Cf)

    nm = NewmarkBeta(dt)
    fixed = mesh.bottom_nodes() if fix_bottom else np.empty(0, dtype=np.int64)

    return ElasticProblem(
        mesh=mesh,
        dt=dt,
        newmark=nm,
        Me=Me,
        Ce=Ce,
        Ke=Ke,
        Ae=_effective_matrices(nm, Me, Ce, Ke, mesh, fixed),
        fixed_nodes=np.asarray(fixed, dtype=np.int64),
    )
