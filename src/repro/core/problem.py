"""Problem container: one discretized dynamic-elasticity model.

Bundles the element matrices, constrained effective operator, Newmark
coefficients and boundary data so the method drivers
(:mod:`repro.core.methods`) can be written purely in terms of
operators.  Each element family is stored the way its EBE operator
applies it: one matrix per element class where the classes group
(:func:`~repro.sparse.ebe.class_groups`), else one per element.  Every
representation (block-CRS, EBE, the partitioned parts) is built
lazily from those *same* matrices — per-element readers through
:meth:`ElasticProblem.element_matrices` — which is what makes the
CRS-vs-EBE comparisons apples-to-apples and lets tests assert
agreement to rounding.  The problem is also the one place a run's
operators come from: solver, RHS, preconditioner and the mesh
partition are each built once per storage precision and cached here.
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
from repro.fem.nonlinear import EquivalentLinearMaterial
from repro.sparse.bcrs import BlockCRS
from repro.sparse.ebe import EBEOperator, class_groups
from repro.sparse.precision import Precision, as_precision
from repro.sparse.precond import BlockJacobi

__all__ = ["ElasticProblem", "build_problem"]


@dataclass
class ElasticProblem:
    """A ready-to-step elasticity problem (paper Eq. 5).

    Use :func:`build_problem` to construct one from a mesh and
    materials; the attributes below are then consistent by
    construction.  ``material`` is the equivalent-linear law of a
    nonlinear model (``None``: linear); the step body
    (:meth:`repro.core.pipeline.CaseSet.solve`) applies it.
    ``matrices`` maps each element family — unconstrained mass
    ``"M"``, damping ``"C"`` (Rayleigh + dashpots) and stiffness
    ``"K"``, constrained effective ``"A"`` — to its stored matrices.  A
    family in ``classes`` is stored as classes: ``(n_classes, 30, 30)``
    representatives (each class's lowest-id member's matrix) indexed by
    the ``(ne,)`` labels there; any other family as ``(ne, 30, 30)``,
    one matrix per element.  :meth:`element_matrices` is the one
    per-element view.
    """

    mesh: Tet10Mesh
    dt: float
    newmark: NewmarkBeta
    matrices: dict[str, np.ndarray] = field(repr=False)
    fixed_nodes: np.ndarray
    material: EquivalentLinearMaterial | None = None
    classes: dict[str, np.ndarray] = field(default_factory=dict, repr=False)
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

    def element_matrices(self, family: str) -> np.ndarray:
        """``(ne, 30, 30)`` matrices of ``family`` (``"M"``, ``"C"``,
        ``"K"``, ``"A"``): a class-stored family expanded from its
        representatives into a fresh array, a per-element one as stored
        (not to be written into)."""
        labels = self.classes.get(family)
        mats = self.matrices[family]
        return mats if labels is None else mats[labels]

    # -- operators (lazy, cached) -------------------------------------
    # Every operator of a run is a pure function of this problem and a
    # storage precision, built here and nowhere else under core/,
    # studies/ or campaign/ (test_there_is_one_operator_factory).
    @staticmethod
    def _op_key(base: str, prec: Precision) -> str:
        """Cache key per (operator, storage precision); fp64 keeps the
        historical bare key."""
        return base if prec.is_fp64 else f"{base}@{prec.name}"

    def _cached(self, base: str, precision, build):
        """The one lazy-build site: resolve the precision once, look
        ``base`` up under :meth:`_op_key`, and call ``build(prec)`` on a
        miss."""
        prec = as_precision(precision)
        key = self._op_key(base, prec)
        if key not in self._cache:
            self._cache[key] = build(prec)
        return self._cache[key]

    def _element_operator(
        self, family: str, kind: str,
        precision=None, crs_tag: str = "spmv.crs",
    ) -> BlockCRS | EBEOperator:
        """Element family ``family`` as one operator: assembled into
        3x3 block CRS charging ``crs_tag`` (``kind="crs"``), or applied
        matrix-free (Eq. 8/9; every EBE sweep charges ``spmv.ebe``)
        over the family's element classes.  Both come from the *same*
        element matrices, which is what makes the CRS-vs-EBE
        comparisons apples-to-apples."""
        def build(prec):
            if kind == "crs":
                return BlockCRS(
                    assemble_bsr(self.element_matrices(family),
                                 self.mesh.elems, self.n_nodes),
                    tag=crs_tag, precision=prec,
                )
            return EBEOperator(
                self.matrices[family], self.mesh.elems, self.n_nodes,
                tag="spmv.ebe", precision=prec,
                classes=self.classes.get(family),
            )
        return self._cached(f"{family}_{kind}", precision, build)

    def crs_operator(
        self, precision: Precision | str | None = None,
    ) -> BlockCRS:
        """Effective matrix in 3x3 block CRS (the baseline storage),
        optionally held at a transprecision storage policy."""
        return self._element_operator("A", "crs", precision)

    def ebe_operator(
        self, precision: Precision | str | None = None,
    ) -> EBEOperator:
        """Effective matrix applied matrix-free (Eq. 8/9), optionally
        held at a transprecision storage policy."""
        return self._element_operator("A", "ebe", precision)

    def mass_operator(self, kind: str = "crs") -> BlockCRS | EBEOperator:
        """Mass matrix of the RHS build (always fp64: the outer loop is
        FP64-accurate)."""
        return self._element_operator("M", kind, crs_tag="rhs.spmv")

    def damping_operator(self, kind: str = "crs") -> BlockCRS | EBEOperator:
        """Damping matrix of the RHS build; see :meth:`mass_operator`."""
        return self._element_operator("C", kind, crs_tag="rhs.spmv")

    def distributed_operator(
        self,
        nparts: int,
        precision: Precision | str | None = None,
    ):
        """Effective matrix partitioned over ``nparts`` mesh parts
        (:class:`~repro.cluster.halo.DistributedEBE`).  Both sets of a
        pipeline and the memory estimate solve the same model, so they
        share this one partition (read-only inside a solve)."""
        from repro.cluster.halo import DistributedEBE
        from repro.cluster.partition import PartitionInfo, partition_elements

        return self._cached(
            f"A_dist.{nparts}", precision,
            lambda prec: DistributedEBE.from_elements(
                self.element_matrices("A"),
                PartitionInfo(self.mesh, partition_elements(self.mesh, nparts)),
                precision=prec, classes=self.classes.get("A"),
            ),
        )

    def part_preconditioners(
        self,
        nparts: int,
        precision: Precision | str | None = None,
    ) -> list[BlockJacobi]:
        """Per-part block-Jacobi appliers of :meth:`distributed_operator`
        (:func:`~repro.sparse.distributed.part_block_jacobi`)."""
        from repro.sparse.distributed import part_block_jacobi

        return self._cached(
            f"precond.parts.{nparts}", precision,
            lambda prec: part_block_jacobi(
                self.distributed_operator(nparts, prec)),
        )

    def preconditioner(
        self, precision: Precision | str | None = None,
    ) -> BlockJacobi:
        """3x3 block-Jacobi of the constrained effective matrix, its
        block inverses stored at the requested precision."""
        # Diagonal blocks come matrix-free so the EBE path never
        # needs the assembled matrix; they are taken from the
        # matching-precision operator so the inverted blocks see
        # exactly the values the solver applies.
        return self._cached(
            "precond", precision,
            lambda prec: BlockJacobi(
                self.ebe_operator(prec).diagonal_blocks(), precision=prec,
            ),
        )

    # -- stepping helpers ---------------------------------------------
    def zero_state(self) -> NewmarkState:
        return NewmarkState.zeros(self.n_dofs)

    def rhs(
        self, f_ext: np.ndarray, state: NewmarkState, kind: str = "crs",
    ) -> np.ndarray:
        """Effective right-hand side for the next step, with Dirichlet
        rows zeroed (fixed dofs then solve to exactly zero); ``f_ext``
        and ``state`` may hold ``(n, r)`` blocks of ``r`` cases.  The
        mass and damping products run as ``kind`` operators."""
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
        changes under a nonlinear material): new ``(ne, 30, 30)``
        damping and stiffness element matrices, the effective matrices
        rebuilt from them, and an empty operator cache — except the mass
        operators, which do not depend on the material state and are
        carried over, as are the mass matrices and their element classes
        and the ``material`` law itself.  The secant state is per
        element, so damping, stiffness and effective matrices are stored
        per element."""
        return replace(
            self,
            matrices={"M": self.matrices["M"], "C": Ce, "K": Ke,
                      "A": _effective_matrices(
                          self.newmark, self.element_matrices("M"), Ce, Ke,
                          self.mesh.elems, self.n_nodes, self.fixed_nodes)},
            classes={k: v for k, v in self.classes.items() if k == "M"},
            _cache={k: op for k, op in self._cache.items()
                    if k.startswith("M_")},
        )


def _effective_matrices(
    newmark: NewmarkBeta, Me, Ce, Ke, elems: np.ndarray, n_nodes: int, fixed_nodes
) -> np.ndarray:
    """Constrained effective element matrices (Eq. 5 left side) of the
    elements ``elems``: the Newmark combination of mass, damping and
    stiffness with the Dirichlet rows/columns of ``fixed_nodes``
    replaced by identity."""
    Ae_raw = newmark.c_mass * Me + newmark.c_damp * Ce + Ke
    return apply_dirichlet_to_elements(Ae_raw, elems, fixed_nodes, n_nodes)


#: Elements integrated at once by :func:`build_problem`: its transient
#: memory is a few blocks' families, not a few whole-mesh families.
#: Blocks are near-equal, so none falls under 256 elements (a small
#: einsum picks another contraction path and moves the bits).
_BLOCK = 512

#: A member may differ from its class representative by this much,
#: relative, on the probe vector (rounding differs, inputs may not).
_CLASS_RTOL = 1e-10


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
    material: EquivalentLinearMaterial | None = None,
) -> ElasticProblem:
    """Assemble an :class:`ElasticProblem` from mesh + materials.

    The element families are integrated over contiguous blocks of at
    most :data:`_BLOCK` elements; each block's M, C, K and A are copied
    into the stored arrays and dropped before the next block starts.  A
    grouped problem keeps only the class representatives (each class's
    lowest id, so met no later than its members) and checks every
    member against its representative on a fixed probe vector: a wrong
    label fails loud, naming the first element off.  So the build never
    holds a grouped problem's per-element families.

    Parameters
    ----------
    rho, vp, vs : per-element density and wave speeds (scalars are
        broadcast).
    damping_ratio, damping_band : Rayleigh fit ``h`` at ``(f1, f2)`` Hz.
    absorbing_sides : add Lysmer-Kuhlemeyer dashpots on the four
        vertical sides (the paper's semi-infinite-ground treatment).
    fix_bottom : clamp the bottom surface (paper: "displacement at the
        bottom is fixed").
    material : equivalent-linear law of a nonlinear model (``None``:
        linear); the element fields above are its small-strain state.
    """
    ne = mesh.n_elems
    rho = np.broadcast_to(np.asarray(rho, dtype=float), (ne,)).copy()
    vp = np.broadcast_to(np.asarray(vp, dtype=float), (ne,)).copy()
    vs = np.broadcast_to(np.asarray(vs, dtype=float), (ne,)).copy()
    fixed = mesh.bottom_nodes() if fix_bottom else np.empty(0, dtype=np.int64)
    f_elem, f_loc, f_nodes = (a if absorbing_sides else a[:0]
                              for a in mesh.side_faces())
    dashpots = np.zeros((ne, 4), dtype=np.int64)  # by opposite corner
    dashpots[f_elem, 6 - f_loc.sum(axis=1)] = 1
    groups = class_groups(_element_classes(mesh, rho, vp, vs, fixed, dashpots))
    rep, labels = (np.arange(ne), None) if groups is None else groups

    lam, mu = lame_parameters(rho, vp, vs)
    alpha, beta = rayleigh_coefficients(damping_ratio, *damping_band)
    # the face matrices are made once: a block owning few faces would
    # take another einsum path and round them differently
    Cf = face_dashpot_matrices(mesh, f_nodes, rho[f_elem], vp[f_elem], vs[f_elem])
    nm = NewmarkBeta(dt)
    matrices = {f: np.empty((rep.size, 30, 30)) for f in "MCKA"}
    probe = np.random.default_rng(0).standard_normal(30)
    rep_probes = {f: np.empty((rep.size, 30)) for f in matrices}
    off = {f: [] for f in matrices}
    for block in np.array_split(np.arange(ne), -(-ne // _BLOCK)):
        lo, hi, elems = block[0], block[-1] + 1, mesh.elems[block]
        Me, Ke = element_mass_stiffness(mesh.nodes[elems], rho[block],
                                        lam[block], mu[block])
        Ce = alpha * Me + beta * Ke
        own = (f_elem >= lo) & (f_elem < hi)
        fold_faces_into_elements(Ce, elems, f_elem[own] - lo, f_nodes[own], Cf[own])
        fams = {"M": Me, "C": Ce, "K": Ke,
                "A": _effective_matrices(nm, Me, Ce, Ke, elems, mesh.n_nodes, fixed)}
        if labels is None:
            # a one-block mesh keeps its arrays: a copy would cost four families
            for f, mats in fams.items():
                if block.size == ne:
                    matrices[f] = mats
                else:
                    matrices[f][block] = mats
            continue
        cls = np.flatnonzero((rep >= lo) & (rep < hi))
        for f, mats in fams.items():
            matrices[f][cls] = mats[rep[cls] - lo]
            y = (mats.reshape(-1, 30) @ probe).reshape(-1, 30)
            rep_probes[f][cls] = y[rep[cls] - lo]
            ref = rep_probes[f][labels[block]]
            off[f].extend(lo + np.flatnonzero(np.linalg.norm(y - ref, axis=1)
                                              > _CLASS_RTOL * np.linalg.norm(ref, axis=1)))
    for family, bad in off.items():
        if bad:
            raise ValueError(
                f"{len(bad)} of {ne} elements differ from their class "
                f"representative in family {family} beyond {_CLASS_RTOL:g} "
                f"(first: element {bad[0]}): the class labels do not describe "
                f"these matrices"
            )
    return ElasticProblem(
        mesh=mesh,
        dt=dt,
        newmark=nm,
        matrices=matrices,
        fixed_nodes=np.asarray(fixed, dtype=np.int64),
        material=material,
        classes={} if labels is None else dict.fromkeys(matrices, labels),
    )


#: Element coordinates are compared in units of this fraction of the
#: element's extent: exact keys would split a class by rounding.
_CLASS_QUANTUM = 1e-12


def _element_classes(mesh: Tet10Mesh, rho, vp, vs, fixed_nodes,
                     dashpots: np.ndarray) -> np.ndarray:
    """``(ne,)`` class labels from everything the element matrices are
    a function of: node coordinates relative to node 0 (quantised at
    ``_CLASS_QUANTUM`` of the element's extent), the exact
    ``(rho, vp, vs)``, the 10-node fixed mask and the 4-face dashpot
    mask — one integer key row per element, compared as raw bytes (a
    row-wise ``np.unique(axis=0)`` sorts field by field, 20x slower)."""
    ne = mesh.n_elems
    rel = mesh.nodes[mesh.elems[:, 1:]] - mesh.nodes[mesh.elems[:, :1]]
    rel /= _CLASS_QUANTUM * np.abs(rel).max(axis=(1, 2))[:, None, None]
    is_fixed = np.zeros(mesh.n_nodes, dtype=np.int64)
    is_fixed[np.asarray(fixed_nodes, dtype=np.int64)] = 1
    key = np.concatenate([
        np.rint(rel, out=rel).astype(np.int64).reshape(ne, -1),
        np.stack([rho, vp, vs], axis=1).view(np.int64),
        is_fixed[mesh.elems],
        dashpots,
    ], axis=1)
    rows = key.view(np.dtype((np.void, key.itemsize * key.shape[1])))
    return np.unique(rows.reshape(-1), return_inverse=True)[1]
