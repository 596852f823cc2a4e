"""The paper's three candidate 3D ground structures (Fig. 1).

All models share a flat surface and box dimensions (the paper:
950 x 950 x 120 m) but differ in the interface between the soft
sedimentary layer and the hard bedrock:

a. horizontally stratified — flat interface;
b. circular basin — a bowl-shaped depression of bedrock;
c. slanted bedrock — a planar, tilted interface.

Materials follow typical sediment/bedrock contrasts.  Mesh resolution
is a free parameter so the same workloads serve fast tests (hundreds
of elements) and benches (tens of thousands); the paper's full 11.4M
element model is the ``resolution -> infinity`` limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.problem import ElasticProblem, build_problem
from repro.fem.material import Material
from repro.fem.mesh import Tet10Mesh, structured_box
from repro.fem.nonlinear import EquivalentLinearMaterial

__all__ = [
    "GroundModel",
    "GROUND_MODELS",
    "stratified_model",
    "basin_model",
    "slanted_model",
    "build_ground_problem",
    "suggested_dt",
]

#: Soft sedimentary layer (paper-typical contrast vs bedrock).
SEDIMENT = Material(rho=1800.0, vp=700.0, vs=200.0, damping=0.02)
#: Hard bedrock.
BEDROCK = Material(rho=2400.0, vp=2100.0, vs=1000.0, damping=0.01)

#: Paper domain dimensions [m].
DOMAIN = (950.0, 950.0, 120.0)


@dataclass(frozen=True)
class GroundModel:
    """One candidate ground structure.

    ``interface(x, y)`` returns the elevation (z, measured from the
    bottom of the box) of the sediment/bedrock interface; material is
    sediment above, bedrock below.
    """

    name: str
    interface: Callable[[np.ndarray, np.ndarray], np.ndarray]
    soft: Material = SEDIMENT
    hard: Material = BEDROCK
    dims: tuple[float, float, float] = DOMAIN

    def element_materials(
        self, mesh: Tet10Mesh
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rho, vp, vs) per element, assigned by centroid position."""
        c = mesh.element_centroids()
        z_int = self.interface(c[:, 0], c[:, 1])
        soft = c[:, 2] >= z_int
        rho = np.where(soft, self.soft.rho, self.hard.rho)
        vp = np.where(soft, self.soft.vp, self.hard.vp)
        vs = np.where(soft, self.soft.vs, self.hard.vs)
        return rho, vp, vs


def stratified_model(layer_depth: float = 60.0) -> GroundModel:
    """(a) horizontally stratified: flat interface ``layer_depth`` below
    the surface."""
    lz = DOMAIN[2]
    z0 = lz - layer_depth

    def interface(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(x, dtype=float), z0)

    return GroundModel(name="stratified", interface=interface)


def basin_model(
    edge_depth: float = 30.0, center_depth: float = 90.0, radius_frac: float = 0.38
) -> GroundModel:
    """(b) circular basin: bowl-shaped bedrock depression centered in
    the domain, ``center_depth`` deep at the middle, ``edge_depth``
    outside the basin."""
    lx, ly, lz = DOMAIN
    R = radius_frac * min(lx, ly)

    def interface(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        r2 = (np.asarray(x) - lx / 2) ** 2 + (np.asarray(y) - ly / 2) ** 2
        bowl = np.clip(1.0 - r2 / R**2, 0.0, None)
        depth = edge_depth + (center_depth - edge_depth) * bowl
        return lz - depth

    return GroundModel(name="basin", interface=interface)


def slanted_model(min_depth: float = 20.0, max_depth: float = 100.0) -> GroundModel:
    """(c) slanted bedrock: interface depth grows linearly across x."""
    lx, _ly, lz = DOMAIN

    def interface(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        t = np.clip(np.asarray(x, dtype=float) / lx, 0.0, 1.0)
        depth = min_depth + (max_depth - min_depth) * t
        return lz - depth

    return GroundModel(name="slanted", interface=interface)


GROUND_MODELS: dict[str, Callable[[], GroundModel]] = {
    "stratified": stratified_model,
    "basin": basin_model,
    "slanted": slanted_model,
}


def suggested_dt(mesh: Tet10Mesh, vp_max: float, courant: float = 2.0) -> float:
    """Time step preserving the paper's stiffness/mass balance.

    The implicit Newmark scheme is unconditionally stable, so ``dt``
    is an accuracy/conditioning knob: the paper's 2.5 m elements with
    dt = 0.005 s put ``vp dt / h`` around 2-3, which is what makes the
    effective matrix stiffness-influenced enough to need ~150 CG
    iterations.  Scaled-down meshes keep the same dimensionless group.
    """
    # smallest corner-node grid spacing along the axes
    diffs = []
    for ax in range(3):
        u = np.unique(np.round(mesh.nodes[: mesh.n_corner_nodes, ax], 9))
        if u.size > 1:
            diffs.append(np.diff(u).min())
    h_min = min(diffs)
    return float(courant * h_min / vp_max)


def build_ground_problem(
    model: GroundModel,
    resolution: tuple[int, int, int] = (8, 8, 4),
    dt: float | None = None,
    courant: float = 2.0,
    dims: tuple[float, float, float] | None = None,
    material: EquivalentLinearMaterial | None = None,
) -> ElasticProblem:
    """Mesh one ground model and assemble its :class:`ElasticProblem`.

    Parameters
    ----------
    resolution : hexahedral cells per direction (x6 tets each).
    dt : explicit time step; default from :func:`suggested_dt`.
    dims : override the physical box (e.g. the doubled Alps domain).
    material : equivalent-linear law of a nonlinear run (``None``:
        linear), see :func:`~repro.core.problem.build_problem`.
    """
    lx, ly, lz = dims if dims is not None else model.dims
    nx, ny, nz = resolution
    mesh = structured_box(nx, ny, nz, lx, ly, lz)
    rho, vp, vs = model.element_materials(mesh)
    if dt is None:
        dt = suggested_dt(mesh, float(vp.max()), courant)
    return build_problem(
        mesh,
        rho,
        vp,
        vs,
        dt=dt,
        damping_ratio=0.02,
        damping_band=(0.25, 5.0),
        absorbing_sides=True,
        fix_bottom=True,
        material=material,
    )
