"""Equivalent-linear nonlinear material behaviour.

The paper stresses that the matrix-free EBE formulation "enables the
use of the proposed method for solving nonlinear problems" — when the
matrix changes every few steps, EBE pays nothing (element matrices are
recomputed in-kernel anyway) while CRS must re-assemble and re-store
the global matrix.

This module implements the standard geotechnical equivalent-linear
model: the secant shear modulus degrades with effective shear strain

    G / G0 = 1 / (1 + gamma_eff / gamma_ref)            (hyperbolic)

Strains are evaluated at element centroids from the current
displacement field.  The law is data of the problem
(``ElasticProblem.material``, passed to ``build_problem`` /
``build_ground_problem``): every ``update_interval``-th step the one
step body (:meth:`repro.core.pipeline.CaseSet.solve`) folds the strain
into ``gamma_eff`` and steps on the secant problem — ``Ke`` scaled by
``G/G0``, ``Ce`` by its square root.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fem.mesh import Tet10Mesh
from repro.fem.tet10 import tet10_shape
from repro.util import counters

__all__ = ["EquivalentLinearMaterial", "element_shear_strains", "centroid_gradients"]


def centroid_gradients(mesh: Tet10Mesh) -> np.ndarray:
    """(ne, 10, 3) shape-function gradients at element centroids.

    Affine TET10 elements have constant Jacobians, so centroid
    gradients define the (volume-average) strain operator exactly for
    the linear strain part.
    """
    pts = np.array([[0.25, 0.25, 0.25]])
    _, dN = tet10_shape(pts)  # (1, 10, 3)
    X = mesh.nodes[mesh.elems]  # (ne, 10, 3)
    J = np.einsum("eai,qaj->eij", X, dN, optimize=True)
    invJ = np.linalg.inv(J)
    return np.einsum("qaj,eji->eai", dN, invJ, optimize=True)


def element_shear_strains(G: np.ndarray, u: np.ndarray, elems: np.ndarray) -> np.ndarray:
    """Effective (deviatoric) shear strain per element.

    Parameters
    ----------
    G : (ne, 10, 3) centroid gradients from :func:`centroid_gradients`.
    u : (3 n_nodes,) displacement vector.
    elems : (ne, 10) connectivity.

    Returns
    -------
    gamma : (ne,) engineering shear strain measure
        ``sqrt(2 e_dev : e_dev)``.
    """
    ne = elems.shape[0]
    ue = u.reshape(-1, 3)[elems]  # (ne, 10, 3)
    # displacement gradient H_ij = sum_a G[a,i] u[a,j]
    H = np.einsum("eai,eaj->eij", G, ue, optimize=True)
    eps = 0.5 * (H + H.transpose(0, 2, 1))
    tr = np.trace(eps, axis1=1, axis2=2)
    dev = eps - (tr / 3.0)[:, None, None] * np.eye(3)
    gamma = np.sqrt(2.0 * np.einsum("eij,eij->e", dev, dev, optimize=True))
    counters.charge("nonlinear.strain", 120.0 * ne, 8.0 * (30 + 1) * ne)
    return gamma


@dataclass(frozen=True)
class EquivalentLinearMaterial:
    """Strain-dependent secant stiffness for the ground materials.

    Parameters
    ----------
    gamma_ref : reference strain of the hyperbolic modulus-reduction
        curve (typical soft soil: 1e-3).
    floor : lower bound on G/G0 (keeps the system well-posed).
    update_interval : steps between strain evaluations / secant
        updates (the classical equivalent-linear outer loop).
    strain_memory : the running effective strain is
        ``max(strain_memory * previous, 0.65 * current)`` — the
        standard 65 % rule with slow forgetting.
    """

    gamma_ref: float = 1e-3
    floor: float = 0.05
    update_interval: int = 8
    strain_memory: float = 0.98

    def __post_init__(self) -> None:
        if self.gamma_ref <= 0:
            raise ValueError("gamma_ref must be positive")
        if not 0 < self.floor <= 1:
            raise ValueError("floor must be in (0, 1]")
        if self.update_interval < 1:
            raise ValueError("update_interval must be >= 1")
        if not 0 <= self.strain_memory <= 1:
            raise ValueError("strain_memory must be in [0, 1]")

    def modulus_ratio(self, gamma_eff: np.ndarray) -> np.ndarray:
        """Secant ``G/G0`` per element (hyperbolic degradation)."""
        g = np.maximum(np.asarray(gamma_eff, dtype=float), 0.0)
        return np.maximum(self.floor, 1.0 / (1.0 + g / self.gamma_ref))
