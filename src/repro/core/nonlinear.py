"""Nonlinear (equivalent-linear) time evolution driver.

Runs the same predictor + fused-CG machinery as the linear methods but
re-evaluates the material every ``update_interval`` steps from the
running strain field and rebuilds the effective operator:

* **EBE path** — the modeled device kernel recomputes element matrices
  in-flight anyway, so an update costs only the strain evaluation and
  the (host-side) refresh of the element arrays; no extra device
  traffic is charged.  This is the paper's nonlinear advantage.
* **CRS path** — every update additionally pays a global re-assembly,
  charged as writing all matrix blocks once (tag ``assembly.crs``),
  exactly what a device implementation must stream.

The accuracy guarantee carries over: each step is still refined to the
CG tolerance against the current operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.problem import ElasticProblem
from repro.fem.newmark import NewmarkState
from repro.fem.nonlinear import (
    EquivalentLinearMaterial,
    centroid_gradients,
    element_shear_strains,
)
from repro.predictor.datadriven import DataDrivenPredictor
from repro.sparse.cg import pcg
from repro.util import counters
from repro.util.counters import KernelTally, tally_scope

__all__ = ["NonlinearRunRecord", "NonlinearDriver"]


@dataclass
class NonlinearRunRecord:
    """Per-step log of the nonlinear run."""

    step: int
    iterations: int
    updated: bool
    min_modulus_ratio: float
    max_gamma: float


@dataclass
class NonlinearDriver:
    """Equivalent-linear ground response with periodic operator rebuild.

    Parameters
    ----------
    problem : the *initial* (small-strain) problem; its unconstrained
        Me/Ce/Ke and mesh are reused across updates.
    material : the degradation law.
    update_interval : steps between strain evaluations / operator
        rebuilds (the classical equivalent-linear outer loop).
    op_kind : "ebe" (paper's choice) or "crs" (pays re-assembly).
    strain_memory : running effective strain is
        ``max(decay * previous, 0.65 * current)`` — the standard 65 %
        rule with slow forgetting.
    """

    problem: ElasticProblem
    material: EquivalentLinearMaterial = field(default_factory=EquivalentLinearMaterial)
    update_interval: int = 8
    op_kind: str = "ebe"
    strain_memory: float = 0.98
    eps: float = 1e-8
    records: list[NonlinearRunRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.update_interval < 1:
            raise ValueError("update_interval must be >= 1")
        if self.op_kind not in ("ebe", "crs"):
            raise ValueError("op_kind must be 'ebe' or 'crs'")
        pb = self.problem
        # Degradation is applied multiplicatively to the small-strain
        # element stiffness (secant G/G0 scales both Lame parameters,
        # i.e. Ke scales uniformly per element) — no need to re-derive
        # the original material fields.
        self._G = centroid_gradients(pb.mesh)
        self._gamma_eff = np.zeros(pb.n_elems)
        self._ratio = np.ones(pb.n_elems)
        # the problem at the current secant state: every operator of a
        # step is asked of it, and a material update replaces it
        self._current = pb
        self._charge_assembly()

    def _charge_assembly(self) -> None:
        """An EBE kernel recomputes element matrices in-flight, so a new
        material state costs nothing on-device; CRS pays the re-assembly
        stream — every block written once."""
        if self.op_kind == "crs":
            nnzb = self.problem.crs_operator().nnz_blocks
            counters.charge("assembly.crs", 1900.0 * self.problem.n_elems,
                            76.0 * nnzb)

    def _rebuild(self, u: np.ndarray) -> tuple[bool, float]:
        """Strain evaluation + secant operator refresh."""
        gamma = element_shear_strains(self._G, u, self.problem.mesh.elems)
        self._gamma_eff = np.maximum(self.strain_memory * self._gamma_eff,
                                     0.65 * gamma)
        new_ratio = self.material.modulus_ratio(self._gamma_eff)
        if np.allclose(new_ratio, self._ratio, rtol=1e-3, atol=1e-6):
            return False, float(gamma.max())
        self._ratio = new_ratio
        pb = self.problem
        # secant stiffness: Ke scales per element; mass unchanged;
        # Rayleigh part of Ce tracks Ke's beta term approximately by
        # scaling the whole damping with sqrt(ratio) (bounded change).
        self._current = pb.updated(
            Ce=pb.Ce * np.sqrt(self._ratio)[:, None, None],
            Ke=pb.Ke * self._ratio[:, None, None],
        )
        self._charge_assembly()
        return True, float(gamma.max())

    # -- time loop ----------------------------------------------------
    def run(
        self,
        force: Callable[[int], np.ndarray],
        nt: int,
        predictor: DataDrivenPredictor | None = None,
    ) -> tuple[NewmarkState, KernelTally]:
        """Advance ``nt`` steps; returns the final state and the work
        tally of the whole run."""
        pb = self.problem
        nm = pb.newmark
        state = pb.zero_state()
        pred = predictor or DataDrivenPredictor(pb.n_dofs, pb.dt, s_max=8,
                                                n_regions=4, s=8)
        tally = KernelTally()
        with tally_scope(tally):
            for it in range(1, nt + 1):
                f = force(it)
                guess = pred.predict(f_next=f)
                cur = self._current
                b = cur.rhs(f, state, kind="ebe")
                res = pcg(cur.ebe_operator(), b, x0=guess,
                          precond=cur.preconditioner(), eps=self.eps)
                state = nm.advance(state, np.asarray(res.x))
                pred.observe(state.u, state.v, f=f)

                updated = False
                max_gamma = self._gamma_eff.max()
                if it % self.update_interval == 0:
                    updated, max_gamma = self._rebuild(state.u)
                self.records.append(
                    NonlinearRunRecord(
                        step=it,
                        iterations=int(res.iterations[0]),
                        updated=updated,
                        min_modulus_ratio=float(self._ratio.min()),
                        max_gamma=float(max_gamma),
                    )
                )
        return state, tally

    @property
    def modulus_ratio(self) -> np.ndarray:
        """Current per-element secant ``G/G0``."""
        return self._ratio.copy()

    @property
    def effective_strain(self) -> np.ndarray:
        return self._gamma_eff.copy()
