"""Nonlinear equivalent-linear driver."""

import numpy as np
import pytest

from repro.analysis.waves import BandlimitedImpulse
from repro.core.nonlinear import NonlinearDriver
from repro.fem.nonlinear import EquivalentLinearMaterial


def _force(problem, amplitude, seed=0):
    return BandlimitedImpulse.random(
        problem.mesh, problem.dt, rng=seed, amplitude=amplitude,
        f0=0.3 / (np.pi * problem.dt), cycles_to_onset=0.8,
    )


def test_small_amplitude_stays_linear(ground_problem):
    """Tiny forcing -> strains far below gamma_ref -> no degradation,
    and the response matches the linear solver."""
    drv = NonlinearDriver(ground_problem,
                          material=EquivalentLinearMaterial(gamma_ref=1e-3),
                          update_interval=4)
    force = _force(ground_problem, amplitude=1e-4)
    state, _ = drv.run(force, nt=12)
    assert drv.modulus_ratio.min() == pytest.approx(1.0)
    assert not any(r.updated for r in drv.records)

    # reference linear solve
    from repro.core.pipeline import CaseSet
    from repro.predictor.datadriven import DataDrivenPredictor

    cs = CaseSet(
        ground_problem, forces=[force],
        predictors=[DataDrivenPredictor(ground_problem.n_dofs,
                                        ground_problem.dt, s_max=8,
                                        n_regions=4, s=8)],
        op_kind="ebe",
    )
    for it in range(1, 13):
        g, _ = cs.predict(it)
        cs.solve(it, g)
    ref = cs.states[0].u
    scale = max(np.abs(ref).max(), 1e-300)
    np.testing.assert_allclose(state.u, ref, rtol=0, atol=1e-7 * scale)


def test_large_amplitude_degrades_modulus(ground_problem):
    """Strong forcing degrades G where strains concentrate."""
    mat = EquivalentLinearMaterial(gamma_ref=1e-6)  # very soft threshold
    drv = NonlinearDriver(ground_problem, material=mat, update_interval=4)
    force = _force(ground_problem, amplitude=1e7)
    state, tally = drv.run(force, nt=16)
    assert drv.modulus_ratio.min() < 1.0
    assert any(r.updated for r in drv.records)
    assert np.isfinite(state.u).all()
    # strain work was charged
    assert tally.total_flops("nonlinear.strain") > 0


def test_crs_path_charges_reassembly(ground_problem):
    from repro.util.counters import tally_scope

    mat = EquivalentLinearMaterial(gamma_ref=1e-7)
    with tally_scope() as t:
        drv = NonlinearDriver(ground_problem, material=mat,
                              update_interval=2, op_kind="crs")
        drv.run(_force(ground_problem, amplitude=1e7), nt=6)
    assert t.total_bytes("assembly.crs") > 0


def test_ebe_path_charges_no_reassembly(ground_problem):
    from repro.util.counters import tally_scope

    mat = EquivalentLinearMaterial(gamma_ref=1e-7)
    with tally_scope() as t:
        drv = NonlinearDriver(ground_problem, material=mat,
                              update_interval=2, op_kind="ebe")
        drv.run(_force(ground_problem, amplitude=1e7), nt=6)
    assert t.total_bytes("assembly.crs") == 0.0


def test_records_complete(ground_problem):
    drv = NonlinearDriver(ground_problem, update_interval=3)
    drv.run(_force(ground_problem, amplitude=1e5), nt=7)
    assert len(drv.records) == 7
    assert [r.step for r in drv.records] == list(range(1, 8))
    assert all(r.iterations > 0 for r in drv.records)


def test_validation(ground_problem):
    with pytest.raises(ValueError):
        NonlinearDriver(ground_problem, update_interval=0)
    with pytest.raises(ValueError):
        NonlinearDriver(ground_problem, op_kind="dense")


@pytest.mark.parametrize("op_kind", ["crs", "ebe"])
def test_each_arm_solves_on_its_own_operator(ground_problem, op_kind):
    """The CRS arm solves and builds its RHS on block CRS (its tally
    holds ``spmv.crs`` and ``rhs.spmv``, no EBE sweep) and pays one
    re-assembly per material update; the EBE arm the reverse."""
    nt = 6
    drv = NonlinearDriver(ground_problem,
                          material=EquivalentLinearMaterial(gamma_ref=1e-7),
                          update_interval=2, op_kind=op_kind)
    _, tally = drv.run(_force(ground_problem, amplitude=1e7), nt=nt)
    tags = set(tally.records)
    ebe = {t for t in tags if t.startswith("spmv.ebe")}
    crs = tags & {"spmv.crs", "rhs.spmv"}
    n_updates = sum(r.updated for r in drv.records)
    assert n_updates > 0
    if op_kind == "crs":
        assert crs == {"spmv.crs", "rhs.spmv"} and not ebe
        assert tally.calls("rhs.spmv") == 2 * nt
        assert tally.calls("spmv.crs") == sum(r.iterations + 1
                                              for r in drv.records)
        assert tally.calls("assembly.crs") == n_updates
    else:
        assert ebe == {"spmv.ebe1"} and not crs
        assert tally.calls("assembly.crs") == 0
