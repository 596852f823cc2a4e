"""Partitioned case set: distributed solves inside the pipeline."""

import numpy as np
import pytest

from repro.core.methods import run_method
from repro.core.partitioned import PartitionedCaseSet
from repro.core.pipeline import CaseSet
from repro.hardware.specs import ALPS_MODULE
from repro.hardware.transfer import TransferModel
from repro.predictor.datadriven import DataDrivenPredictor




def make_predictors(problem, n, s=4):
    return [
        DataDrivenPredictor(problem.n_dofs, problem.dt, s_max=8, n_regions=4, s=s)
        for _ in range(n)
    ]


def advance(cs, nt):
    for it in range(1, nt + 1):
        g, _ = cs.predict(it)
        cs.solve(it, g)


def test_matches_fused_case_set(ground_problem, make_forces):
    """The partitioned Newmark loop reproduces the fused EBE loop to
    solver rounding — the accuracy guarantee survives distribution."""
    f1 = make_forces(ground_problem, 2, seed0=0)
    f2 = make_forces(ground_problem, 2, seed0=0)
    fused = CaseSet(ground_problem, forces=f1,
                    predictors=make_predictors(ground_problem, 2),
                    op_kind="ebe", eps=1e-8)
    parted = PartitionedCaseSet(ground_problem, forces=f2,
                                predictors=make_predictors(ground_problem, 2),
                                op_kind="ebe", eps=1e-8, nparts=4)
    advance(fused, 5)
    advance(parted, 5)
    u_f = fused.displacements()
    u_p = parted.displacements()
    scale = np.abs(u_f).max()
    np.testing.assert_allclose(u_p, u_f, rtol=0, atol=1e-9 * scale)


def test_requires_ebe(ground_problem, make_forces):
    with pytest.raises(ValueError):
        PartitionedCaseSet(ground_problem, forces=make_forces(ground_problem, 2),
                           predictors=make_predictors(ground_problem, 2),
                           op_kind="crs", nparts=2)


def test_single_part_has_no_comm(ground_problem, make_forces):
    cs = PartitionedCaseSet(ground_problem, forces=make_forces(ground_problem, 2),
                            predictors=make_predictors(ground_problem, 2),
                            op_kind="ebe", nparts=1)
    g, _ = cs.predict(1)
    res, _ = cs.solve(1, g)
    assert cs.comm_time(res) == 0.0
    assert cs.part_time_fraction == 1.0


def test_comm_time_positive_and_counts_iterations(ground_problem, make_forces):
    cs = PartitionedCaseSet(ground_problem, forces=make_forces(ground_problem, 2),
                            predictors=make_predictors(ground_problem, 2),
                            op_kind="ebe", nparts=4,
                            link=TransferModel.nic(ALPS_MODULE))
    g, _ = cs.predict(1)
    res, _ = cs.solve(1, g)
    t = cs.comm_time(res)
    assert t > 0
    # more iterations -> strictly more comm under the same plan
    class Fake:
        loop_iterations = res.loop_iterations + 10
    assert cs.comm_time(Fake()) > t


def test_part_time_fraction_shrinks_with_parts(ground_problem, make_forces):
    def frac(nparts):
        cs = PartitionedCaseSet(
            ground_problem, forces=make_forces(ground_problem, 2),
            predictors=make_predictors(ground_problem, 2),
            op_kind="ebe", nparts=nparts,
        )
        return cs.part_time_fraction

    f2, f8 = frac(2), frac(8)
    assert f8 < f2 <= 1.0
    assert f8 >= 1.0 / 8.0  # can never beat a perfect split


def test_run_method_distributed(ground_problem, make_forces):
    """run_method(nparts=4) matches the fused run to rounding and
    charges halo time on the nic lane."""
    f1 = make_forces(ground_problem, 4, seed0=7)
    f2 = make_forces(ground_problem, 4, seed0=7)
    fused = run_method(ground_problem, f1, nt=4, method="ebe-mcg@cpu-gpu",
                       module=ALPS_MODULE, s_range=(2, 8))
    parted = run_method(ground_problem, f2, nt=4, method="ebe-mcg@cpu-gpu",
                        module=ALPS_MODULE, s_range=(2, 8), nparts=4)
    u_f = np.column_stack([s.u for s in fused.final_states])
    u_p = np.column_stack([s.u for s in parted.final_states])
    scale = np.abs(u_f).max()
    np.testing.assert_allclose(u_p, u_f, rtol=0, atol=1e-9 * scale)
    assert all(r.t_halo > 0 for r in parted.records)
    assert all(r.t_halo == 0 for r in fused.records)
    assert parted.timeline.busy_time("nic") > 0
    assert fused.timeline.busy_time("nic") == 0
    parted.timeline.validate()
    # the bottleneck-part solver time is below the fused single device
    assert (sum(r.t_solver for r in parted.records)
            < sum(r.t_solver for r in fused.records))


def test_run_method_rejects_unpartitionable(ground_problem, make_forces):
    forces = make_forces(ground_problem, 2)
    with pytest.raises(ValueError):
        run_method(ground_problem, forces, nt=1, method="crs-cg@gpu", nparts=2)
    with pytest.raises(ValueError):
        run_method(ground_problem, forces, nt=1, method="ebe-mcg@cpu-gpu",
                   nparts=0)


def test_partitioned_precision_halo_and_solve(ground_problem, make_forces):
    """A fp21 partitioned set builds a fp21-storage operator, charges
    storage-width halo bytes, and still solves to eps."""
    from repro.sparse.precision import FP21

    cs = PartitionedCaseSet(
        ground_problem, forces=make_forces(ground_problem, 2, seed0=4),
        predictors=make_predictors(ground_problem, 2),
        op_kind="ebe", eps=1e-8, nparts=4, precision="fp21",
    )
    assert cs.dist.precision is FP21
    ref = PartitionedCaseSet(
        ground_problem, forces=make_forces(ground_problem, 2, seed0=4),
        predictors=make_predictors(ground_problem, 2),
        op_kind="ebe", eps=1e-8, nparts=4,
    )
    assert cs.dist.comm_bytes_per_matvec == pytest.approx(
        ref.dist.comm_bytes_per_matvec * 21.0 / 64.0
    )
    g, _ = cs.predict(1)
    res, _ = cs.solve(1, g)
    assert bool(res.converged.all())
    assert float(res.final_relres.max()) < 1e-8
    # the modeled nic seconds shrink with the wire word
    g2, _ = ref.predict(1)
    res2, _ = ref.solve(1, g2)
    if res.loop_iterations == res2.loop_iterations:
        assert cs.comm_time(res) < ref.comm_time(res2)
