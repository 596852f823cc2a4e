"""The EBE sweep over element classes.

Above :data:`~repro.sparse.ebe.MIN_MEAN_CLASS_SIZE` the operator sorts
elements by class, applies one representative matrix per class (its
lowest-id member's) and scatters in original element order.  So it is,
bit for bit, the stored operator over the representatives' values: same
results, same diagonal blocks, same tally.  Against the problem's own
per-element matrices it agrees to rounding.  Run at the smallest ground
mesh above the crossover, ``(6, 6, 3)``; the partitioned case needs
``(8, 8, 4)`` for its parts to group.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.methods import run_method
from repro.io.golden import canonical, golden_diff
from repro.io.results import (
    load_pipeline_state,
    merge_checkpoint_docs,
    save_pipeline_state,
)
from repro.sparse.cg import pcg
from repro.sparse.distributed import PartitionedReduction, distributed_pcg
from repro.sparse.ebe import MIN_MEAN_CLASS_SIZE, EBEOperator
from repro.sparse.precond import BlockJacobi
from repro.util.counters import tally_scope
from repro.workloads.ground import build_ground_problem, stratified_model


@pytest.fixture(scope="module")
def problem():
    p = build_ground_problem(stratified_model(), resolution=(6, 6, 3))
    labels = p.classes["A"]
    assert p.n_elems >= MIN_MEAN_CLASS_SIZE * (labels.max() + 1)
    return p


def _representatives(problem) -> np.ndarray:
    """Each element's class representative: its lowest-id member."""
    labels = problem.classes["A"]
    _, first = np.unique(labels, return_index=True)
    return first[labels]


def _block(problem, r, seed=0):
    return np.random.default_rng(seed).standard_normal((problem.n_dofs, r))


@pytest.mark.parametrize("precision", ["fp64", "fp32", "fp21"])
@pytest.mark.parametrize("r", [1, 4, 8])
def test_grouped_is_the_stored_sweep_over_representatives(problem, r, precision):
    grouped = problem.ebe_operator(precision)
    assert grouped.classes is not None
    assert grouped.Ae.shape[0] == problem.classes["A"].max() + 1
    stored = EBEOperator(problem.Ae[_representatives(problem)], problem.mesh.elems,
                         problem.n_nodes, precision=precision)
    assert stored.classes is None
    X = _block(problem, r)
    assert grouped.matvec(X).tobytes() == stored.matvec(X).tobytes()
    assert (grouped.diagonal_blocks().tobytes()
            == stored.diagonal_blocks().tobytes())


def test_grouped_agrees_with_crs(problem):
    X = _block(problem, 4)
    y, ref = problem.ebe_operator().matvec(X), problem.crs_operator().matvec(X)
    assert np.linalg.norm(y - ref) <= 1e-13 * np.linalg.norm(ref)


def test_grouped_charges_what_the_stored_operator_charges(problem):
    grouped = problem.ebe_operator()
    stored = EBEOperator(problem.Ae, problem.mesh.elems, problem.n_nodes)
    assert grouped.memory_bytes() == stored.memory_bytes()
    tallies = []
    for op in (grouped, stored):
        with tally_scope() as t:
            for r in (1, 4, 8):
                op.matvec(_block(problem, r))
        tallies.append({tag: (t.calls(tag), t.total_flops(tag), t.total_bytes(tag))
                        for tag in ("spmv.ebe1", "spmv.ebe4", "spmv.ebe8")})
    assert tallies[0] == tallies[1]
    assert all(calls == 1 for calls, _, _ in tallies[0].values())


def test_two_parts_agree_with_the_fused_solve():
    p = build_ground_problem(stratified_model(), resolution=(8, 8, 4))
    dist = p.distributed_operator(2)
    assert all(op.classes is not None for op in dist.local_ops)
    B = _block(p, 2, seed=7)
    B[p.fixed_dofs] = 0.0
    got = distributed_pcg(dist, B, eps=1e-8)
    ref = pcg(dist, B, precond=BlockJacobi(dist.diagonal_blocks()), eps=1e-8,
              reduction=PartitionedReduction(dist.owned_global_dofs))
    assert got.x.tobytes() == ref.x.tobytes()
    assert np.array_equal(got.iterations, ref.iterations)
    fused = pcg(p.ebe_operator(), B, precond=p.preconditioner(), eps=1e-8)
    assert np.abs(got.iterations - fused.iterations).max() <= 1
    assert np.linalg.norm(got.x - fused.x) <= 1e-7 * np.linalg.norm(fused.x)


def test_a_secant_update_keeps_only_the_mass_classes(problem):
    """The G/G0 ratio is per element: after an update the damping and
    effective operators take the stored path, while the mass operator
    stays grouped — carried over when built before, grouped when built
    after."""
    ratio = np.linspace(0.5, 1.0, problem.n_elems)[:, None, None]
    built = problem.mass_operator("ebe")
    for base in (problem, replace(problem, _cache={})):
        secant = base.updated(Ce=base.Ce * np.sqrt(ratio), Ke=base.Ke * ratio)
        assert secant.ebe_operator().classes is None
        assert secant.damping_operator("ebe").classes is None
        assert secant.mass_operator("ebe").classes is not None
    assert problem.updated(Ce=problem.Ce, Ke=problem.Ke).mass_operator("ebe") is built


@pytest.mark.parametrize("method", ["crs-cg@cpu", "ebe-mcg@cpu-gpu"])
def test_resume_is_bit_identical(problem, make_forces, method, tmp_path):
    """Both schedules: the sequential baseline (whose block-Jacobi comes
    from the grouped operator) and the heterogeneous pipeline."""
    nt, forces = 6, make_forces(problem, 2 if "@cpu-gpu" in method else 1)
    kw = dict(method=method, s_range=(2, 4))
    straight = run_method(problem, forces, nt=nt, **kw)
    flushes = []
    run_method(problem, forces, nt=nt, checkpoint_every=3,
               on_checkpoint=flushes.append, **kw)
    saved = merge_checkpoint_docs(flushes)
    assert saved["step"] == 3
    path = save_pipeline_state(saved, tmp_path / "state.json")
    resumed = run_method(problem, forces, nt=nt,
                         start_state=load_pipeline_state(path), **kw)
    assert golden_diff(canonical([r.to_dict() for r in straight.records]),
                       canonical([r.to_dict() for r in resumed.records])) == []
    assert all(a.u.tobytes() == b.u.tobytes()
               for a, b in zip(straight.final_states, resumed.final_states))


@pytest.mark.parametrize("member", ["representative", "member"])
def test_a_wrong_label_fails_loud(problem, member):
    labels = problem.classes["A"]
    rep = _representatives(problem)
    c = np.bincount(labels).argmax()
    members = np.flatnonzero(labels == c)
    e = rep[members[0]] if member == "representative" else members[-1]
    Ae = problem.Ae.copy()
    Ae[e] *= 1.0 + 1e-8
    with pytest.raises(ValueError, match="class representative"):
        EBEOperator(Ae, problem.mesh.elems, problem.n_nodes, classes=labels)
    with pytest.raises(ValueError, match="one class label per element"):
        EBEOperator(problem.Ae, problem.mesh.elems, problem.n_nodes,
                    classes=labels[:-1])
