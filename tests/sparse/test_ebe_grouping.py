"""The EBE sweep over element classes.

Above :data:`~repro.sparse.ebe.MIN_MEAN_CLASS_SIZE` the problem stores one
representative matrix per class (its lowest-id member's), and the
operator lays each class's members side by side, applies the
representative to all of them in one GEMM and scatters in original
element order.  So it is the stored operator over the expanded
representatives (``problem.element_matrices``) up to the GEMM's
blocking: results equal to rounding, the same diagonal blocks bit for
bit, the same tally.  CRS and the partitioned parts read those same
matrices.  Run at
the smallest ground mesh above the crossover, ``(6, 6, 3)``; the
partitioned solve needs ``(8, 8, 4)`` for its parts to group.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster.halo import DistributedEBE
from repro.cluster.partition import PartitionInfo, partition_elements
from repro.core import problem as problem_module
from repro.core.methods import run_method
from repro.io.golden import canonical, golden_diff
from repro.io.results import (
    load_pipeline_state,
    merge_checkpoint_docs,
    save_pipeline_state,
)
from repro.sparse.backend import as_backend
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


def _block(problem, r, seed=0):
    return np.random.default_rng(seed).standard_normal((problem.n_dofs, r))


@pytest.mark.parametrize("precision", ["fp64", "fp32", "fp21"])
@pytest.mark.parametrize("r", [1, 4, 8])
def test_grouped_is_the_stored_sweep_over_representatives(problem, r, precision):
    grouped = problem.ebe_operator(precision)
    assert grouped.classes is not None
    assert grouped.Ae.shape[0] == problem.classes["A"].max() + 1
    stored = EBEOperator(problem.element_matrices("A"), problem.mesh.elems,
                         problem.n_nodes, precision=precision)
    assert stored.classes is None
    X = _block(problem, r)
    got, ref = grouped.matvec(X), stored.matvec(X)
    err = np.linalg.norm(got - ref, axis=0) / np.linalg.norm(ref, axis=0)
    assert err.max() <= 1e-14, err
    assert grouped.matvec(X).tobytes() == got.tobytes()  # through kept views
    assert (grouped.diagonal_blocks().tobytes()
            == stored.diagonal_blocks().tobytes())


@pytest.mark.parametrize("r", [1, 4, 8])
@pytest.mark.parametrize("seed", range(4))
def test_batched_groups_are_one_gemm_per_group_bit_for_bit(r, seed):
    """Adjacent equal-size groups take one stacked product, whose items
    are each the GEMM a group alone would get: class-size multisets with
    repeats, laid out in ascending size as the sweep does and in the
    order drawn (equal sizes then only partly adjacent)."""
    rng = np.random.default_rng(seed)
    drawn = rng.choice([0, 1, 1, 2, 3, 5, 8, 8, 13], size=24)
    for sizes in (np.sort(drawn), drawn):
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        A = rng.standard_normal((sizes.size, 30, 30))
        X = rng.standard_normal((30 * offsets[-1], r))
        got = as_backend().grouped_matmul(A, offsets, X, np.full_like(X, np.nan))
        ref = np.full_like(X, np.nan)
        for c, (s, e) in enumerate(zip(30 * offsets[:-1], 30 * offsets[1:])):
            ref[s:e] = (A[c] @ X[s:e].reshape(30, -1)).reshape(-1, r)
        assert got.tobytes() == ref.tobytes()


def _per_class_sweep(op, X):
    """The grouped sweep as one GEMM per class in label order, scattered
    element by element in ascending element order."""
    r = X.shape[1]
    dofs = (3 * op.elems[:, :, None] + np.arange(3)).reshape(-1, 30)
    ye = np.empty((op.n_elems, 30, r))
    for c, a in enumerate(op.Ae):
        members = np.flatnonzero(op.classes == c)
        xe = np.ascontiguousarray(X[dofs[members]].transpose(1, 0, 2)).reshape(30, -1)
        ye[members] = (a @ xe).reshape(30, members.size, r).transpose(1, 0, 2)
    Y = np.zeros_like(X)
    np.add.at(Y, dofs.ravel(), ye.reshape(-1, r))
    return Y


@pytest.mark.parametrize("r", [1, 4, 8])
def test_size_ordered_sweep_is_the_per_class_sweep_bit_for_bit(problem, r):
    """The plan orders the class blocks by size, so the sweep makes one
    product per distinct class size (10 at ``(6, 6, 3)``); A, M and C
    give the bytes of one GEMM per class in label order."""
    bk = as_backend()
    for op in (problem.ebe_operator(), problem.mass_operator("ebe"),
               problem.damping_operator("ebe")):
        X = _block(problem, r)
        assert op.matvec(X).tobytes() == _per_class_sweep(op, X).tobytes()
        sizes = np.diff(op._plan[2])
        assert (np.diff(sizes) >= 0).all()
        assert len(bk._lane.groups[1]) == np.unique(sizes).size
    assert np.unique(np.bincount(problem.classes["A"])).size == 10


def test_readers_agree_on_a_grouped_mesh(problem):
    """CRS, the grouped sweep and two mesh parts (too small to group)
    apply the same matrices, so they agree to summation order."""
    X = _block(problem, 4)
    info = PartitionInfo(problem.mesh, partition_elements(problem.mesh, 2))
    parts = DistributedEBE.from_elements(
        problem.element_matrices("A"), info, classes=problem.classes["A"])
    assert all(op.classes is None for op in parts.local_ops)
    ref = problem.crs_operator().matvec(X)
    for y in (problem.ebe_operator().matvec(X), parts.matvec(X)):
        assert np.linalg.norm(y - ref) <= 1e-13 * np.linalg.norm(ref)


def test_grouped_charges_what_the_stored_operator_charges(problem):
    grouped = problem.ebe_operator()
    stored = EBEOperator(problem.element_matrices("A"), problem.mesh.elems,
                         problem.n_nodes)
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
    """The G/G0 ratio is per element: after an update the damping,
    stiffness and effective matrices are stored per element and their
    operators take the stored path, while the mass stays grouped — its
    operator carried over when built before, grouped when built after."""
    ratio = np.linspace(0.5, 1.0, problem.n_elems)[:, None, None]
    C, K = problem.element_matrices("C"), problem.element_matrices("K")
    built = problem.mass_operator("ebe")
    for base in (problem, replace(problem, _cache={})):
        secant = base.updated(Ce=C * np.sqrt(ratio), Ke=K * ratio)
        assert list(secant.classes) == ["M"]
        assert secant.matrices["A"].shape == (problem.n_elems, 30, 30)
        assert secant.ebe_operator().classes is None
        assert secant.damping_operator("ebe").classes is None
        assert secant.mass_operator("ebe").classes is not None
    assert problem.updated(Ce=C, Ke=K).mass_operator("ebe") is built


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


@pytest.mark.parametrize(
    "member, block",
    [("representative", None), ("member", None), ("representative", 64), ("member", 64)],
    ids=["representative", "member", "representative-block64", "member-block64"])
def test_a_wrong_label_fails_loud(problem, member, block, monkeypatch):
    """``build_problem`` checks every family against its labels and
    names the first element off its representative: a member forged
    into another class is that element; an element forged into a class
    as its lowest id becomes the representative, so the class's first
    true member is named — also when the two sit in different blocks
    of the build."""
    if block is not None:
        monkeypatch.setattr(problem_module, "_BLOCK", block)
    labels = problem.classes["A"]
    c = np.bincount(labels).argmax()
    members = np.flatnonzero(labels == c)
    assert labels[0] != c
    forged = labels.copy()
    if member == "representative":
        forged[0], named = c, members[0]
    else:
        forged[members[-1]], named = labels[0], members[-1]
    monkeypatch.setattr(problem_module, "_element_classes", lambda *a: forged)
    with pytest.raises(ValueError,
                       match=rf"class representative .*\(first: element {named}\)"):
        build_ground_problem(stratified_model(), resolution=(6, 6, 3))
    for bad in (labels[:-1], labels + 1):
        with pytest.raises(ValueError, match="one class label per element"):
            EBEOperator(problem.matrices["A"], problem.mesh.elems, problem.n_nodes,
                        classes=bad)
