"""A problem stores each element family the way its EBE operator applies
it: one matrix per class where the classes group, else one per element.

A grouped problem, with the operators a run builds from it, must retain
no ``(ne, 30, 30)`` array anywhere — the per-element view is
``element_matrices``, expanded on demand for the readers that need it.
Nor does its build hold one: ``build_problem`` integrates the families
block by block, and the blocking moves no bit.
"""

import gc
import tracemalloc
import types

import numpy as np
import pytest

from repro.core import problem as problem_module
from repro.workloads.ground import build_ground_problem, stratified_model


def _reachable_arrays(root) -> list[np.ndarray]:
    """Every ndarray reachable from ``root`` through instance state and
    containers (not through classes, modules or functions)."""
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    seen, stack, arrays = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
            stack.append(obj.base)
        else:
            stack.extend(gc.get_referents(obj))
    return arrays


def _grouped_run_state():
    problem = build_ground_problem(stratified_model(), resolution=(6, 6, 3))
    problem.ebe_operator()
    problem.mass_operator("ebe")
    problem.damping_operator("ebe")
    problem.preconditioner()
    return problem


def test_a_grouped_problem_retains_no_per_element_family(monkeypatch):
    monkeypatch.setattr(problem_module, "_BLOCK", 64)
    tracemalloc.start()
    try:
        problem = _grouped_run_state()
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ne = problem.n_elems
    arrays = _reachable_arrays(problem)
    assert any(a is problem.preconditioner()._inv for a in arrays)  # reaches the cache
    assert max(a.size for a in arrays) < ne * 900
    # less than one (ne, 30, 30) family: 4.7 MB here, where four were held
    assert retained < 8 * ne * 900
    # the build never held two (ne, 30, 30) families: 6 MB here, where
    # integrating whole families at once peaked near six (26 MB)
    assert peak < 2 * 8 * ne * 900
    assert sorted(problem.classes) == ["A", "C", "K", "M"]
    assert all(m.shape == (problem.classes[f].max() + 1, 30, 30)
               for f, m in problem.matrices.items())


def test_a_problem_below_the_crossover_stores_per_element():
    problem = build_ground_problem(stratified_model(), resolution=(3, 3, 2))
    assert problem.classes == {}
    for family, mats in problem.matrices.items():
        assert mats.shape == (problem.n_elems, 30, 30)
        assert problem.element_matrices(family) is mats


@pytest.mark.parametrize("res", [(6, 6, 3), (5, 5, 3)], ids=["grouped", "stored"])
def test_blocking_moves_no_bit(res, monkeypatch):
    """One block or many, the stored matrices and labels are the same
    bytes — the stored (5, 5, 3) mesh is 450 elements, one block by
    default."""
    def build(block):
        monkeypatch.setattr(problem_module, "_BLOCK", block)
        return build_ground_problem(stratified_model(), resolution=res)
    one = build(10**6)
    many = build(64)
    assert (one.classes == {}) == (res == (5, 5, 3))
    assert sorted(many.classes) == sorted(one.classes)
    for f in "MCKA":
        assert many.matrices[f].tobytes() == one.matrices[f].tobytes()
        if f in one.classes:
            assert many.classes[f].tobytes() == one.classes[f].tobytes()
