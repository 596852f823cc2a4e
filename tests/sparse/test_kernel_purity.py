"""Kernel-purity lint: hot loops dispatch only through the backend seam.

The whole value of :mod:`repro.sparse.backend` is that the solver hot
paths contain **no direct NumPy dispatch** — every array operation in
them goes through ``bk.*`` primitives (or seam-level helper functions),
so a registered backend really does control all the hot-path
arithmetic.  This test enforces that statically: the AST of each hot
region must contain no reference to the ``np``/``numpy`` names.

Guarded regions:

* ``cg.pcg`` — the CG ``while`` loop body;
* ``distributed.distributed_pcg`` — its ``while`` loop body and the
  ``owned_dot`` / ``owned_norm`` / ``apply_A`` closures it calls from
  inside the loop;
* ``distributed.distributed_pcg`` — both ``apply_precond`` closures
  (per-part block-Jacobi and the gather/cycle/scatter global family);
* ``ebe.EBEOperator._sweep`` — the gather/apply/scatter sweep;
* ``bcrs.BlockCRS._apply_block`` — the CSR SpMV fast path;
* ``precond.BlockJacobi._apply_block`` — the block-Jacobi fast path;
* ``twogrid.TwoGrid._cycle`` / ``_residual`` — the two-grid V-cycle
  applied once per CG iteration;
* ``predictor.datadriven.mgs_estimate`` — the data-driven predictor's
  per-step history regression, the one predictor kernel on the seam.

Cold code (setup, validation, result assembly) may use NumPy freely —
only the per-iteration regions are linted.
"""

import ast
import inspect

import pytest

from repro.predictor import datadriven
from repro.sparse import bcrs, cg, distributed, ebe, precond, twogrid

FORBIDDEN_NAMES = {"np", "numpy"}


def _module_tree(module) -> ast.Module:
    return ast.parse(inspect.getsource(module))


def _find_function(tree: ast.AST, name: str) -> ast.FunctionDef:
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise AssertionError(
        f"hot-path target {name!r} not found — if it was renamed, "
        "update this lint so the purity guarantee follows it"
    )


def _find_method(tree: ast.AST, cls: str, name: str) -> ast.FunctionDef:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == cls:
            return _find_function(node, name)
    raise AssertionError(f"class {cls!r} not found")


def _while_body(fn: ast.FunctionDef) -> list[ast.stmt]:
    whiles = [n for n in ast.walk(fn) if isinstance(n, ast.While)]
    assert whiles, f"{fn.name} has no while loop — hot loop moved?"
    assert len(whiles) == 1, f"{fn.name} grew a second while loop"
    return whiles[0].body


def _numpy_references(nodes) -> list[str]:
    """``file-less`` report of forbidden Name references in a region."""
    bad = []
    for stmt in nodes:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and node.id in FORBIDDEN_NAMES:
                bad.append(f"line {node.lineno}: {node.id}")
    return bad


def _assert_pure(region, nodes) -> None:
    bad = _numpy_references(nodes)
    assert not bad, (
        f"{region} bypasses the backend seam with direct numpy "
        f"dispatch: {bad}; route it through an ArrayBackend primitive"
    )


def test_cg_loop_is_backend_pure():
    fn = _find_function(_module_tree(cg), "pcg")
    _assert_pure("cg.pcg while-loop", _while_body(fn))


def test_distributed_loop_is_backend_pure():
    fn = _find_function(_module_tree(distributed), "distributed_pcg")
    _assert_pure("distributed_pcg while-loop", _while_body(fn))


@pytest.mark.parametrize("closure", ["owned_dot", "owned_norm", "apply_A"])
def test_distributed_closures_are_backend_pure(closure):
    """The reductions and operator application the loop calls are part
    of the hot path even though they sit outside the while statement."""
    fn = _find_function(_module_tree(distributed), "distributed_pcg")
    inner = _find_function(fn, closure)
    _assert_pure(f"distributed_pcg.{closure}", inner.body)


def test_distributed_precond_closures_are_backend_pure():
    """Both preconditioner application closures (the per-part default
    and the global two-grid gather/cycle/scatter) run once per loop
    iteration — each must stay on the seam."""
    fn = _find_function(_module_tree(distributed), "distributed_pcg")
    closures = [
        n for n in ast.walk(fn)
        if isinstance(n, ast.FunctionDef) and n.name == "apply_precond"
    ]
    assert len(closures) == 2, "expected the global and per-part variants"
    for inner in closures:
        _assert_pure(
            f"distributed_pcg.apply_precond (line {inner.lineno})",
            inner.body,
        )


def test_ebe_sweep_is_backend_pure():
    fn = _find_method(_module_tree(ebe), "EBEOperator", "_sweep")
    _assert_pure("EBEOperator._sweep", fn.body)


def test_bcrs_apply_is_backend_pure():
    fn = _find_method(_module_tree(bcrs), "BlockCRS", "_apply_block")
    _assert_pure("BlockCRS._apply_block", fn.body)


def test_precond_apply_is_backend_pure():
    fn = _find_method(_module_tree(precond), "BlockJacobi", "_apply_block")
    _assert_pure("BlockJacobi._apply_block", fn.body)


@pytest.mark.parametrize("method", ["_cycle", "_residual"])
def test_twogrid_cycle_is_backend_pure(method):
    """The V-cycle is the new per-iteration hot region: smoothing,
    transfers and residuals all dispatch through ``bk.*``.  (No
    ``_while_body`` here — the cycle's loops are bounded ``for``
    sweeps; the whole body is hot.)"""
    fn = _find_method(_module_tree(twogrid), "TwoGrid", method)
    _assert_pure(f"TwoGrid.{method}", fn.body)


def test_mgs_estimate_is_backend_pure():
    """The predictor's kernel is one backend primitive: the function
    the perf harness wraps must hand its arrays to ``qr_estimate``
    untouched, or an engine's override would see only part of the
    work."""
    fn = _find_function(_module_tree(datadriven), "mgs_estimate")
    _assert_pure("datadriven.mgs_estimate", fn.body)
    calls = [
        n.func.attr for n in ast.walk(fn)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
    ]
    assert calls == ["qr_estimate"], calls


def test_lint_detects_violations():
    """The lint itself must catch a seam bypass (meta-check: an
    ineffective lint would silently void the purity guarantee)."""
    snippet = ast.parse(
        "def f(R, Z):\n"
        "    while True:\n"
        "        np.copyto(Z, R)\n"
    )
    fn = _find_function(snippet, "f")
    assert _numpy_references(_while_body(fn)) == ["line 3: np"]
