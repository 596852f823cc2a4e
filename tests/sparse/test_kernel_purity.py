"""Kernel-purity lint: hot loops dispatch only through the backend seam.

The whole value of :mod:`repro.sparse.backend` is that the solver hot
paths contain **no direct NumPy dispatch** — every array operation in
them goes through ``bk.*`` primitives (or seam-level helper functions),
so a registered backend really does control all the hot-path
arithmetic.  This test enforces that statically: the AST of each hot
region must contain no reference to the ``np``/``numpy`` names.

Guarded regions:

* ``cg.pcg`` — the CG ``while`` loop body, the only one there is: the
  part-local solve hands over to it (``distributed.distributed_pcg``
  holds no loop of its own, and nothing else calls the recurrence
  primitives);
* what that loop calls on the stacked part-local layout —
  ``distributed.PartitionedReduction.dot`` / ``norm``,
  ``distributed.PartLocalOperator.matvec``, and both preconditioner
  ``apply`` bodies (per-part block-Jacobi and the gather/cycle/scatter
  global family);
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
from pathlib import Path

import pytest

import repro
from repro.core import methods, pipeline
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
    """The part-local solve has no loop of its own to lint: it must
    hand the stacked layout to the one ``pcg`` loop linted above."""
    fn = _find_function(_module_tree(distributed), "distributed_pcg")
    loops = [n for n in ast.walk(fn) if isinstance(n, (ast.While, ast.For))]
    assert not loops, "distributed_pcg grew a loop — the copy is back?"
    calls = [n.func.id for n in ast.walk(fn)
             if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)]
    assert calls.count("pcg") == 1, calls


# ids: the closures of the deleted second loop these bodies replaced
@pytest.mark.parametrize("cls,method", [
    pytest.param("PartitionedReduction", "dot", id="owned_dot"),
    pytest.param("PartitionedReduction", "norm", id="owned_norm"),
    pytest.param("PartLocalOperator", "matvec", id="apply_A"),
])
def test_distributed_closures_are_backend_pure(cls, method):
    """The reductions and operator application ``pcg`` calls on the
    stacked layout are its hot path as much as the loop body is."""
    fn = _find_method(_module_tree(distributed), cls, method)
    _assert_pure(f"distributed.{cls}.{method}", fn.body)


def test_distributed_precond_closures_are_backend_pure():
    """Both preconditioner adapters (the per-part default and the
    global two-grid gather/cycle/scatter) run once per loop iteration
    — each ``apply`` must stay on the seam."""
    tree = _module_tree(distributed)
    for cls in ("_PerPartPrecond", "_GatheredPrecond"):
        fn = _find_method(tree, cls, "apply")
        _assert_pure(f"distributed.{cls}.apply", fn.body)


def test_there_is_one_cg_loop():
    """Keeps the second copy from coming back: outside the backends,
    the direction update ``xpay_cols`` is called from ``cg.pcg`` and
    nowhere else, and ``sparse/`` holds one ``while`` loop."""
    src = Path(repro.__file__).parent
    callers, whiles = [], []
    for path in sorted(src.rglob("*.py")):
        if path.name.startswith("backend"):
            continue
        rel = path.relative_to(src).as_posix()
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "xpay_cols"):
                    callers.append(f"{rel}:{fn.name}")
                if isinstance(node, ast.While) and rel.startswith("sparse/"):
                    whiles.append(f"{rel}:{fn.name}")
    assert callers == ["sparse/cg.py:pcg"], callers
    assert whiles == ["sparse/cg.py:pcg"], whiles


def test_there_is_one_step_loop():
    """Keeps the second step driver from coming back: across
    ``core/methods.py`` and ``core/pipeline.py`` a step record is
    appended from one function, the optional surface of caller-supplied
    logs is probed inside ``StepDriver`` only, the pipeline schedule
    has no ``run`` of its own, and ``methods.py`` holds no driver class.
    (``core/nonlinear.py`` logs its own record type and is out of
    scope.)"""
    log_surface = {"tail", "last", "all", "replace", "stacked"}
    appenders, probes, classes = [], [], {}
    for mod in (methods, pipeline):
        name = mod.__name__.rsplit(".", 1)[1]
        tree = _module_tree(mod)
        classes[name] = {
            c.name: c for c in tree.body if isinstance(c, ast.ClassDef)
        }
        shared = classes[name].get("StepDriver")
        in_step_driver = {id(n) for n in ast.walk(shared)} if shared else set()
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "append"
                        and ast.unparse(node.func.value).endswith("records")):
                    appenders.append(f"{name}:{fn.name}")
        for node in ast.walk(tree):
            # a probe is the name as a string (hasattr) or as an attribute
            probe = (node.value if isinstance(node, ast.Constant)
                     else node.attr if isinstance(node, ast.Attribute)
                     else None)
            if (isinstance(probe, str) and probe in log_surface
                    and id(node) not in in_step_driver):
                probes.append(f"{name}:{node.lineno}:{probe}")
    assert appenders == ["pipeline:run"], appenders
    assert not probes, probes
    assert set(classes["methods"]) == {"RunConfig"}, set(classes["methods"])
    pipe_methods = {
        f.name for f in classes["pipeline"]["HeterogeneousPipeline"].body
        if isinstance(f, ast.FunctionDef)
    }
    assert "run" not in pipe_methods and "_step" in pipe_methods


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


def test_there_is_one_operator_factory():
    """Keeps the construction copies from coming back: under ``core/``,
    ``studies/`` and ``campaign/`` only ``core/problem.py`` turns
    element matrices into operators — everything else asks the problem,
    so an operator is built once, on the run's engine.  (``sparse/``
    and ``cluster/`` compose their own parts and are out of scope.)"""
    builders = {"EBEOperator", "BlockCRS", "BlockJacobi", "from_elements",
                "part_block_jacobi", "apply_dirichlet_to_elements"}
    src = Path(repro.__file__).parent
    sites = set()
    for layer in ("core", "studies", "campaign"):
        for path in sorted((src / layer).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                called = (node.func.attr if isinstance(node.func, ast.Attribute)
                          else getattr(node.func, "id", None))
                if called in builders:
                    sites.add(path.relative_to(src).as_posix())
    assert sites == {"core/problem.py"}, sites
