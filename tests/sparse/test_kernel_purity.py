"""Kernel-purity lint: hot loops dispatch only through the backend seam.

The whole value of :mod:`repro.sparse.backend` is that the solver hot
paths contain **no direct NumPy dispatch** — every array operation in
them goes through ``bk.*`` primitives (or seam-level helper functions),
so the seam — or a test's substituted subclass of it — really does
control all the hot-path arithmetic.  This test enforces that statically: the AST of each hot
region must contain no reference to the ``np``/``numpy`` names.

Guarded regions:

* ``cg.pcg`` — the CG ``while`` loop body, the only one there is: the
  part-local solve hands over to it (``distributed.distributed_pcg``
  holds no loop of its own, and nothing else calls the recurrence
  primitives);
* what that loop calls on the stacked part-local layout —
  ``distributed.PartitionedReduction.dot`` / ``norm``,
  ``distributed.PartLocalOperator.matvec``, and the per-part
  block-Jacobi ``apply``;
* ``ebe.EBEOperator._sweep`` — the gather/apply/scatter sweep;
* ``bcrs.BlockCRS._apply_block`` — the CSR SpMV fast path;
* ``precond.BlockJacobi._apply_block`` — the block-Jacobi fast path;
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
from repro.sparse import bcrs, cg, distributed, ebe, precond

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
    """The per-part preconditioner adapter runs once per loop iteration
    — its ``apply`` must stay on the seam."""
    fn = _find_method(_module_tree(distributed), "_PerPartPrecond", "apply")
    _assert_pure("distributed._PerPartPrecond.apply", fn.body)


def _src_modules():
    """``(path relative to src/repro, parsed module)`` of every source
    file, sorted."""
    src = Path(repro.__file__).parent
    return [(path.relative_to(src).as_posix(), ast.parse(path.read_text()))
            for path in sorted(src.rglob("*.py"))]


def _functions(tree: ast.Module):
    """``(qualified name, def)`` of a module's functions and its
    classes' methods."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    yield f"{node.name}.{fn.name}", fn


def test_there_is_one_cg_loop():
    """Keeps the second copy from coming back: outside the backends,
    the direction update ``xpay_cols`` is called from ``cg.pcg`` and
    nowhere else, and ``sparse/`` holds one ``while`` loop."""
    callers, whiles = [], []
    for rel, tree in _src_modules():
        if rel.rsplit("/", 1)[-1].startswith("backend"):
            continue
        for fn in ast.walk(tree):
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
    """Keeps a second loop over time steps from coming back: under
    ``src/repro`` a step record is appended in ``StepDriver.run`` and
    nowhere else, and no class but ``StepRecord`` is a step record (a
    dataclass-style body declaring both ``step`` and ``iterations``).
    Within ``core/methods.py`` and ``core/pipeline.py`` the optional
    surface of caller-supplied logs is probed inside ``StepDriver``
    only, the pipeline schedule has no ``run`` of its own, and
    ``methods.py`` holds no driver class."""
    appenders, record_types = [], []
    for rel, tree in _src_modules():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                declared = {n.target.id for n in cls.body
                            if isinstance(n, ast.AnnAssign)
                            and isinstance(n.target, ast.Name)}
                if {"step", "iterations"} <= declared:
                    record_types.append(f"{rel}:{cls.name}")
        for name, fn in _functions(tree):
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "append"
                        and ast.unparse(node.func.value).endswith("records")):
                    appenders.append(f"{rel}:{name}")
    assert appenders == ["core/pipeline.py:StepDriver.run"], appenders
    assert record_types == ["core/results.py:StepRecord"], record_types

    log_surface = {"tail", "last", "all", "replace", "stacked"}
    probes, classes = [], {}
    for mod in (methods, pipeline):
        name = mod.__name__.rsplit(".", 1)[1]
        tree = _module_tree(mod)
        classes[name] = {
            c.name: c for c in tree.body if isinstance(c, ast.ClassDef)
        }
        shared = classes[name].get("StepDriver")
        in_step_driver = {id(n) for n in ast.walk(shared)} if shared else set()
        for node in ast.walk(tree):
            # a probe is the name as a string (hasattr) or as an attribute
            probe = (node.value if isinstance(node, ast.Constant)
                     else node.attr if isinstance(node, ast.Attribute)
                     else None)
            if (isinstance(probe, str) and probe in log_surface
                    and id(node) not in in_step_driver):
                probes.append(f"{name}:{node.lineno}:{probe}")
    assert not probes, probes
    assert set(classes["methods"]) == {"RunConfig"}, set(classes["methods"])
    pipe_methods = {
        f.name for f in classes["pipeline"]["HeterogeneousPipeline"].body
        if isinstance(f, ast.FunctionDef)
    }
    assert "run" not in pipe_methods and "_step" in pipe_methods


def test_only_schedules_and_studies_step_a_case_set():
    """A module that calls ``predict`` and ``solve`` on one receiver
    steps a ``CaseSet`` by hand.  The schedules do, and so do the two
    studies that measure one set's solves; a nonlinear driver did, with
    its own loop, until the material became data of the problem."""
    steppers = set()
    for rel, tree in _src_modules():
        called = {}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("predict", "solve")):
                receiver = ast.unparse(node.func.value)
                called.setdefault(receiver, set()).add(node.func.attr)
        if any(attrs == {"predict", "solve"} for attrs in called.values()):
            steppers.add(rel)
    assert steppers == {"core/pipeline.py", "studies/ablation.py",
                        "studies/sensitivity.py"}, steppers


def test_there_is_one_step_body():
    """Keeps a private time step from coming back (the nonlinear driver
    had one that solved every arm on EBE): under ``src/repro`` outside
    ``sparse/``, ``pcg`` is called and Newmark's ``advance`` runs in
    ``core/pipeline.py`` only — every driver steps a ``CaseSet`` — the
    RHS coefficients meet the displacement (``c_mass * u``, Eq. 5's
    right side) in ``fem/newmark.py`` only, and ``cg.pcg`` serves
    operators through their ``out=`` methods with no signature probe."""
    pcg_calls, advances, rhs_terms = set(), set(), set()
    for rel, tree in _src_modules():
        if rel.startswith("sparse/"):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                called = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if called == "pcg":
                    pcg_calls.add(rel)
                if called == "advance" and isinstance(f, ast.Attribute):
                    advances.add(rel)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
                sides = [ast.unparse(s).rsplit(".", 1)[-1]
                         for s in (node.left, node.right)]
                if {"c_mass", "c_damp"} & set(sides) and {"u", "U"} & set(sides):
                    rhs_terms.add(rel)
    assert pcg_calls == {"core/pipeline.py"}, pcg_calls
    assert advances == {"core/pipeline.py"}, advances
    assert rhs_terms == {"fem/newmark.py"}, rhs_terms
    tree = _module_tree(cg)
    defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    imported = {a.name for n in ast.walk(tree)
                if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names}
    assert not {"_make_apply", "_accepts_out"} & defined, defined
    assert "inspect" not in imported, imported


def test_ebe_sweep_is_backend_pure():
    fn = _find_method(_module_tree(ebe), "EBEOperator", "_sweep")
    _assert_pure("EBEOperator._sweep", fn.body)


def test_bcrs_apply_is_backend_pure():
    fn = _find_method(_module_tree(bcrs), "BlockCRS", "_apply_block")
    _assert_pure("BlockCRS._apply_block", fn.body)


def test_precond_apply_is_backend_pure():
    fn = _find_method(_module_tree(precond), "BlockJacobi", "_apply_block")
    _assert_pure("BlockJacobi._apply_block", fn.body)


def test_mgs_estimate_is_backend_pure():
    """The predictor's kernel is one backend primitive: the function
    the perf harness wraps must hand its arrays to ``qr_estimate``
    untouched, or a substituted subclass would see only part of the
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
