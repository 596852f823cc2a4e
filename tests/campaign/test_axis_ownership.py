"""One owner per fact: axis defaults live in the registries, axis reads
go through the table.

Before :mod:`repro.campaign.axes` every layer spelled each axis default
itself (``params.get("precision", "fp64")``, ``DEFAULT_BACKEND =
"numpy"`` mirrored "so the spec layer stays import-light"), and a test
per copy guarded the drift the copies created.  This lint keeps the
copies from coming back: in the campaign, study, driver and CLI
modules, outside the table module itself,

* no ``<dict>.get("<axis key>", ...)`` call — read an axis with
  ``AXIS[key].of(params)`` / ``axis_values(params)``;
* no ``DEFAULT_* = "<literal>"`` assignment — import the owning
  registry's constant.

The method-cell studies have one owner too: under ``studies/`` only the
study table (``sweeps.py``) may call ``method_cell_params`` or define a
``*_cells`` / ``*_table`` / ``render_*_table`` function whose module
builds ``kind="method"`` cells — a new study is a ``Sweep`` row, not a
tenth hand-written module.  (``ablation`` / ``sensitivity`` register
their own executors and keep their own ``*_cells``.)
"""

import ast
import pathlib
import re

import repro
from repro.campaign.axes import AXIS

SRC = pathlib.Path(repro.__file__).parent
TABLE_MODULE = SRC / "campaign" / "axes.py"
GUARDED = sorted(
    {
        *(SRC / "campaign").glob("*.py"),
        *(SRC / "studies").glob("*.py"),
        SRC / "core" / "methods.py",
        SRC / "cli.py",
    }
    - {TABLE_MODULE}
)


def _violations(path: pathlib.Path) -> list[str]:
    bad = []
    for node in ast.walk(ast.parse(path.read_text())):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value in AXIS
        ):
            bad.append(f"{path.name}:{node.lineno}: .get({node.args[0].value!r}, ...)")
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant):
            for target in node.targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id.startswith("DEFAULT_")
                    and isinstance(node.value.value, str)
                ):
                    bad.append(
                        f"{path.name}:{node.lineno}: {target.id} = "
                        f"{node.value.value!r}"
                    )
    return bad


STUDY_TABLE = SRC / "studies" / "sweeps.py"
_STUDY_FUNCTION = re.compile(r"_(cells|table)$")  # render_*_table included


def _study_violations(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text())
    nodes = list(ast.walk(tree))
    bad = [
        f"{path.name}:{n.lineno}: calls method_cell_params"
        for n in nodes
        if isinstance(n, ast.Call)
        and getattr(n.func, "id", getattr(n.func, "attr", None))
        == "method_cell_params"
    ]
    builds_method_cells = any(
        isinstance(n, ast.keyword) and n.arg == "kind"
        and isinstance(n.value, ast.Constant) and n.value.value == "method"
        for n in nodes
    )
    if builds_method_cells:
        bad += [
            f"{path.name}:{n.lineno}: def {n.name} beside kind=\"method\" cells"
            for n in nodes
            if isinstance(n, ast.FunctionDef) and _STUDY_FUNCTION.search(n.name)
        ]
    return bad


def test_method_cell_studies_live_in_the_table_only():
    others = sorted(set((SRC / "studies").glob("*.py")) - {STUDY_TABLE})
    assert STUDY_TABLE.exists() and others
    bad = [v for path in others for v in _study_violations(path)]
    assert not bad, (
        "method-cell study written out by hand; add a Sweep row to "
        "studies/sweeps.py instead:\n" + "\n".join(bad)
    )


def test_guarded_modules_exist():
    assert TABLE_MODULE.exists()
    assert len(GUARDED) > 10 and all(p.exists() for p in GUARDED)


def test_no_axis_default_is_spelled_outside_the_table():
    bad = [v for path in GUARDED for v in _violations(path)]
    assert not bad, "axis facts re-declared outside campaign/axes.py:\n" + "\n".join(bad)


def test_lint_catches_the_patterns(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        'DEFAULT_BACKEND = "numpy"\n'
        'x = params.get("precision", "fp64")\n'
        'y = p.get("predictor")\n'
        'z = params.get("model")\n'
    )
    assert len(_violations(sample)) == 3

    study = tmp_path / "study.py"
    study.write_text(
        'def widget_cells():\n'
        '    params, label = method_cell_params("m", w, "x", (2, 2, 1))\n'
        '    return [CampaignCell(kind="method", params=params)]\n'
        'def widget_table(outcomes): ...\n'
        'def render_widget_table(points): ...\n'
        'def helper(): ...\n'
    )
    assert len(_study_violations(study)) == 4
    own_executor = tmp_path / "own.py"  # ablation / sensitivity shape
    own_executor.write_text(
        'def widget_cells():\n'
        '    return [CampaignCell(kind="widget", params={})]\n'
    )
    assert _study_violations(own_executor) == []
