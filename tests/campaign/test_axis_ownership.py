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
"""

import ast
import pathlib

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


def test_guarded_modules_exist():
    assert TABLE_MODULE.exists()
    assert len(GUARDED) > 15 and all(p.exists() for p in GUARDED)


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
