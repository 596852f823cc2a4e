"""Pin what the campaign axes produce: cells, study cells, checkpoint headers.

``python tools/axes_fixture.py`` writes
``tests/campaign/fixtures/axes_parent.json``; the committed fixture was
generated at ``d140743``, the commit *before* the axis table and
``RunConfig`` replaced the per-axis copies, and
``tests/campaign/test_axes.py`` rebuilds the same document from the
working tree and demands equality.  Regenerate only when a cell key,
label, cell order or checkpoint header is *meant* to change — every
cached store and pending checkpoint is invalidated by such a change.

The ``cells`` and ``checkpoint_headers`` sections use only entry points
that exist on both sides of that refactor.  The ``studies`` section no
longer does: at ``d140743`` it called the five per-study cell builders
of ``repro.studies`` at their defaults; since the study table replaced
them (PR 16) it reads the same cells from ``SWEEP[name].cells()``.
"""

from __future__ import annotations

import itertools
import json
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]
FIXTURE = REPO / "tests" / "campaign" / "fixtures" / "axes_parent.json"

PRECONDS = ("bj", "twogrid")
#: ``None`` stands for the method's own native predictor, named explicitly.
PREDICTORS = ("auto", None, "aitken")


def composite_spec():
    """Four methods, every axis at two values."""
    from repro.campaign import CampaignSpec, default_waves
    from repro.core.methods import METHODS

    return CampaignSpec(
        name="axes",
        models=("stratified",),
        waves=default_waves(1),
        methods=METHODS,
        resolutions=((2, 2, 1),),
        cases=2,
        steps=4,
        scenarios=("impulse", "soft-soil"),
        nparts=(1, 2),
        precision=("fp64", "fp21"),
        backends=("numpy", "numpy-blocked"),
        preconditioners=PRECONDS,
        predictors=("auto", "aitken"),
    )


def study_cells() -> dict:
    """``(params, label)`` of each study's cells at its defaults (the
    strong-scaling row came after this fixture; its cells are pinned by
    ``tests/studies/fixtures/tables_parent.json``)."""
    from repro.studies import SWEEP

    return {
        name: [[c.params, c.label] for c in SWEEP[name].cells()]
        for name in ("scenarios", "transprecision", "weakscaling",
                     "twogrid", "predictors")
    }


def checkpoint_headers() -> dict:
    """Every key of the first two ``on_checkpoint`` documents, in
    document order, the bulky ``state`` value left out."""
    from repro.core.methods import METHODS, NATIVE_PREDICTORS, run_method
    from repro.workloads.scenario import scenario_by_name

    scen = scenario_by_name("impulse")()
    problem = scen.build_problem("stratified", (2, 2, 1))

    def headers(method: str, **axes) -> list:
        docs: list[dict] = []
        run_method(
            problem, scen.forces(problem, {}, seed=0, n_cases=2), nt=3,
            method=method, s_range=(2, 4), checkpoint_every=1,
            on_checkpoint=docs.append, **axes,
        )
        return [
            [[k, None if k == "state" else v] for k, v in doc.items()]
            for doc in docs[:2]
        ]

    out = {}
    for method, precond, pred in itertools.product(METHODS, PRECONDS, PREDICTORS):
        name = NATIVE_PREDICTORS[method] if pred is None else pred
        out[f"{method}/{precond}/{'native' if pred is None else pred}"] = headers(
            method, precond=precond, predictor=name
        )
    # the two axes the matrix above leaves at their defaults
    out["ebe-mcg@cpu-gpu/p2/fp21"] = headers(
        "ebe-mcg@cpu-gpu", nparts=2, precision="fp21"
    )
    return out


def build() -> dict:
    return {
        "cells": [[c.label, c.key, c.params] for c in composite_spec().cells()],
        "studies": study_cells(),
        "checkpoint_headers": checkpoint_headers(),
    }


def dumps(doc: dict) -> str:
    """One list item per line: diffable without 20 lines per cell."""
    def one(v) -> str:
        return json.dumps(v, separators=(",", ":"))

    def items(values) -> str:
        return "[\n" + ",\n".join("  " + one(v) for v in values) + "\n ]"

    parts = ['"cells": ' + items(doc["cells"])]
    for section in ("studies", "checkpoint_headers"):
        inner = ",\n".join(
            f'  {one(k)}: ' + items(v).replace("\n", "\n  ")
            for k, v in doc[section].items()
        )
        parts.append(f'"{section}": {{\n{inner}\n }}')
    return "{\n " + ",\n ".join(parts) + "\n}\n"


def main() -> int:
    sys.path.insert(0, str(REPO / "src"))
    doc = build()
    text = dumps(doc)
    if json.loads(text) != json.loads(json.dumps(doc)):
        raise RuntimeError("line-per-item layout does not round-trip")
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(text)
    print(f"wrote {FIXTURE.relative_to(REPO)} ({len(text)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
