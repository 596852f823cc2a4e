"""The study table: every row of ``SWEEPS`` against the bytes of the
commit before it, and the rules all rows share.

``fixtures/tables_parent.json`` was written by the per-study API of
commit ``fa50931`` (a cell builder, a row class, a reduction and a
renderer per study, each run at its defaults) and is never edited: the
table must reproduce the rendered text byte for byte and every number
exactly.  The parent had no
renderer for the transprecision and scaling rows (their text is the
parent's numbers through the parent's ``format_table``), and printed
two-grid pairs side by side — the long form is compared number by
number.
"""

import json
import math
import pathlib

import pytest

from repro.campaign.axes import AXIS
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import cell_key, method_cell_params
from repro.studies import SWEEP, SWEEPS, Column, Sweep

HERE = pathlib.Path(__file__).parent
TABLES = json.loads((HERE / "fixtures" / "tables_parent.json").read_text())
CELLS = {
    **json.loads(
        (HERE.parent / "campaign" / "fixtures" / "axes_parent.json").read_text()
    )["studies"],
    "strongscaling": TABLES["strongscaling"]["cells"],
}

sweeps = pytest.mark.parametrize("sweep", SWEEPS, ids=lambda s: s.name)


def summaries(cells):
    """A plausible, distinct run summary per cell."""
    return [
        {"elapsed_per_step_per_case_s": 1e-6 * (i + 1),
         "iterations_per_step": 10.0 + i, "predictor_s_used": 4.0,
         "achieved_relres": 1e-9,
         "result": {"n_dofs": 100, "halo_time_per_step_per_case": 1e-7}}
        for i in range(len(cells))
    ]


def by_group(rows, key):
    out: dict[str, list] = {}
    for row in rows:
        out.setdefault(row["group"], []).append(row[key])
    return out


# ------------------------------------------------- the parent's bytes
@sweeps
def test_default_cells_match_the_parent_commit(sweep):
    """Params (key order included), labels and cell order — so every
    cached store entry of a study stays a hit."""
    assert [[c.params, c.label] for c in sweep.cells()] == CELLS[sweep.name]


@sweeps
def test_default_tables_match_the_parent_commit(sweep, ran):
    rows = sweep.rows(ran(sweep.name)[2])
    parent = TABLES[sweep.name]
    if sweep.name != "twogrid":
        assert sweep.render(rows) == "\n".join(parent["text"]) + "\n"
        assert [[r[c.key] for c in sweep.columns] for r in rows] == parent["rows"]
        return
    pairs = list(zip(rows[0::2], rows[1::2]))
    assert len(pairs) == len(parent["rows"])
    for (bj, tg), wide in zip(pairs, parent["rows"]):
        assert (bj["precond"], tg["precond"]) == ("bj", "twogrid")
        assert bj["iteration_reduction"] == bj["modeled_speedup"] == 1.0
        assert [
            tg["scenario"], list(tg["resolution"]),
            bj["iterations_per_step"], tg["iterations_per_step"],
            tg["iteration_reduction"],
            bj["elapsed_per_step_per_case_s"],
            tg["elapsed_per_step_per_case_s"], tg["modeled_speedup"],
        ] == wide


# ------------------------------------------------------------- cells
@sweeps
def test_cells_are_method_cells_on_identical_draws(sweep):
    cells = sweep.cells()
    assert {c.kind for c in cells} == {"method"}
    assert all(c.label.startswith(sweep.label + "/") for c in cells)
    assert len({c.key for c in cells}) == len(cells)
    # the seed moves with the mesh, never with a swept key
    meshes = {tuple(c.params["resolution"]) for c in cells}
    assert len(
        {(tuple(c.params["resolution"]), c.params["seed"]) for c in cells}
    ) == len(meshes)


@sweeps
def test_cell_at_the_defaults_hashes_like_the_plain_grid_cell(sweep):
    """Content addition: with every swept key at its ``AXES`` default
    the study cell *is* the grid cell — one cache serves both."""
    at_default = {
        key: (AXIS[key].default,) if key in AXIS else ((2, 2, 1),)
        for key in sweep.swept
    }
    (cell,) = sweep.cells(**at_default)
    params, label = method_cell_params(
        "stratified", sweep.wave, "ebe-mcg@cpu-gpu", (2, 2, 1),
        cases=2, steps=8, module=sweep.module, eps=1e-8,
        s_min=2, s_max=8, seed=0,
    )
    assert cell.params == params and cell.key == cell_key("method", params)
    assert cell.label == f"{sweep.label}/{label}"


@sweeps
def test_empty_unknown_and_misspelled_grids_rejected(sweep):
    for key in sweep.swept:
        with pytest.raises(ValueError, match=f"at least one {key}"):
            sweep.cells(**{key: ()})
        if key == "nparts":
            with pytest.raises(ValueError, match=">= 1"):
                sweep.cells(nparts=(0,))
        elif key in AXIS:
            with pytest.raises(ValueError, match=f"unknown {AXIS[key].noun}"):
                sweep.cells(**{key: ("marsquake",)})
    with pytest.raises(TypeError, match="unknown campaign axes"):
        sweep.cells(colour=("red",))


# -------------------------------------------------------------- rows
@sweeps
def test_rows_do_not_depend_on_the_outcome_order(sweep, fake_outcomes):
    cells = sweep.cells()
    outcomes = fake_outcomes(cells, summaries(cells))
    rows = sweep.rows(outcomes)
    assert len(rows) == len(cells)
    order = by_group(rows, sweep.along)
    assert by_group(sweep.rows(outcomes[::-1]), sweep.along) == order
    listing = list(sweep.order() if sweep.order else sweep.values[sweep.along]())
    for values in order.values():
        assert values[0] == sweep.anchor
        assert values[1:] == [v for v in listing if v != sweep.anchor]
    for row in rows:
        assert row["anchor"] == sweep.anchor
        if row[sweep.along] == sweep.anchor:
            assert all(row[c.key] == 1.0 for c in sweep.columns if c.ratio)


@sweeps
def test_lost_anchor_falls_back_to_the_first_successful_row(sweep, fake_outcomes):
    """A group whose declared anchor failed is still reported, against
    its first surviving row — named in ``row["anchor"]``, never a
    failure, never silently."""
    cells = sweep.cells()
    lost = [
        None if AXIS[sweep.along].of(c.params) == sweep.anchor else s
        for c, s in zip(cells, summaries(cells))
    ]
    rows = sweep.rows(fake_outcomes(cells, lost))
    assert len(rows) == sum(s is not None for s in lost) > 0
    full = by_group(sweep.rows(fake_outcomes(cells, summaries(cells))), sweep.along)
    for group, values in by_group(rows, sweep.along).items():
        assert values == full[group][1:]
    for row in rows:
        assert row["anchor"] != sweep.anchor
        if row[sweep.along] == row["anchor"]:
            assert all(row[c.key] == 1.0 for c in sweep.columns if c.ratio)
    assert sweep.rows(fake_outcomes(cells, [None] * len(cells))) == []
    assert sweep.rows([]) == []


@sweeps
@pytest.mark.parametrize("hole", [None, float("nan")], ids=["absent", "nan"])
def test_missing_metric_prints_a_dash_never_a_zero(sweep, fake_outcomes, hole):
    """One rule for every table: a metric the run did not report stays
    ``None``/NaN, so do the ratios built on it, and both print ``-``
    (``0.00e+00`` would read "converged exactly")."""
    cells = sweep.cells()
    for col in sweep.columns:
        metric = col.ratio[0] if col.ratio else col.key
        reported = [  # cell coordinates are never missing
            m for m in sweep.derived.get(metric, (metric,))
            if m not in (*sweep.swept, "res")
        ]
        if not reported:
            continue
        (metric,) = reported
        docs = summaries(cells)
        for doc in docs:
            for part in (doc, doc["result"]):
                if metric in part and hole is None:
                    del part[metric]
                elif metric in part:
                    part[metric] = hole
        rows = sweep.rows(fake_outcomes(cells, docs))
        assert [col.text(r) for r in rows] == ["-"] * len(cells), col.header
        text = sweep.render(rows)
        assert "nan" not in text and "0.00e+00" not in text


# ------------------------------------------------------------ render
@sweeps
def test_render_prints_the_declared_columns(sweep, ran):
    rows = sweep.rows(ran(sweep.name)[2])
    assert sweep.render(rows).splitlines()[0] == sweep.title
    lines = sweep.render(rows, title="T").splitlines()
    assert lines[:2] == ["T", "="] and len(lines) == 4 + len(rows)
    starts = [lines[2].index(c.header) for c in sweep.columns]
    assert starts == sorted(starts)  # headers in declared order
    for line, row in zip(lines[4:], rows):
        for col, start in zip(sweep.columns, starts):
            value = row[col.key]
            shown = "-" if value is None else format(value, col.format)
            assert line[start:].startswith(shown), (col.header, line)


# ----------------------------------------------- a study is one row
def test_a_new_study_is_one_row():
    """The ROADMAP's predictor accounting as the docs show it: sweep a
    plain cell parameter (the history cap) beside an axis, compare
    along the predictor — no builder, row class or renderer."""
    iters = "iterations_per_step"
    accounting = Sweep(
        name="accounting", label="accounting",
        title="data-driven vs Adams-Bashforth by history cap",
        swept=("s_max", "predictor"),
        values={"s_max": lambda: (2, 4),
                "predictor": lambda: ("adams-bashforth", "data-driven")},
        along="predictor", anchor="adams-bashforth",
        columns=(Column("s_max", "s_max"), Column("predictor", "predictor"),
                 Column(iters, "iters/step", ".1f"),
                 Column("vs_ab", "iters / AB", ".2f", ratio=(iters, "row/anchor"))),
    )
    cells = accounting.cells(steps=4)
    assert [(c.params["s_max"], c.params["predictor"]) for c in cells] == [
        (2, "adams-bashforth"), (2, "data-driven"),
        (4, "adams-bashforth"), (4, "data-driven"),
    ]
    rows = accounting.rows(CampaignRunner().run_cells(cells))
    assert by_group(rows, "predictor") == {
        "2": ["adams-bashforth", "data-driven"],
        "4": ["adams-bashforth", "data-driven"],
    }
    for ab, dd in zip(rows[0::2], rows[1::2]):
        assert ab["vs_ab"] == 1.0
        assert dd["vs_ab"] == dd[iters] / ab[iters] and math.isfinite(dd["vs_ab"])
    assert "iters / AB" in accounting.render(rows)


def test_table_is_indexed_by_name():
    assert [s.name for s in SWEEPS] == list(SWEEP)
    assert all(s.along in s.swept and s.values.keys() == set(s.swept)
               for s in SWEEPS)
