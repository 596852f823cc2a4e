"""Transprecision study (``SWEEP["transprecision"]``): what is specific
to it — the rules every sweep shares are in ``test_sweeps``."""

import pytest

from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import WaveSpec, method_cell_params
from repro.sparse.traffic import modeled_solver_bytes_per_iteration
from repro.studies import SWEEP

STUDY = SWEEP["transprecision"]


def test_cells_one_per_precision():
    cells = STUDY.cells(precision=("fp64", "fp32", "fp21"))
    assert len(cells) == 3
    assert [c.params.get("precision", "fp64") for c in cells] == [
        "fp64", "fp32", "fp21"
    ]
    assert len({c.key for c in cells}) == 3
    # identical physics across the axis
    assert len({c.params["seed"] for c in cells}) == 1


def test_fp64_cell_shares_grid_cache_key():
    """The study's anchor cell hashes like the equivalent plain grid
    cell, so study and campaign share one cache."""
    cells = STUDY.cells(precision=("fp64", "fp21"))
    params, _ = method_cell_params(
        "stratified", WaveSpec(name="w0"), "ebe-mcg@cpu-gpu", (2, 2, 1),
        cases=2, steps=8, module="single-gh200", eps=1e-8,
        s_min=2, s_max=8, seed=0,
    )
    assert cells[0].params == params


def test_empty_precisions_rejected():
    with pytest.raises(ValueError):
        STUDY.cells(precision=())


def test_study_accuracy_vs_speed(ran):
    rows = STUDY.rows(ran("transprecision")[2])
    assert [r["precision"] for r in rows] == ["fp64", "fp32", "fp21"]
    anchor = rows[0]
    assert anchor["speedup"] == 1.0 and anchor["iteration_inflation"] == 1.0
    for r in rows:
        # the convergence-safety acceptance bound at every precision
        assert r["achieved_relres"] < 1e-8
        assert r["iteration_inflation"] <= 1.5
        # reduced storage must never model *slower* than fp64
        assert r["speedup"] >= 1.0 or r["precision"] == "fp64"


def test_study_rides_the_shared_cache(ran):
    cells, store, first = ran("transprecision")
    again = CampaignRunner(store=store).run_cells(cells)
    assert all(o.cached for o in again)
    assert [o.result["summary"]["iterations_per_step"] for o in again] == [
        o.result["summary"]["iterations_per_step"] for o in first
    ]


def test_table_skips_failures_and_anchors_on_fp64(fake_outcomes):
    cells = STUDY.cells(precision=("fp21", "fp64", "fp32"))
    rows = STUDY.rows(fake_outcomes(cells, [
        {"elapsed_per_step_per_case_s": 1.0, "iterations_per_step": 12.0},
        {"elapsed_per_step_per_case_s": 2.0, "iterations_per_step": 10.0},
        None,
    ]))
    assert [r["precision"] for r in rows] == ["fp64", "fp21"]
    fp21 = rows[1]
    assert fp21["speedup"] == pytest.approx(2.0)
    assert fp21["iteration_inflation"] == pytest.approx(1.2)


def test_modeled_bytes_acceptance_bound():
    """fp21 cuts modeled EBE-MCG bytes per CG iteration to <= 0.55x of
    fp64 at the paper's mesh shape (r = 4)."""
    kw = dict(n_elems=11_365_697, n_nodes=15_509_903, n_rhs=4)
    b64 = modeled_solver_bytes_per_iteration(**kw, precision="fp64")
    b32 = modeled_solver_bytes_per_iteration(**kw, precision="fp32")
    b21 = modeled_solver_bytes_per_iteration(**kw, precision="fp21")
    assert b21 < b32 < b64
    assert b21 / b64 <= 0.55
