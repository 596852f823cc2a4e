"""Transprecision study: cells, cache sharing, and the trade table."""

import pytest

from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import WaveSpec, method_cell_params
from repro.campaign.store import ResultStore
from repro.studies.transprecision import (
    modeled_solver_bytes_per_iteration,
    transprecision_cells,
    transprecision_table,
)


def test_cells_one_per_precision():
    cells = transprecision_cells(precisions=("fp64", "fp32", "fp21"))
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
    cells = transprecision_cells(precisions=("fp64", "fp21"))
    params, _ = method_cell_params(
        "stratified", WaveSpec(name="w0"), "ebe-mcg@cpu-gpu", (2, 2, 1),
        cases=2, steps=8, module="single-gh200", eps=1e-8,
        s_min=2, s_max=8, seed=0,
    )
    assert cells[0].params == params


def test_empty_precisions_rejected():
    with pytest.raises(ValueError):
        transprecision_cells(precisions=())


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    cells = transprecision_cells(
        precisions=("fp64", "fp32", "fp21"), resolution=(2, 2, 1),
        cases=2, steps=6, s_range=(2, 4),
    )
    store = ResultStore(tmp_path_factory.mktemp("transprec") / "store")
    return CampaignRunner(store=store).run_cells(cells)


def test_study_accuracy_vs_speed(outcomes):
    pts = transprecision_table(outcomes)
    assert [p.precision for p in pts] == ["fp64", "fp32", "fp21"]
    anchor = pts[0]
    assert anchor.speedup == 1.0 and anchor.iteration_inflation == 1.0
    for p in pts:
        # the convergence-safety acceptance bound at every precision
        assert p.achieved_relres < 1e-8
        assert p.iteration_inflation <= 1.5
        # reduced storage must never model *slower* than fp64
        assert p.speedup >= 1.0 or p.precision == "fp64"


def test_study_rides_the_shared_cache(outcomes, tmp_path):
    cells = transprecision_cells(
        precisions=("fp64", "fp32", "fp21"), resolution=(2, 2, 1),
        cases=2, steps=6, s_range=(2, 4),
    )
    store = ResultStore(tmp_path / "fresh")
    first = CampaignRunner(store=store).run_cells(cells)
    again = CampaignRunner(store=store).run_cells(cells)
    assert all(o.cached for o in again)
    assert [o.result["summary"]["iterations_per_step"] for o in again] == [
        o.result["summary"]["iterations_per_step"] for o in first
    ]


def test_table_skips_failures_and_anchors_on_fp64():
    class FakeOutcome:
        def __init__(self, prec, t, iters, ok=True):
            self.ok = ok
            self.result = {
                "summary": {
                    "elapsed_per_step_per_case_s": t,
                    "iterations_per_step": iters,
                    "achieved_relres": 1e-9,
                }
            }
            from repro.campaign.spec import CampaignCell

            params = {} if prec == "fp64" else {"precision": prec}
            self.cell = CampaignCell(kind="method", params=params)

    pts = transprecision_table([
        FakeOutcome("fp21", 1.0, 12.0),
        FakeOutcome("fp64", 2.0, 10.0),
        FakeOutcome("fp32", 1.0, 10.0, ok=False),
    ])
    assert [p.precision for p in pts] == ["fp64", "fp21"]
    fp21 = pts[1]
    assert fp21.speedup == pytest.approx(2.0)
    assert fp21.iteration_inflation == pytest.approx(1.2)


def test_modeled_bytes_acceptance_bound():
    """fp21 cuts modeled EBE-MCG bytes per CG iteration to <= 0.55x of
    fp64 at the paper's mesh shape (r = 4)."""
    kw = dict(n_elems=11_365_697, n_nodes=15_509_903, n_rhs=4)
    b64 = modeled_solver_bytes_per_iteration(**kw, precision="fp64")
    b32 = modeled_solver_bytes_per_iteration(**kw, precision="fp32")
    b21 = modeled_solver_bytes_per_iteration(**kw, precision="fp21")
    assert b21 < b32 < b64
    assert b21 / b64 <= 0.55
