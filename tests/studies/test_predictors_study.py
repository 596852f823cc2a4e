"""Predictor-zoo ablation study."""

import math

import pytest

from repro.campaign import CampaignRunner, ResultStore
from repro.predictor.registry import predictor_names
from repro.studies import (
    predictor_cells,
    predictor_table,
    render_predictor_table,
)
from repro.studies.predictors import ANCHOR_PREDICTOR, STUDY_SCENARIOS


def test_cells_cover_zoo_per_scenario():
    cells = predictor_cells(steps=4)
    zoo = predictor_names()
    assert len(cells) == len(STUDY_SCENARIOS) * len(zoo)
    assert len({c.key for c in cells}) == len(cells)
    assert [c.params["predictor"] for c in cells[: len(zoo)]] == list(zoo)
    # identical physics seed across the whole grid (the sweep compares
    # identical random draws)
    assert len({c.params["seed"] for c in cells}) == 1
    assert all(c.label.startswith("predictor/") for c in cells)


def test_cells_validation():
    with pytest.raises(ValueError):
        predictor_cells(scenarios=())
    with pytest.raises(ValueError):
        predictor_cells(resolutions=())
    with pytest.raises(ValueError):
        predictor_cells(predictors=())
    with pytest.raises(ValueError, match="unknown predictor"):
        predictor_cells(predictors=("broyden",), steps=4)


@pytest.fixture(scope="module")
def study_outcomes(tmp_path_factory):
    store = ResultStore(tmp_path_factory.mktemp("predictor-study"))
    cells = predictor_cells(
        predictors=("adams-bashforth", "aitken", "data-driven"),
        steps=4, s_range=(2, 4),
    )
    outcomes = CampaignRunner(store=store).run_cells(cells)
    assert all(o.ok for o in outcomes)
    return cells, store, outcomes


def test_study_rides_shared_cache(study_outcomes):
    cells, store, outcomes = study_outcomes
    assert len(store) == len(outcomes) == len(cells)
    again = CampaignRunner(store=store).run_cells(cells)
    assert all(o.cached for o in again)


def test_table_rows_anchor_and_order(study_outcomes):
    _, _, outcomes = study_outcomes
    points = predictor_table(outcomes)
    assert len(points) == len(STUDY_SCENARIOS) * 3
    by_scen = {}
    for p in points:
        by_scen.setdefault(p.scenario, []).append(p)
    assert set(by_scen) == set(STUDY_SCENARIOS)
    for rows in by_scen.values():
        # anchor row first, inflation 1 by construction
        assert rows[0].predictor == ANCHOR_PREDICTOR
        assert rows[0].iteration_inflation == 1.0
        # remaining rows in registry order
        assert [r.predictor for r in rows[1:]] == ["adams-bashforth", "aitken"]
        for r in rows:
            assert r.iterations_per_step > 0
            assert r.iteration_inflation == pytest.approx(
                r.iterations_per_step / rows[0].iterations_per_step
            )
            # history-less rungs report NaN, the anchor a real length
            if r.predictor in ("adams-bashforth", "aitken"):
                assert math.isnan(r.predictor_s_used)
            else:
                assert r.predictor_s_used > 0


def test_table_anchor_fallback():
    """A sweep without the data-driven anchor anchors on its first
    successful row instead of crashing."""

    class FakeOutcome:
        def __init__(self, pred, iters):
            self.ok = True
            self.cell = type("C", (), {"params": {
                "predictor": pred, "scenario": "impulse"}})()
            self.result = {"summary": {
                "iterations_per_step": iters, "predictor_s_used": None,
                "elapsed_per_step_per_case_s": 1.0, "achieved_relres": 1e-9,
            }}

    points = predictor_table(
        [FakeOutcome("aitken", 20.0), FakeOutcome("linear", 30.0)]
    )
    assert points[0].iteration_inflation == 1.0
    assert {p.predictor for p in points} == {"aitken", "linear"}


def test_render_table(study_outcomes):
    _, _, outcomes = study_outcomes
    out = render_predictor_table(predictor_table(outcomes))
    assert "predictor zoo" in out
    for col in ("scenario", "predictor", "iters/step", "inflation", "s_used"):
        assert col in out
    assert "aitken" in out and "data-driven" in out
    assert "-" in out and "nan" not in out  # NaN s_used renders as dash
