"""Predictor-zoo study (``SWEEP["predictors"]``): what is specific to
it — the rules every sweep shares are in ``test_sweeps``."""

import pytest

from repro.campaign import CampaignRunner
from repro.predictor.registry import predictor_names
from repro.studies import SWEEP

STUDY = SWEEP["predictors"]
SCENARIOS = STUDY.values["scenario"]()


def test_cells_cover_zoo_per_scenario():
    cells = STUDY.cells(steps=4)
    zoo = predictor_names()
    assert len(cells) == len(SCENARIOS) * len(zoo)
    assert len({c.key for c in cells}) == len(cells)
    assert [c.params["predictor"] for c in cells[: len(zoo)]] == list(zoo)
    # identical physics seed across the whole grid (the sweep compares
    # identical random draws)
    assert len({c.params["seed"] for c in cells}) == 1
    assert all(c.label.startswith("predictor/") for c in cells)


def test_cells_validation():
    with pytest.raises(ValueError):
        STUDY.cells(scenario=())
    with pytest.raises(ValueError):
        STUDY.cells(resolution=())
    with pytest.raises(ValueError):
        STUDY.cells(predictor=())
    with pytest.raises(ValueError, match="unknown predictor"):
        STUDY.cells(predictor=("broyden",), steps=4)


def test_study_rides_shared_cache(ran):
    cells, store, outcomes = ran("predictors")
    assert len(store) == len(outcomes) == len(cells)
    again = CampaignRunner(store=store).run_cells(cells)
    assert all(o.cached for o in again)


def test_table_rows_anchor_and_order(ran):
    rows = STUDY.rows(ran("predictors")[2])
    zoo = predictor_names()
    assert len(rows) == len(SCENARIOS) * len(zoo)
    by_scen = {}
    for r in rows:
        by_scen.setdefault(r["scenario"], []).append(r)
    assert list(by_scen) == list(SCENARIOS)
    for group in by_scen.values():
        # anchor row first, inflation 1 by construction
        assert group[0]["predictor"] == STUDY.anchor == "data-driven"
        assert group[0]["iteration_inflation"] == 1.0
        # remaining rows in registry order
        assert [r["predictor"] for r in group[1:]] == [
            name for name in zoo if name != STUDY.anchor
        ]
        for r in group:
            assert r["iterations_per_step"] > 0
            assert r["iteration_inflation"] == pytest.approx(
                r["iterations_per_step"] / group[0]["iterations_per_step"]
            )
            # history-less rungs report no length, the others a real one
            if r["predictor"] in ("data-driven", "iqn-ils"):
                assert r["predictor_s_used"] > 0
            else:
                assert r["predictor_s_used"] is None


def test_table_anchor_fallback(fake_outcomes):
    """A sweep without the data-driven anchor anchors on its first
    successful row instead of crashing."""
    cells = STUDY.cells(scenario=("impulse",), predictor=("aitken", "linear"))
    rows = STUDY.rows(fake_outcomes(cells, [
        {"iterations_per_step": 20.0}, {"iterations_per_step": 30.0},
    ]))
    assert [r["predictor"] for r in rows] == ["aitken", "linear"]
    assert [r["iteration_inflation"] for r in rows] == [1.0, 1.5]
    assert {r["anchor"] for r in rows} == {"aitken"}


def test_render_table(ran):
    out = STUDY.render(STUDY.rows(ran("predictors")[2]))
    assert "predictor zoo" in out
    for col in ("scenario", "predictor", "iters/step", "inflation", "s_used"):
        assert col in out
    assert "aitken" in out and "data-driven" in out
    assert "  -  " in out and "nan" not in out  # no s_used renders as dash
