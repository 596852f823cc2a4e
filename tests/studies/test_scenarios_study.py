"""Cross-scenario difficulty study (``SWEEP["scenarios"]``): what is
specific to it — the rules every sweep shares are in ``test_sweeps``."""

import pytest

from repro.campaign import CampaignRunner
from repro.campaign.spec import WaveSpec, cell_key, method_cell_params
from repro.studies import SWEEP
from repro.workloads.scenario import DEFAULT_SCENARIO, scenario_names

STUDY = SWEEP["scenarios"]


def test_cells_cover_registry_in_order():
    cells = STUDY.cells(steps=4)
    assert [c.params.get("scenario", DEFAULT_SCENARIO) for c in cells] == list(
        scenario_names()
    )
    assert len({c.key for c in cells}) == len(cells)
    # identical physics seed across scenarios (the sweep compares
    # identical random draws)
    assert len({c.params["seed"] for c in cells}) == 1


def test_default_cell_shares_campaign_cache_hash():
    """The study's impulse cell hashes identically to the equivalent
    plain campaign cell — one cache serves both."""
    study = STUDY.cells(scenario=(DEFAULT_SCENARIO,), steps=4)[0]
    params, _ = method_cell_params(
        "stratified", WaveSpec(name="w0"), "ebe-mcg@cpu-gpu", (2, 2, 1),
        cases=2, steps=4, module="single-gh200", eps=1e-8,
        s_min=2, s_max=8, seed=0,
    )
    assert study.key == cell_key("method", params)


def test_cells_validation():
    with pytest.raises(ValueError):
        STUDY.cells(scenario=())
    with pytest.raises(ValueError, match="unknown scenario"):
        STUDY.cells(scenario=("marsquake",))


def test_study_runs_every_scenario(ran):
    _, store, outcomes = ran("scenarios")
    assert len(outcomes) == len(scenario_names())
    assert len(store) == len(outcomes)


def test_study_rides_shared_cache(ran):
    cells, store, _ = ran("scenarios")
    again = CampaignRunner(store=store).run_cells(cells)
    assert all(o.cached for o in again)


def test_table_rows_and_anchor(ran):
    rows = STUDY.rows(ran("scenarios")[2])
    assert [r["scenario"] for r in rows] == list(scenario_names())
    anchor = rows[0]
    assert anchor["scenario"] == DEFAULT_SCENARIO
    assert anchor["iteration_inflation"] == 1.0
    for r in rows:
        assert r["iterations_per_step"] > 0
        assert r["elapsed_per_step_per_case_s"] > 0
        assert 0 < r["achieved_relres"] <= 1e-8  # all converged
        assert r["iteration_inflation"] == pytest.approx(
            r["iterations_per_step"] / anchor["iterations_per_step"]
        )


def test_table_skips_failures_without_rebasing(ran):
    # drop the anchor: inflation re-anchors on the first surviving row
    survivors = [o for o in ran("scenarios")[2]
                 if o.cell.params.get("scenario", DEFAULT_SCENARIO)
                 != DEFAULT_SCENARIO]
    rows = STUDY.rows(survivors)
    assert rows and rows[0]["iteration_inflation"] == 1.0
    assert rows[0]["anchor"] == rows[0]["scenario"] != DEFAULT_SCENARIO
    assert STUDY.rows([]) == []


def test_render_table(ran):
    text = STUDY.render(STUDY.rows(ran("scenarios")[2]))
    assert "cross-scenario difficulty" in text
    for name in scenario_names():
        assert name in text
    assert "s_used" in text and "inflation" in text
