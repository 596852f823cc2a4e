"""Cross-scenario difficulty study."""

import pytest

from repro.campaign import CampaignRunner, ResultStore
from repro.studies import (
    render_scenario_table,
    scenario_cells,
    scenario_table,
)
from repro.workloads.scenario import DEFAULT_SCENARIO, scenario_names


def test_cells_cover_registry_in_order():
    cells = scenario_cells(steps=4)
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
    from repro.campaign.spec import WaveSpec, method_cell_params

    study = scenario_cells(scenarios=(DEFAULT_SCENARIO,), steps=4)[0]
    params, _ = method_cell_params(
        "stratified", WaveSpec(name="w0"), "ebe-mcg@cpu-gpu", (2, 2, 1),
        cases=2, steps=4, module="single-gh200", eps=1e-8,
        s_min=2, s_max=8, seed=0,
    )
    from repro.campaign.spec import cell_key

    assert study.key == cell_key("method", params)


def test_cells_validation():
    with pytest.raises(ValueError):
        scenario_cells(scenarios=())
    with pytest.raises(ValueError, match="unknown scenario"):
        scenario_cells(scenarios=("marsquake",))


@pytest.fixture(scope="module")
def study_outcomes(tmp_path_factory):
    store = ResultStore(tmp_path_factory.mktemp("scenario-study"))
    cells = scenario_cells(steps=4, s_range=(2, 4))
    outcomes = CampaignRunner(store=store).run_cells(cells)
    assert all(o.ok for o in outcomes)
    return cells, store, outcomes


def test_study_runs_every_scenario(study_outcomes):
    cells, store, outcomes = study_outcomes
    assert len(outcomes) == len(scenario_names())
    assert len(store) == len(outcomes)


def test_study_rides_shared_cache(study_outcomes):
    cells, store, _ = study_outcomes
    again = CampaignRunner(store=store).run_cells(cells)
    assert all(o.cached for o in again)


def test_table_rows_and_anchor(study_outcomes):
    _, _, outcomes = study_outcomes
    points = scenario_table(outcomes)
    assert [p.scenario for p in points] == list(scenario_names())
    anchor = points[0]
    assert anchor.scenario == DEFAULT_SCENARIO
    assert anchor.iteration_inflation == 1.0
    for p in points:
        assert p.iterations_per_step > 0
        assert p.elapsed_per_step > 0
        assert 0 < p.achieved_relres <= 1e-8  # all converged
        assert p.iteration_inflation == pytest.approx(
            p.iterations_per_step / anchor.iterations_per_step
        )


def test_table_skips_failures_without_rebasing(study_outcomes):
    _, _, outcomes = study_outcomes
    # drop the anchor: inflation re-anchors on the first surviving row
    survivors = [o for o in outcomes
                 if o.cell.params.get("scenario", DEFAULT_SCENARIO)
                 != DEFAULT_SCENARIO]
    points = scenario_table(survivors)
    assert points and points[0].iteration_inflation == 1.0
    assert scenario_table([]) == []


def test_render_table(study_outcomes):
    _, _, outcomes = study_outcomes
    text = render_scenario_table(scenario_table(outcomes))
    assert "cross-scenario difficulty" in text
    for name in scenario_names():
        assert name in text
    assert "s_used" in text and "inflation" in text
