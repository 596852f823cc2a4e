"""Weak/strong-scaling study: cells, caching, table reduction."""

import pytest

from repro.campaign.runner import CampaignRunner
from repro.campaign.store import ResultStore
from repro.studies.weakscaling import (
    _tile_factors,
    scaling_cells,
    scaling_table,
)


def test_tile_factors_near_square():
    assert _tile_factors(1) == (1, 1)
    assert _tile_factors(2) == (2, 1)
    assert _tile_factors(4) == (2, 2)
    assert _tile_factors(8) == (4, 2)
    assert _tile_factors(12) == (4, 3)  # not the elongated 6 x 2
    assert _tile_factors(6) == (3, 2)
    assert _tile_factors(7) == (7, 1)  # primes can only tile in a row


def test_weak_cells_grow_resolution_with_parts():
    cells = scaling_cells(parts=(1, 2, 4), mode="weak",
                          base_resolution=(2, 2, 1))
    sizes = [
        c.params["resolution"][0] * c.params["resolution"][1] for c in cells
    ]
    parts = [c.params.get("nparts", 1) for c in cells]
    # constant elements per part: area scales exactly with the parts
    assert [s // p for s, p in zip(sizes, parts)] == [4, 4, 4]
    assert all(c.params["resolution"][2] == 1 for c in cells)
    assert cells[0].params.get("nparts") is None  # hash-stable base cell
    assert [c.kind for c in cells] == ["method"] * 3


def test_strong_cells_fix_resolution():
    cells = scaling_cells(parts=(1, 2, 4), mode="strong",
                          base_resolution=(3, 3, 2))
    assert all(c.params["resolution"] == [3, 3, 2] for c in cells)
    assert len({c.key for c in cells}) == 3


def test_mode_validated():
    with pytest.raises(ValueError):
        scaling_cells(mode="diagonal")
    with pytest.raises(ValueError):
        scaling_cells(parts=(0,))
    with pytest.raises(ValueError):
        scaling_table([], mode="diagonal")


def _fake_outcome(nparts, t, ok=True):
    class Cell:
        params = {"nparts": nparts} if nparts > 1 else {}

    class Outcome:
        cell = Cell()
        result = {
            "summary": {"elapsed_per_step_per_case_s": t},
            "n_dofs": 100 * nparts,
            "halo_time_per_step_per_case": 0.0 if nparts == 1 else 1e-6,
        }

    Outcome.ok = ok
    return Outcome()


def test_strong_mode_efficiency_accounts_for_part_count():
    """Halving the time with double the parts is efficiency 1.0 in
    strong mode, not a '2x efficiency'."""
    outcomes = [_fake_outcome(1, 1.0), _fake_outcome(2, 0.5),
                _fake_outcome(4, 0.5)]
    table = scaling_table(outcomes, mode="strong")
    assert [pt.efficiency for pt in table] == [1.0, 1.0, 0.5]


def test_table_anchors_on_smallest_successful_part_count():
    """A failed base cell is skipped, not silently rebased onto; the
    anchor is the smallest surviving part count, in sorted order."""
    outcomes = [_fake_outcome(1, 1.0, ok=False), _fake_outcome(4, 1.0),
                _fake_outcome(2, 1.0)]
    table = scaling_table(outcomes, mode="weak")
    assert [pt.nparts for pt in table] == [2, 4]
    assert table[0].efficiency == 1.0


def test_scaling_campaign_runs_and_caches(tmp_path):
    cells = scaling_cells(parts=(1, 2), mode="weak",
                          base_resolution=(2, 2, 1), steps=3, module="alps")
    store = ResultStore(tmp_path / "store")
    outcomes = CampaignRunner(store=store).run_cells(cells)
    assert all(o.ok for o in outcomes)
    assert not any(o.cached for o in outcomes)
    again = CampaignRunner(store=store).run_cells(cells)
    assert all(o.cached for o in again)

    table = scaling_table(outcomes)
    assert [pt.nparts for pt in table] == [1, 2]
    assert table[0].efficiency == 1.0
    assert table[0].halo_per_step == 0.0
    assert table[1].halo_per_step > 0.0
    assert table[1].n_dofs > table[0].n_dofs  # weak mode grew the mesh
