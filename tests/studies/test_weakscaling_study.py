"""Weak/strong-scaling studies (``SWEEP["weakscaling"]`` /
``SWEEP["strongscaling"]``): what is specific to them — the rules every
sweep shares are in ``test_sweeps``."""

import pytest

from repro.campaign.runner import CampaignRunner
from repro.studies import SWEEP
from repro.studies.sweeps import _tile

WEAK, STRONG = SWEEP["weakscaling"], SWEEP["strongscaling"]


def test_tile_factors_near_square():
    def factors(nparts):
        nx, ny, nz = _tile((1, 1, 1), nparts)
        assert nz == 1
        return nx, ny

    assert factors(1) == (1, 1)
    assert factors(2) == (2, 1)
    assert factors(4) == (2, 2)
    assert factors(8) == (4, 2)
    assert factors(12) == (4, 3)  # not the elongated 6 x 2
    assert factors(6) == (3, 2)
    assert factors(7) == (7, 1)  # primes can only tile in a row


def test_weak_cells_grow_resolution_with_parts():
    cells = WEAK.cells(nparts=(1, 2, 4), resolution=(2, 2, 1))
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
    cells = STRONG.cells(nparts=(1, 2, 4), resolution=(3, 3, 2))
    assert all(c.params["resolution"] == [3, 3, 2] for c in cells)
    assert len({c.key for c in cells}) == 3


def test_part_counts_validated():
    for study in (WEAK, STRONG):
        with pytest.raises(ValueError, match=">= 1"):
            study.cells(nparts=(0,))
        with pytest.raises(ValueError, match=">= 1"):
            study.cells(nparts=(2, -4))


def _outcomes(fake_outcomes, study, timed):
    """Fabricated outcomes: ``timed`` maps part count -> seconds per
    step per case, ``None`` a failed cell."""
    cells = study.cells(nparts=tuple(timed))
    return fake_outcomes(cells, [
        None if t is None else {"elapsed_per_step_per_case_s": t}
        for t in timed.values()
    ])


def test_strong_mode_efficiency_accounts_for_part_count(fake_outcomes):
    """Halving the time with double the parts is efficiency 1.0 in
    strong mode, not a '2x efficiency'."""
    timed = {1: 1.0, 2: 0.5, 4: 0.5}
    rows = STRONG.rows(_outcomes(fake_outcomes, STRONG, timed))
    assert [r["efficiency"] for r in rows] == [1.0, 1.0, 0.5]
    # the same timings under the weak protocol: flat time is the ideal
    rows = WEAK.rows(_outcomes(fake_outcomes, WEAK, timed))
    assert [r["efficiency"] for r in rows] == [1.0, 2.0, 2.0]


def test_table_anchors_on_smallest_successful_part_count(fake_outcomes):
    """A failed base cell is skipped, not silently rebased onto; the
    anchor is the smallest surviving part count, in sorted order."""
    rows = WEAK.rows(_outcomes(fake_outcomes, WEAK, {1: None, 4: 1.0, 2: 1.0}))
    assert [r["nparts"] for r in rows] == [2, 4]
    assert rows[0]["efficiency"] == 1.0 and rows[0]["anchor"] == 2


def test_scaling_campaign_runs_and_caches(ran):
    cells, store, outcomes = ran("weakscaling")
    assert not any(o.cached for o in outcomes)
    again = CampaignRunner(store=store).run_cells(cells)
    assert all(o.cached for o in again)

    rows = WEAK.rows(outcomes)
    assert [r["nparts"] for r in rows] == [1, 2, 4, 8]
    assert rows[0]["efficiency"] == 1.0
    assert rows[0]["halo_time_per_step_per_case"] == 0.0
    assert rows[1]["halo_time_per_step_per_case"] > 0.0
    assert rows[1]["n_dofs"] > rows[0]["n_dofs"]  # weak mode grew the mesh
