"""Study fixtures: each sweep run once at its defaults, and fabricated
outcomes over real study cells."""

import pytest

from repro.campaign.runner import CampaignRunner, CellOutcome
from repro.campaign.store import ResultStore
from repro.studies import SWEEP


@pytest.fixture(scope="session")
def ran(tmp_path_factory):
    """``ran(name)`` -> ``(cells, store, outcomes)`` of ``SWEEP[name]``
    at its defaults, executed once per session into its own store."""
    cache: dict[str, tuple] = {}

    def get(name: str) -> tuple:
        if name not in cache:
            cells = SWEEP[name].cells()
            store = ResultStore(tmp_path_factory.mktemp(f"study-{name}"))
            outcomes = CampaignRunner(store=store).run_cells(cells)
            assert all(o.ok for o in outcomes)
            cache[name] = (cells, store, outcomes)
        return cache[name]

    return get


@pytest.fixture(scope="session")
def fake_outcomes():
    """``fake_outcomes(cells, summaries)``: one outcome per cell, in
    order — ``summaries[i]`` is the run summary the cell "reported"
    (other result scalars under ``"result"``), ``None`` a failed cell."""

    def build(cells, summaries) -> list[CellOutcome]:
        outcomes = []
        for cell, summary in zip(cells, summaries, strict=True):
            if summary is None:
                outcomes.append(CellOutcome(cell, None, error="boom"))
            else:
                summary = dict(summary)
                result = {**summary.pop("result", {}), "summary": summary}
                outcomes.append(CellOutcome(cell, result))
        return outcomes

    return build
