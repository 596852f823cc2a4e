"""``s_used`` honesty: history-less predictors report ``None``, not 0.

Regression suite for the latent gap the predictor zoo exposed: the
Adams-Bashforth/constant/linear/Aitken rungs keep no ``s``-style
history length, and recording ``s_used=0`` for them both lied (0 means
"history-bearing, still warming up") and diluted campaign
``predictor_s_used`` means toward zero.  The contract now: ``None``
end-to-end — records, summaries, aggregation (skipped, not averaged),
rendering (``-``).
"""

import numpy as np
import pytest

from repro.campaign.aggregate import CampaignReport
from repro.core.methods import run_method
from repro.core.results import RunResult, StepRecord


def _record(step, **over):
    kw = dict(
        step=step, iterations=np.array([10, 10]), t_solver=1.0,
        t_predictor=0.0, t_transfer=0.0, t_step=1.0, relres=1e-9,
    )
    kw.update(over)
    return StepRecord(**kw)


def test_step_record_s_used_defaults_to_none():
    r = _record(1)
    assert r.s_used is None and r.s_used_b is None
    doc = r.to_dict()
    assert doc["s_used"] is None and doc["s_used_b"] is None
    again = StepRecord.from_dict(doc)
    assert again.s_used is None and again.s_used_b is None
    # ints still round-trip as ints
    r2 = StepRecord.from_dict(_record(2, s_used=3).to_dict())
    assert r2.s_used == 3 and r2.s_used_b is None


def _result(recs):
    from repro.util.timeline import Timeline

    return RunResult(
        method="m", module_name="single-gh200", n_cases=2, n_dofs=8,
        records=recs, timeline=Timeline(), cpu_memory_bytes=0.0,
        gpu_memory_bytes=0.0,
    )


def test_predictor_s_used_none_without_history_records():
    res = _result([_record(i) for i in range(1, 4)])
    assert res.predictor_s_used() is None
    assert res.summary()["predictor_s_used"] is None
    # s_trace stays a plottable int array (None -> 0)
    assert res.s_trace().tolist() == [0, 0, 0]


def test_predictor_s_used_skips_none_records():
    """Mixed records (e.g. set A history-bearing, set B not) average
    only the history-bearing steps instead of diluting toward zero."""
    recs = [_record(1, s_used=4), _record(2), _record(3, s_used_b=8)]
    assert _result(recs).predictor_s_used() == pytest.approx((4 + 8) / 2)


def test_baseline_driver_reports_none_for_ab(ground_problem, make_forces):
    """The conventional single-device baseline runs plain AB — its
    summary must say 'no history length', not 's=0'."""
    res = run_method(
        ground_problem, make_forces(ground_problem, 1), nt=3,
        method="crs-cg@cpu", s_range=(2, 4),
    )
    assert all(r.s_used is None for r in res.records)
    assert res.summary()["predictor_s_used"] is None


def test_heterogeneous_aitken_reports_none(ground_problem, make_forces):
    """A history-less zoo member on the heterogeneous pipeline: both
    sets' records and the summary carry None."""
    res = run_method(
        ground_problem, make_forces(ground_problem, 2), nt=3,
        method="ebe-mcg@cpu-gpu", s_range=(2, 4), predictor="aitken",
    )
    assert all(r.s_used is None and r.s_used_b is None for r in res.records)
    assert res.summary()["predictor_s_used"] is None


def test_heterogeneous_native_still_reports_s(ground_problem, make_forces):
    """The data-driven pairing keeps reporting its earned history — the
    None plumbing must not erase real values."""
    res = run_method(
        ground_problem, make_forces(ground_problem, 2), nt=3,
        method="ebe-mcg@cpu-gpu", s_range=(2, 4),
    )
    assert res.summary()["predictor_s_used"] is not None
    assert res.summary()["predictor_s_used"] > 0


def test_aggregation_skips_none_instead_of_diluting():
    rows = [
        {"elapsed_per_step_per_case_s": 1.0, "iterations_per_step": 10.0,
         "predictor_s_used": 6.0, "achieved_relres": 1e-9,
         "energy_per_step_per_case_J": 1.0},
        {"elapsed_per_step_per_case_s": 1.0, "iterations_per_step": 12.0,
         "predictor_s_used": None, "achieved_relres": 1e-9,
         "energy_per_step_per_case_J": 1.0},
    ]
    agg = CampaignReport._agg(rows)
    assert agg["predictor_s_used"] == 6.0  # not (6+0)/2
    # all-None group -> NaN, which the tables render as "-"
    agg_none = CampaignReport._agg([dict(rows[1])])
    assert np.isnan(agg_none["predictor_s_used"])


def test_tables_render_dash_for_missing_s_used():
    from repro.studies import SWEEP

    row = {"scenario": "impulse", "predictor": "aitken",
           "iterations_per_step": 10.0, "iteration_inflation": 1.0,
           "elapsed_per_step_per_case_s": 1.0, "achieved_relres": 1e-9}
    for s_used in (None, float("nan")):
        for name in ("scenarios", "predictors"):
            out = SWEEP[name].render([{**row, "predictor_s_used": s_used}])
            assert "  -  " in out and "nan" not in out
