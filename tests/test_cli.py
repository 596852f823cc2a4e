"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_parser_commands():
    p = build_parser()
    for cmd in (["models"], ["info"], ["run"], ["sensitivity"]):
        args = p.parse_args(cmd)
        assert args.command == cmd[0]


def test_models_command(capsys):
    assert main(["models"]) == 0
    out = capsys.readouterr().out
    for name in ("stratified", "basin", "slanted"):
        assert name in out


def test_scenarios_command(capsys):
    from repro.workloads.scenario import scenario_names

    assert main(["scenarios"]) == 0
    out = capsys.readouterr().out
    for name in scenario_names():
        assert name in out
    assert "aftershock" in out  # descriptions printed too


def test_info_command(capsys):
    assert main(["info", "--model", "basin", "--resolution", "2,2,1"]) == 0
    out = capsys.readouterr().out
    assert "dofs" in out
    assert "EBE storage" in out


def test_run_command(capsys, tmp_path):
    rc = main([
        "run", "--model", "stratified", "--resolution", "2,2,1",
        "--method", "ebe-mcg@cpu-gpu", "--cases", "2", "--steps", "4",
        "--s-min", "2", "--s-max", "4",
        "--json", str(tmp_path / "out.json"),
        "--vtk", str(tmp_path / "out.vtk"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "elapsed_per_step_per_case_s" in out
    assert (tmp_path / "out.json").exists()
    assert (tmp_path / "out.vtk").exists()


def test_run_single_step(capsys):
    """--steps 1 must not crash on an empty summary window."""
    rc = main(["run", "--resolution", "2,2,1", "--method", "crs-cg@gpu",
               "--cases", "1", "--steps", "1"])
    assert rc == 0
    assert "elapsed_per_step_per_case_s" in capsys.readouterr().out


def test_run_baseline_on_alps(capsys):
    rc = main([
        "run", "--model", "stratified", "--resolution", "2,2,1",
        "--method", "crs-cg@gpu", "--cases", "1", "--steps", "3",
        "--module", "alps",
    ])
    assert rc == 0
    assert "crs-cg@gpu" in capsys.readouterr().out


def test_sensitivity_command(capsys):
    rc = main([
        "sensitivity", "--model", "stratified", "--resolution", "2,2,1",
        "--param", "gpu.peak_flops", "--factors", "1,2",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "speedup" in out


def test_run_scenario_flag(capsys):
    rc = main([
        "run", "--model", "basin", "--resolution", "2,2,1",
        "--method", "ebe-mcg@cpu-gpu", "--cases", "2", "--steps", "4",
        "--s-min", "2", "--s-max", "4", "--scenario", "aftershocks",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "aftershocks scenario" in out
    assert "elapsed_per_step_per_case_s" in out


def test_bad_inputs():
    with pytest.raises(SystemExit):
        main(["run", "--model", "mars", "--resolution", "2,2,1", "--steps", "1"])
    with pytest.raises(SystemExit):
        main(["run", "--resolution", "2,2", "--steps", "1"])
    with pytest.raises(SystemExit):
        main(["run", "--resolution", "2,2,1", "--method", "magic"])
    with pytest.raises(SystemExit):  # argparse rejects unknown scenarios
        main(["run", "--resolution", "2,2,1", "--scenario", "marsquake"])


# ------------------------------------------------------------ campaign
def _campaign_args(store, extra=()):
    return [
        "campaign",
        "--models", "stratified,basin,slanted",
        "--waves", "2",
        "--methods", "crs-cg@gpu,ebe-mcg@cpu-gpu",
        "--resolutions", "2,2,1",
        "--cases", "2", "--steps", "3",
        "--store", str(store),
        *extra,
    ]


def test_campaign_grid_with_jobs(capsys, tmp_path):
    """A 12-cell grid (3 models x 2 waves x 2 methods) with --jobs 2
    computes every cell and prints the aggregated tables."""
    store = tmp_path / "store"
    assert main(_campaign_args(store, ["--jobs", "2"])) == 0
    out = capsys.readouterr().out
    assert "12 cells" in out
    assert "12 computed, 0 cache hits" in out
    assert "per-method summary" in out
    assert "per-scenario summary" in out
    for name in ("stratified", "basin", "slanted", "ebe-mcg@cpu-gpu"):
        assert name in out
    assert len(list((store / "cells").glob("*.json"))) == 12


def test_campaign_second_run_all_cache_hits(capsys, tmp_path):
    """Re-running an identical campaign recomputes nothing."""
    store = tmp_path / "store"
    assert main(_campaign_args(store)) == 0
    capsys.readouterr()
    before = {p: p.stat().st_mtime_ns for p in (store / "cells").glob("*.json")}
    assert main(_campaign_args(store)) == 0
    out = capsys.readouterr().out
    assert "0 computed, 12 cache hits" in out
    after = {p: p.stat().st_mtime_ns for p in (store / "cells").glob("*.json")}
    assert after == before  # artifacts untouched: no recomputation


def test_campaign_spec_file(capsys, tmp_path):
    """--spec parses a JSON campaign spec and overrides the grid flags."""
    from repro.campaign import CampaignSpec, default_waves

    spec = CampaignSpec(
        name="from-file",
        models=("stratified",),
        waves=default_waves(1),
        methods=("crs-cg@gpu",),
        resolutions=((2, 2, 1),),
        cases=1,
        steps=2,
    )
    path = spec.to_json(tmp_path / "spec.json")
    rc = main(["campaign", "--spec", str(path),
               "--store", str(tmp_path / "store")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "campaign 'from-file'" in out
    assert "1 cells" in out


def test_campaign_bad_grid_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["campaign", "--models", "mars", "--store", str(tmp_path)])
    with pytest.raises(SystemExit):
        main(["campaign", "--methods", "magic", "--store", str(tmp_path)])
    with pytest.raises(SystemExit):
        main(["campaign", "--spec", str(tmp_path / "missing.json"),
              "--store", str(tmp_path)])
    with pytest.raises(SystemExit):
        main(["campaign", "--jobs", "0", "--store", str(tmp_path)])
    with pytest.raises(SystemExit):
        main(["campaign", "--waves", "0", "--store", str(tmp_path)])


# ------------------------------------------------------- distributed
def test_run_command_nparts(capsys):
    rc = main([
        "run", "--model", "stratified", "--resolution", "2,2,1",
        "--method", "ebe-mcg@cpu-gpu", "--cases", "2", "--steps", "3",
        "--s-min", "2", "--s-max", "4", "--module", "alps",
        "--nparts", "2",
    ])
    assert rc == 0
    assert "elapsed_per_step_per_case_s" in capsys.readouterr().out


def test_run_command_nparts_rejected_for_baseline():
    with pytest.raises(SystemExit):
        main(["run", "--resolution", "2,2,1", "--method", "crs-cg@gpu",
              "--cases", "1", "--steps", "2", "--nparts", "2"])
    with pytest.raises(SystemExit):
        main(["run", "--resolution", "2,2,1", "--method", "ebe-mcg@cpu-gpu",
              "--cases", "2", "--steps", "2", "--nparts", "0"])


def test_campaign_nparts_axis(capsys, tmp_path):
    """--nparts adds the distributed-solve axis: one cell per part
    count, cached like any grid cell."""
    store = tmp_path / "store"
    args = [
        "campaign", "--models", "stratified", "--waves", "1",
        "--methods", "ebe-mcg@cpu-gpu", "--resolutions", "2,2,1",
        "--cases", "2", "--steps", "3", "--module", "alps",
        "--nparts", "1,2", "--store", str(store),
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "2 cells" in out
    assert "2 computed, 0 cache hits" in out
    assert main(args) == 0
    assert "2 cache hits" in capsys.readouterr().out


def test_campaign_nparts_rejected_for_unpartitionable(tmp_path):
    with pytest.raises(SystemExit):
        main(["campaign", "--methods", "crs-cg@gpu", "--nparts", "1,2",
              "--store", str(tmp_path)])


def test_run_command_precision(capsys):
    rc = main([
        "run", "--model", "stratified", "--resolution", "2,2,1",
        "--method", "ebe-mcg@cpu-gpu", "--cases", "2", "--steps", "4",
        "--s-min", "2", "--s-max", "4", "--precision", "fp21",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "achieved_relres" in out


def test_run_command_bad_precision_rejected():
    with pytest.raises(SystemExit):
        main(["run", "--model", "stratified", "--resolution", "2,2,1",
              "--precision", "fp8"])


def test_campaign_precision_axis(capsys, tmp_path):
    rc = main([
        "campaign", "--models", "stratified", "--waves", "1",
        "--methods", "ebe-mcg@cpu-gpu", "--resolutions", "2,2,1",
        "--cases", "2", "--steps", "4", "--precision", "fp64,fp21",
        "--store", str(tmp_path / "store"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "precision fp64,fp21" in out
    assert "transprecision summary" in out
    assert "ebe-mcg@cpu-gpu@fp21" in out


def test_campaign_bad_precision_rejected(tmp_path):
    with pytest.raises(SystemExit, match="bad campaign grid"):
        main(["campaign", "--models", "stratified", "--waves", "1",
              "--methods", "crs-cg@gpu", "--resolutions", "2,2,1",
              "--precision", "fp64,fp7", "--no-store"])


# --------------------------------------------------------- scenarios
def test_campaign_scenario_axis(capsys, tmp_path):
    """--scenario fans the grid over registered workloads; the
    per-scenario table separates them and the store caches each."""
    store = tmp_path / "store"
    args = [
        "campaign", "--models", "stratified", "--waves", "1",
        "--methods", "crs-cg@gpu", "--resolutions", "2,2,1",
        "--cases", "1", "--steps", "3",
        "--scenario", "impulse,soft-soil,fault-rupture",
        "--store", str(store),
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "3 cells" in out
    assert "scenarios impulse,soft-soil,fault-rupture" in out
    assert "per-scenario summary" in out
    for name in ("impulse", "soft-soil", "fault-rupture"):
        assert name in out
    # identical grid re-run: all cache hits
    assert main(args) == 0
    assert "3 cache hits" in capsys.readouterr().out


def test_campaign_scenario_composes_with_precision(capsys, tmp_path):
    rc = main([
        "campaign", "--models", "stratified", "--waves", "1",
        "--methods", "ebe-mcg@cpu-gpu", "--resolutions", "2,2,1",
        "--cases", "2", "--steps", "3",
        "--scenario", "impulse,aftershocks", "--precision", "fp64,fp21",
        "--store", str(tmp_path / "store"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "4 cells" in out
    assert "aftershocks" in out and "transprecision summary" in out


def test_campaign_bad_scenario_rejected(tmp_path):
    with pytest.raises(SystemExit, match="bad campaign grid"):
        main(["campaign", "--models", "stratified", "--waves", "1",
              "--methods", "crs-cg@gpu", "--resolutions", "2,2,1",
              "--scenario", "impulse,marsquake", "--no-store"])


# ------------------------------------------------------- crash safety
def test_campaign_checkpoint_flags(capsys, tmp_path):
    """--checkpoint-every runs clean (checkpoints consumed on success)
    and --resume on the same store is all cache hits."""
    store = tmp_path / "store"
    args = ["campaign", "--models", "stratified", "--waves", "1",
            "--methods", "crs-cg@gpu", "--resolutions", "2,2,1",
            "--cases", "1", "--steps", "4", "--store", str(store)]
    assert main(args + ["--checkpoint-every", "2"]) == 0
    assert list((store / "checkpoints").glob("*.json")) == []
    assert main(args + ["--checkpoint-every", "2", "--resume"]) == 0
    assert "1 cache hits" in capsys.readouterr().out


def test_campaign_resume_needs_store(tmp_path):
    base = ["campaign", "--models", "stratified", "--waves", "1",
            "--methods", "crs-cg@gpu", "--resolutions", "2,2,1"]
    with pytest.raises(SystemExit, match="store"):
        main(base + ["--no-store", "--resume"])
    with pytest.raises(SystemExit, match="store"):
        main(base + ["--no-store", "--checkpoint-every", "2"])
    with pytest.raises(SystemExit):
        main(base + ["--store", str(tmp_path), "--checkpoint-every", "-1"])


# -------------------------------------------------------- predictors
def test_predictors_command(capsys):
    from repro.predictor.registry import predictor_names

    assert main(["predictors"]) == 0
    out = capsys.readouterr().out
    assert "auto" in out and "paper-native" in out
    for name in predictor_names():
        assert name in out


def test_run_command_predictor(capsys):
    rc = main([
        "run", "--model", "stratified", "--resolution", "2,2,1",
        "--method", "ebe-mcg@cpu-gpu", "--cases", "2", "--steps", "4",
        "--s-min", "2", "--s-max", "4", "--predictor", "aitken",
    ])
    assert rc == 0
    assert "achieved_relres" in capsys.readouterr().out


def test_run_command_bad_predictor_rejected():
    with pytest.raises(SystemExit):  # argparse rejects unknown predictors
        main(["run", "--model", "stratified", "--resolution", "2,2,1",
              "--predictor", "broyden"])


def test_campaign_predictor_axis(capsys, tmp_path):
    store = tmp_path / "store"
    args = [
        "campaign", "--models", "stratified", "--waves", "1",
        "--methods", "ebe-mcg@cpu-gpu", "--resolutions", "2,2,1",
        "--cases", "2", "--steps", "3",
        "--predictor", "auto,aitken,iqn-ils",
        "--store", str(store),
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "3 cells" in out
    assert "predictors auto,aitken,iqn-ils" in out
    assert "ebe-mcg@cpu-gpu@aitken" in out
    assert "ebe-mcg@cpu-gpu@iqn-ils" in out
    # identical grid re-run: all cache hits
    assert main(args) == 0
    assert "3 cache hits" in capsys.readouterr().out


def test_campaign_bad_predictor_rejected(tmp_path):
    with pytest.raises(SystemExit, match="bad campaign grid"):
        main(["campaign", "--models", "stratified", "--waves", "1",
              "--methods", "crs-cg@gpu", "--resolutions", "2,2,1",
              "--predictor", "auto,broyden", "--no-store"])


def test_predictorzoo_command(capsys, tmp_path):
    store = tmp_path / "store"
    args = [
        "predictorzoo", "--predictors", "adams-bashforth,aitken,data-driven",
        "--scenarios", "impulse,aftershocks", "--resolutions", "2,2,1",
        "--cases", "2", "--steps", "4", "--store", str(store),
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "predictor zoo" in out
    for col in ("iters/step", "inflation", "s_used"):
        assert col in out
    assert "aitken" in out and "data-driven" in out
    assert "-" in out  # history-less rungs render s_used as dash
    assert "ANCHOR" not in out  # every group kept its declared anchor
    assert f"store -> {store}" in out


def test_predictorzoo_bad_grid_rejected():
    with pytest.raises(SystemExit, match="bad predictor study grid"):
        main(["predictorzoo", "--predictors", "broyden"])
    with pytest.raises(SystemExit, match="bad predictor study grid"):
        main(["predictorzoo", "--scenarios", "marsquake"])
    with pytest.raises(SystemExit, match="bad predictor study grid"):
        main(["predictorzoo", "--resolutions", "2,2,x"])
    with pytest.raises(SystemExit, match="jobs"):
        main(["predictorzoo", "--jobs", "0"])


def test_study_command_names_a_lost_anchor(capsys, monkeypatch):
    """A group whose anchor cell failed is still reported, and the row
    its ratios fell back onto is named beside the FAILED line."""
    from repro.campaign import CampaignRunner

    run_cells = CampaignRunner.run_cells

    def lose_data_driven(self, cells):
        outcomes = run_cells(self, cells)
        for o in outcomes:
            if o.cell.params.get("predictor") == "data-driven":
                o.error = "boom"
        return outcomes

    monkeypatch.setattr(CampaignRunner, "run_cells", lose_data_driven)
    assert main(["predictorzoo", "--scenarios", "soft-soil", "--predictors",
                 "data-driven,aitken", "--steps", "4"]) == 1
    out = capsys.readouterr().out
    assert ("FAILED predictor/stratified/w0/ebe-mcg@cpu-gpu/2x2x1/soft-soil/"
            "data-driven: boom") in out
    assert ("ANCHOR data-driven missing in soft-soil/2x2x1: ratios are "
            "against aitken") in out
    assert "soft-soil  aitken" in out
