"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``models``
    List the built-in ground-structure workloads.
``scenarios``
    List the registered workload scenarios (ground structure x source
    process bundles).
``predictors``
    List the registered initial-guess predictors (the zoo of
    :mod:`repro.predictor.registry`) plus the ``auto`` sentinel.
``info``
    Build a problem and print its discretization facts.
``run``
    Run one of the four methods on a ground workload, print the
    paper-style summary, optionally save JSON / VTK artifacts.
``sensitivity``
    Characterize the workload and sweep an architectural parameter.
``campaign``
    Run a many-scenario ensemble campaign (grid of ground models x
    input waves x methods x resolutions, optionally fanned over
    registered scenarios) through the cached, optionally parallel
    campaign engine, and print aggregated summary tables.
``predictorzoo``
    Sweep the initial-guess predictor zoo across scenarios (one
    campaign cell per scenario x resolution x predictor; iterations
    per step and earned history, anchored on data-driven).
``endurance``
    Profile a long streaming run through the bounded ring/spill logs:
    throughput, peak-memory growth between two long runs, checkpoint
    bytes per flush, and the nightly pass/fail gates.
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    from repro.campaign.axes import AXES
    from repro.hardware.specs import MODULES
    from repro.workloads.scenario import scenario_names

    modules = sorted(MODULES)
    p = argparse.ArgumentParser(
        prog="repro",
        description="Heterogeneous CPU-GPU time-evolution solver (SC'24 reproduction)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list ground-structure workloads")
    sub.add_parser("scenarios", help="list registered workload scenarios")
    sub.add_parser("predictors", help="list registered initial-guess predictors")

    info = sub.add_parser("info", help="print problem facts")
    _add_problem_args(info)

    run = sub.add_parser("run", help="run one method on a workload")
    _add_problem_args(run)
    run.add_argument("--method", default="ebe-mcg@cpu-gpu",
                     help="crs-cg@cpu | crs-cg@gpu | crs-cg@cpu-gpu | ebe-mcg@cpu-gpu")
    run.add_argument("--cases", type=int, default=8, help="ensemble size")
    run.add_argument("--steps", type=int, default=64, help="time steps")
    run.add_argument("--module", default="single-gh200",
                     choices=modules, help="hardware model")
    run.add_argument("--threads", type=int, default=None,
                     help="predictor CPU threads per process")
    run.add_argument("--s-min", type=int, default=8)
    run.add_argument("--s-max", type=int, default=32)
    for ax in AXES:
        run.add_argument(f"--{ax.key}", type=ax.coerce, default=ax.default,
                         choices=ax.names and list(ax.names()), help=ax.help)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--json", default=None, help="save result JSON here")
    run.add_argument("--vtk", default=None, help="save final displacement VTK here")

    sens = sub.add_parser("sensitivity", help="architectural sweep")
    _add_problem_args(sens)
    sens.add_argument("--param", default="gpu.peak_flops",
                      help="see repro.studies.sensitivity.SWEEPABLE_PARAMETERS")
    sens.add_argument("--factors", default="0.5,1,2,4",
                      help="comma-separated scale factors")
    sens.add_argument("--module", default="single-gh200",
                      choices=modules)

    camp = sub.add_parser("campaign", help="run a many-scenario campaign")
    camp.add_argument("--spec", default=None,
                      help="JSON campaign spec (overrides the grid flags)")
    camp.add_argument("--name", default="campaign")
    camp.add_argument("--models", default="stratified,basin,slanted",
                      help="comma-separated ground models")
    camp.add_argument("--waves", type=int, default=2,
                      help="number of input-wave families")
    camp.add_argument("--methods", default="crs-cg@gpu,ebe-mcg@cpu-gpu",
                      help="comma-separated methods")
    camp.add_argument("--resolutions", default="2,2,1",
                      help="semicolon-separated resolutions, e.g. '2,2,1;3,3,2'")
    camp.add_argument("--cases", type=int, default=2, help="ensemble size per cell")
    camp.add_argument("--steps", type=int, default=8, help="time steps per cell")
    for ax in AXES:
        camp.add_argument(f"--{ax.key}", default=str(ax.default),
                          help="comma-separated values to sweep, one cell "
                               f"each — {ax.help}")
    camp.add_argument("--module", default="single-gh200",
                      choices=modules)
    camp.add_argument("--seed", type=int, default=0)
    camp.add_argument("--jobs", type=int, default=1,
                      help="worker processes (1 = inline)")
    camp.add_argument("--store", default="campaign-results",
                      help="result store directory (content-hash cache)")
    camp.add_argument("--no-store", action="store_true",
                      help="disable caching/persistence")
    camp.add_argument("--checkpoint-every", type=int, default=0,
                      help="flush a per-cell resume checkpoint to the store "
                           "every K time steps (0 = never); a killed run "
                           "then loses at most K steps of one cell")
    camp.add_argument("--resume", action="store_true",
                      help="resume interrupted cells from their store "
                           "checkpoints instead of step 0 (finished cells "
                           "are cache hits either way)")

    pz = sub.add_parser(
        "predictorzoo",
        help="sweep the initial-guess predictor zoo across scenarios",
    )
    pz.add_argument("--predictors", default=None,
                    help="comma-separated registered predictors "
                         "(default: the whole zoo; see `repro predictors`)")
    pz.add_argument("--scenarios", default="impulse,aftershocks",
                    help="comma-separated scenarios to sweep "
                         "(see `repro scenarios`)")
    pz.add_argument("--resolutions", default="2,2,1",
                    help="semicolon-separated resolutions, e.g. '2,2,1;4,4,2'")
    pz.add_argument("--model", default="stratified",
                    help="ground model of the study cells")
    pz.add_argument("--method", default="ebe-mcg@cpu-gpu")
    pz.add_argument("--cases", type=int, default=2, help="ensemble size")
    pz.add_argument("--steps", type=int, default=8, help="time steps")
    pz.add_argument("--module", default="single-gh200", choices=modules)
    pz.add_argument("--seed", type=int, default=0)
    pz.add_argument("--jobs", type=int, default=1,
                    help="worker processes (1 = inline)")
    pz.add_argument("--store", default=None,
                    help="optional result store directory (content-hash "
                         "cache shared with `repro campaign`)")

    end = sub.add_parser(
        "endurance",
        help="profile a long streaming run through the bounded logs",
    )
    end.add_argument("--scenario", default="aftershocks",
                     choices=list(scenario_names()),
                     help="source scenario of the profiled run")
    _add_problem_args(end)
    end.set_defaults(resolution="2,2,1")
    end.add_argument("--steps", type=int, default=10_000,
                     help="long-run length in time steps")
    end.add_argument("--ref-steps", type=int, default=1024,
                     help="reference run the memory gate compares "
                          "against (must overflow the ring: > --keep)")
    end.add_argument("--method", default="crs-cg@cpu",
                     help="driver to profile (default: the CPU baseline)")
    end.add_argument("--checkpoint-every", type=int, default=256,
                     help="checkpoint flush cadence in steps")
    end.add_argument("--keep", type=int, default=512,
                     help="ring size of the record/wave logs "
                          "(must exceed the checkpoint cadence)")
    end.add_argument("--seed", type=int, default=0)
    end.add_argument("--waves", action="store_true",
                     help="also record waveforms through a spill log")
    end.add_argument("--json", default=None, metavar="PATH",
                     help="write the profile document (point + gates) "
                          "to PATH")
    return p


def _add_problem_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", default="stratified",
                   help="stratified | basin | slanted")
    p.add_argument("--resolution", default="5,5,3",
                   help="hex cells per direction, e.g. 6,6,3")


def _module(name: str):
    from repro.hardware.specs import module_by_name

    return module_by_name(name)


def _resolution(args) -> tuple[int, int, int]:
    res = tuple(int(x) for x in args.resolution.split(","))
    if len(res) != 3:
        raise SystemExit("--resolution needs three comma-separated integers")
    return res


def _resolutions(text: str) -> tuple[tuple[int, ...], ...]:
    """``'2,2,1;3,3,2'`` -> ``((2, 2, 1), (3, 3, 2))``."""
    return tuple(
        tuple(int(x) for x in chunk.split(",")) for chunk in text.split(";")
    )


def _problem(args, scen=None):
    from repro.workloads.ground import GROUND_MODELS
    from repro.workloads.scenario import DEFAULT_SCENARIO, scenario_by_name

    if args.model not in GROUND_MODELS:
        raise SystemExit(f"unknown model {args.model!r}; try `repro models`")
    if scen is None:
        scen = scenario_by_name(DEFAULT_SCENARIO)()
    return scen.build_problem(args.model, _resolution(args))


def _forces(problem, n, seed):
    """Default-scenario ensemble forces (one owner of the wave
    defaults: :func:`repro.workloads.scenario.wave_params`)."""
    from repro.workloads.scenario import DEFAULT_SCENARIO, scenario_by_name

    return scenario_by_name(DEFAULT_SCENARIO)().forces(
        problem, {}, seed=seed, n_cases=n
    )


def _cmd_models(_args) -> int:
    from repro.workloads.ground import GROUND_MODELS

    for name, factory in GROUND_MODELS.items():
        m = factory()
        print(f"{name:12s} soft vs={m.soft.vs:g} m/s, hard vs={m.hard.vs:g} m/s, "
              f"domain {m.dims}")
    return 0


def _cmd_scenarios(_args) -> int:
    from repro.workloads.scenario import scenario_by_name, scenario_names

    for name in scenario_names():
        print(f"{name:14s} {scenario_by_name(name).description}")
    return 0


def _cmd_predictors(_args) -> int:
    from repro.core.methods import NATIVE_PREDICTORS
    from repro.predictor.registry import (
        DEFAULT_PREDICTOR,
        predictor_by_name,
        predictor_names,
    )

    native = ", ".join(
        f"{m}->{p}" for m, p in NATIVE_PREDICTORS.items()
    )
    print(f"{DEFAULT_PREDICTOR:14s} the method's paper-native pairing "
          f"({native})")
    for name in predictor_names():
        print(f"{name:14s} {predictor_by_name(name).description}")
    return 0


def _cmd_info(args) -> int:
    problem = _problem(args)
    mesh = problem.mesh
    print(f"model        : {args.model}")
    print(f"elements     : {mesh.n_elems} (TET10)")
    print(f"nodes        : {mesh.n_nodes}")
    print(f"dofs         : {problem.n_dofs}")
    print(f"dt           : {problem.dt:.6g} s")
    print(f"fixed nodes  : {problem.fixed_nodes.size} (bottom)")
    crs = problem.crs_operator()
    ebe = problem.ebe_operator()
    print(f"CRS storage  : {crs.memory_bytes() / 1e6:.2f} MB "
          f"({crs.nnz_blocks} 3x3 blocks)")
    print(f"EBE storage  : {ebe.memory_bytes() / 1e6:.2f} MB (matrix-free)")
    return 0


def _cmd_run(args) -> int:
    from repro.campaign.axes import AXES
    from repro.core.methods import RunConfig, run_method
    from repro.workloads.scenario import scenario_by_name

    solver_axes = {ax.key: getattr(args, ax.key) for ax in AXES if ax.solver}
    try:
        # a bad method / axis combination fails here, before the
        # problem is built
        RunConfig(method=args.method, **solver_axes)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    scen = scenario_by_name(args.scenario)()
    problem = _problem(args, scen=scen)
    # an empty wave dict resolves to wave_params' defaults — the same
    # values the campaign's w0 family carries, owned in one place
    forces = scen.forces(problem, {}, seed=args.seed, n_cases=args.cases)
    result = run_method(
        problem, forces, nt=args.steps, method=args.method,
        module=_module(args.module), s_range=(args.s_min, args.s_max),
        cpu_threads=args.threads, **solver_axes,
    )
    # same steady-state window convention as the campaign executor
    # (non-empty even for --steps 1)
    window = (max(1, args.steps * 5 // 8), args.steps + 1)
    print(f"\n{args.method} on {args.module} "
          f"({args.scenario} scenario, {problem.n_dofs} dofs, "
          f"{args.cases} cases, {args.steps} steps)")
    for k, v in result.summary(window).items():
        print(f"  {k:34s} {v}")
    if args.json:
        from repro.io.results import save_result

        path = save_result(result, args.json, window=window)
        print(f"saved JSON -> {path}")
    if args.vtk:
        from repro.io.vtk import write_vtk

        u = result.final_states[0].u.reshape(-1, 3)
        path = write_vtk(problem.mesh, args.vtk,
                         point_data={"displacement": u})
        print(f"saved VTK  -> {path}")
    return 0


def _cmd_sensitivity(args) -> int:
    from repro.studies.sensitivity import characterize_pipeline, sweep_parameter

    problem = _problem(args)
    forces = _forces(problem, 4, 0)
    profile = characterize_pipeline(problem, forces, nt=24, window_start=16,
                                    s=8, n_regions=8)
    factors = [float(x) for x in args.factors.split(",")]
    pts = sweep_parameter(profile, _module(args.module), args.param, factors)
    base = next((p for p in pts if p.factor == 1.0), pts[0])
    print(f"\nsensitivity of EBE-MCG step time to {args.param} "
          f"({args.module}, {problem.n_dofs} dofs):")
    for p in pts:
        print(f"  x{p.factor:<5g} t_step {p.t_step:.3e} s  "
              f"speedup {base.t_step / p.t_step:5.3f}x  "
              f"predictor hidden: {p.predictor_hidden}")
    return 0


def _campaign_spec(args):
    from repro.campaign import CampaignSpec, default_waves
    from repro.campaign.axes import AXES

    if args.spec:
        try:
            return CampaignSpec.from_json(args.spec)
        except FileNotFoundError:
            raise SystemExit(f"campaign spec not found: {args.spec}") from None
        except ValueError as exc:  # bad JSON or bad spec contents
            raise SystemExit(f"bad campaign spec {args.spec}: {exc}") from exc
    try:
        return CampaignSpec(
            name=args.name,
            models=tuple(args.models.split(",")),
            waves=default_waves(args.waves),
            methods=tuple(args.methods.split(",")),
            resolutions=_resolutions(args.resolutions),
            cases=args.cases,
            steps=args.steps,
            module=args.module,
            seed=args.seed,
            **{
                ax.field: tuple(map(ax.coerce, getattr(args, ax.key).split(",")))
                for ax in AXES
            },
        )
    except ValueError as exc:
        raise SystemExit(f"bad campaign grid: {exc}") from exc


def _cmd_campaign(args) -> int:
    from repro.campaign import CampaignRunner, ResultStore
    from repro.campaign.axes import AXES

    if args.jobs < 1:
        raise SystemExit("--jobs must be >= 1")
    if args.checkpoint_every < 0:
        raise SystemExit("--checkpoint-every must be >= 0")
    if args.no_store and (args.resume or args.checkpoint_every):
        raise SystemExit(
            "--resume/--checkpoint-every need the store; drop --no-store"
        )
    spec = _campaign_spec(args)
    store = None if args.no_store else ResultStore(args.store)
    report = CampaignRunner(
        store=store, jobs=args.jobs, checkpoint_every=args.checkpoint_every,
    ).run(spec, resume=args.resume)
    axes = (f"{len(spec.models)} models x {len(spec.waves)} waves x "
            f"{len(spec.methods)} methods x {len(spec.resolutions)} resolutions")
    for ax in AXES:
        values = getattr(spec, ax.field)
        if len(values) > 1:
            axes += f", {ax.field} " + ",".join(map(str, values))
            takers = [m for m in spec.methods if ax.applies(m)]
            if len(takers) < len(spec.methods):
                axes += " on " + ",".join(takers)
    print(f"\ncampaign {spec.name!r}: {spec.n_cells} cells ({axes}), "
          f"jobs={args.jobs}\n")
    print(report.render())
    if store is not None:
        print(f"store -> {store.root}")
    return 1 if report.n_failed else 0


def _cmd_predictorzoo(args) -> int:
    """Build the predictor study's cells from the flags, run them
    through the campaign engine, print the study's table."""
    from repro.campaign import CampaignRunner, ResultStore
    from repro.studies import SWEEP

    sweep = SWEEP["predictors"]
    if args.jobs < 1:
        raise SystemExit("--jobs must be >= 1")
    what = sweep.label
    try:
        cells = sweep.cells(
            scenario=tuple(args.scenarios.split(",")),
            resolution=_resolutions(args.resolutions),
            model=args.model,
            cases=args.cases,
            steps=args.steps,
            method=args.method,
            module=args.module,
            seed=args.seed,
            predictor=(tuple(args.predictors.split(","))
                       if args.predictors else None),
        )
    except ValueError as exc:
        raise SystemExit(f"bad {what} study grid: {exc}") from exc
    store = ResultStore(args.store) if args.store else None
    outcomes = CampaignRunner(store=store, jobs=args.jobs).run_cells(cells)
    for o in outcomes:
        if not o.ok:
            print(f"FAILED {o.cell.label}: {o.error}")
    rows = sweep.rows(outcomes)
    if not rows:
        raise SystemExit(f"no complete {what} study row succeeded")
    for row in rows:  # a fallback anchor is never silent
        if row[sweep.along] == row["anchor"] != sweep.anchor:
            print(f"ANCHOR {sweep.anchor} missing in {row['group']}: "
                  f"ratios are against {row['anchor']}")
    print()
    print(sweep.render(rows))
    if store is not None:
        print(f"store -> {store.root}")
    return 0 if all(o.ok for o in outcomes) else 1


def _cmd_endurance(args) -> int:
    import json as _json

    from repro.studies.endurance import (
        endurance_gates,
        render_endurance_report,
        run_endurance,
    )

    try:
        point = run_endurance(
            scenario=args.scenario,
            model=args.model,
            resolution=_resolution(args),
            steps=args.steps,
            ref_steps=args.ref_steps,
            method=args.method,
            seed=args.seed,
            checkpoint_every=args.checkpoint_every,
            keep=args.keep,
            waves=args.waves,
        )
    except ValueError as exc:
        raise SystemExit(f"bad endurance run: {exc}") from exc
    gates = endurance_gates(point)
    print(render_endurance_report(point))
    print("  gates           " + "  ".join(
        f"{name}={'pass' if ok else 'FAIL'}" for name, ok in gates.items()
    ))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            _json.dump(
                {"point": point.to_dict(), "gates": gates}, fh, indent=2
            )
        print(f"profile -> {args.json}")
    return 0 if all(gates.values()) else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "models": _cmd_models,
        "scenarios": _cmd_scenarios,
        "predictors": _cmd_predictors,
        "info": _cmd_info,
        "run": _cmd_run,
        "sensitivity": _cmd_sensitivity,
        "campaign": _cmd_campaign,
        "predictorzoo": _cmd_predictorzoo,
        "endurance": _cmd_endurance,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
