"""The four method drivers: orderings the paper's tables guarantee."""

import numpy as np
import pytest

from repro.analysis.waves import BandlimitedImpulse
from repro.core.methods import (
    METHODS,
    NATIVE_PREDICTORS,
    RunConfig,
    cpu_share_factors,
    estimate_memory,
    run_method,
)
from repro.hardware.specs import ALPS_MODULE


# ------------------------------------------------- CPU share derating
def test_cpu_factors_reference_point():
    """t=36 is the paper's calibration point: both factors exactly 1."""
    assert cpu_share_factors(36) == (1.0, 1.0)
    assert cpu_share_factors(None) == (1.0, 1.0)


def test_cpu_factors_lower_boundary():
    """t=1: linear flop loss, sqrt bandwidth loss — no cap involved."""
    flop, bw = cpu_share_factors(1)
    assert flop == pytest.approx(1.0 / 36.0)
    assert bw == pytest.approx(1.0 / 6.0)


def test_cpu_factors_upper_boundary_caps_engage():
    """t=72 doubles the core share but the derating caps bite: flops
    saturate at 1.5 (not 2.0) and bandwidth at 1.2 (not sqrt(2))."""
    flop, bw = cpu_share_factors(72)
    assert flop == 1.5  # capped, NOT 72/36 = 2.0
    assert bw == 1.2  # capped, NOT sqrt(2) ~ 1.414
    # the caps first engage strictly above the reference point
    flop54, bw54 = cpu_share_factors(54)
    assert flop54 == 1.5  # 54/36 = 1.5: exactly at the flop cap
    assert bw54 == 1.2  # sqrt(1.5) ~ 1.22 already exceeds the bw cap
    flop51, bw51 = cpu_share_factors(51)
    assert flop51 == pytest.approx(51.0 / 36.0)  # below the flop cap
    assert bw51 == pytest.approx(np.sqrt(51.0 / 36.0))  # below the bw cap


def test_cpu_factors_monotone_and_bounded():
    pts = [cpu_share_factors(t) for t in range(1, 73)]
    flops, bws = zip(*pts)
    assert all(a <= b for a, b in zip(flops, flops[1:]))
    assert all(a <= b for a, b in zip(bws, bws[1:]))
    assert max(flops) == 1.5 and max(bws) == 1.2


def test_cpu_factors_out_of_range_raises():
    for t in (0, -1, 73, 1000):
        with pytest.raises(ValueError):
            cpu_share_factors(t)


@pytest.fixture(scope="module")
def runs(ground_problem):
    """One short run per method on the shared ground problem."""
    problem = ground_problem
    forces = [
        BandlimitedImpulse.random(problem.mesh, problem.dt, rng=i, amplitude=1e6)
        for i in range(4)
    ]
    out = {}
    out["crs-cg@cpu"] = run_method(problem, forces[:1], nt=10, method="crs-cg@cpu")
    out["crs-cg@gpu"] = run_method(problem, forces[:1], nt=10, method="crs-cg@gpu")
    out["crs-cg@cpu-gpu"] = run_method(
        problem, forces[:2], nt=10, method="crs-cg@cpu-gpu", s_range=(2, 8)
    )
    out["ebe-mcg@cpu-gpu"] = run_method(
        problem, forces, nt=10, method="ebe-mcg@cpu-gpu", s_range=(2, 8)
    )
    return out


def test_all_methods_run(runs):
    for m in METHODS:
        assert runs[m].records, m
        assert runs[m].method == m


def test_gpu_faster_than_cpu(runs):
    """Table 3 row ordering: CRS-CG@GPU beats CRS-CG@CPU by roughly the
    bandwidth ratio (paper: 9.96x)."""
    t_cpu = runs["crs-cg@cpu"].elapsed_per_step_per_case((3, 10))
    t_gpu = runs["crs-cg@gpu"].elapsed_per_step_per_case((3, 10))
    assert 4 < t_cpu / t_gpu < 20


def test_heterogeneous_beats_gpu_baseline(runs):
    t_gpu = runs["crs-cg@gpu"].elapsed_per_step_per_case((3, 10))
    t_ebe = runs["ebe-mcg@cpu-gpu"].elapsed_per_step_per_case((3, 10))
    assert t_ebe < t_gpu


def test_scale_robust_ordering(runs):
    """Orderings that hold at any problem size: ebe-mcg fastest,
    CPU baseline slowest.  (The crs-cg@cpu-gpu vs crs-cg@gpu crossover
    depends on solve time amortizing the C2C latency — it appears at
    bench scale and is asserted by the Table 3 benchmark, not here.)"""
    e = {m: runs[m].elapsed_per_step_per_case((3, 10)) for m in METHODS}
    assert e["ebe-mcg@cpu-gpu"] < e["crs-cg@gpu"] < e["crs-cg@cpu"]
    assert e["ebe-mcg@cpu-gpu"] < e["crs-cg@cpu-gpu"] < e["crs-cg@cpu"]


def test_datadriven_methods_reduce_iterations(runs):
    """Both heterogeneous methods must need fewer CG iterations per
    step than the Adams-Bashforth baselines (Fig. 3 / Table 3)."""
    base = runs["crs-cg@gpu"].iterations_per_step((5, 10))
    assert runs["crs-cg@cpu-gpu"].iterations_per_step((5, 10)) < base
    assert runs["ebe-mcg@cpu-gpu"].iterations_per_step((5, 10)) < base


def test_energy_ordering(runs):
    """Table 3 energy column: heterogeneous methods cut J/step/case."""
    j = {m: runs[m].energy_per_step_per_case((3, 10)) for m in METHODS}
    assert j["ebe-mcg@cpu-gpu"] < j["crs-cg@gpu"] < j["crs-cg@cpu"]


def test_solver_iterations_comparable_across_methods(runs):
    """All methods solve the same physics to the same eps; baseline
    iteration counts must agree between CPU and GPU variants."""
    i_cpu = runs["crs-cg@cpu"].iterations_per_step()
    i_gpu = runs["crs-cg@gpu"].iterations_per_step()
    assert i_cpu == pytest.approx(i_gpu, rel=1e-12)


def test_memory_estimates(ground_problem):
    cpu_b, gpu_b = estimate_memory(ground_problem, "crs-cg@cpu", 1)
    assert gpu_b == 0 and cpu_b > 0
    cpu_g, gpu_g = estimate_memory(ground_problem, "crs-cg@gpu", 1)
    assert gpu_g > 0
    cpu_e, gpu_e = estimate_memory(ground_problem, "ebe-mcg@cpu-gpu", 8, s_max=32)
    cpu_c, gpu_c = estimate_memory(ground_problem, "crs-cg@cpu-gpu", 2, s_max=32)
    # EBE footprint on GPU per case is far below CRS (the paper's
    # reason 8 cases fit at once)
    assert gpu_e / 8 < gpu_c / 2
    # the data-driven history dominates CPU memory (paper: 340 GB)
    assert cpu_e > cpu_b


def test_unknown_method_rejected(ground_problem):
    with pytest.raises(ValueError):
        run_method(ground_problem, [lambda it: 0], nt=1, method="magic")
    with pytest.raises(ValueError):
        estimate_memory(ground_problem, "magic", 1)


def test_heterogeneous_needs_even_cases(ground_problem):
    f = BandlimitedImpulse.random(ground_problem.mesh, ground_problem.dt, rng=0)
    with pytest.raises(ValueError):
        run_method(ground_problem, [f, f, f], nt=1, method="ebe-mcg@cpu-gpu")


def test_alps_thread_sweep(ground_problem):
    """Table 4: fewer predictor threads -> faster overall on Alps
    (power-cap relief outweighs slower prediction) as long as the
    predictor stays hidden."""
    forces = [
        BandlimitedImpulse.random(ground_problem.mesh, ground_problem.dt, rng=50 + i, amplitude=1e6)
        for i in range(4)
    ]
    res = {}
    for threads in (36, 16):
        res[threads] = run_method(
            ground_problem,
            forces,
            nt=8,
            method="ebe-mcg@cpu-gpu",
            module=ALPS_MODULE,
            s_range=(2, 6),
            cpu_threads=threads,
        )
    t36 = res[36].elapsed_per_step_per_case((2, 8))
    t16 = res[16].elapsed_per_step_per_case((2, 8))
    p36 = res[36].predictor_time_per_step_per_case((2, 8))
    p16 = res[16].predictor_time_per_step_per_case((2, 8))
    assert p16 > p36  # prediction slows down with fewer threads
    assert t16 < t36  # but the step gets faster (GPU un-throttled)


def test_waveform_recording(ground_problem):
    f = [BandlimitedImpulse.random(ground_problem.mesh, ground_problem.dt, rng=9, amplitude=1e6)]
    dofs = np.array([3, 4, 5])
    res = run_method(ground_problem, f, nt=6, method="crs-cg@cpu", waveform_dofs=dofs)
    assert res.waveforms is not None


def test_summary_keys(runs):
    s = runs["ebe-mcg@cpu-gpu"].summary()
    for key in (
        "elapsed_per_step_per_case_s",
        "iterations_per_step",
        "module_power_W",
        "energy_per_step_per_case_J",
        "cpu_memory_GB",
        "gpu_memory_GB",
    ):
        assert key in s


# ------------------------------------------------- transprecision axis
def test_run_method_fp64_precision_bit_identical(ground_problem, runs):
    """precision='fp64' is a no-op: same records, summaries and final
    states as the precision-unaware driver."""
    forces = [
        BandlimitedImpulse.random(ground_problem.mesh, ground_problem.dt, rng=i, amplitude=1e6)
        for i in range(4)
    ]
    again = run_method(
        ground_problem, forces, nt=10, method="ebe-mcg@cpu-gpu",
        s_range=(2, 8), precision="fp64",
    )
    ref = runs["ebe-mcg@cpu-gpu"]
    assert again.summary((3, 10)) == ref.summary((3, 10))
    for a, b in zip(again.final_states, ref.final_states):
        assert np.array_equal(a.u, b.u)


@pytest.mark.parametrize("precision", ["fp32", "fp21"])
def test_run_method_reduced_precision_safe_and_faster(
    ground_problem, runs, precision
):
    """The acceptance contract at the driver level: eps still reached,
    iteration inflation <= 1.5x, modeled step time no slower."""
    forces = [
        BandlimitedImpulse.random(ground_problem.mesh, ground_problem.dt, rng=i, amplitude=1e6)
        for i in range(4)
    ]
    res = run_method(
        ground_problem, forces, nt=10, method="ebe-mcg@cpu-gpu",
        s_range=(2, 8), precision=precision,
    )
    ref = runs["ebe-mcg@cpu-gpu"]
    w = (3, 10)
    assert res.achieved_relres(w) < 1e-8
    assert res.iterations_per_step(w) <= 1.5 * ref.iterations_per_step(w)
    assert res.elapsed_per_step_per_case(w) <= ref.elapsed_per_step_per_case(w)


def test_run_method_precision_on_baseline(ground_problem):
    """Baseline methods take the axis too (CRS blocks in fp21)."""
    f = [BandlimitedImpulse.random(ground_problem.mesh, ground_problem.dt, rng=3, amplitude=1e6)]
    res = run_method(ground_problem, f, nt=4, method="crs-cg@gpu", precision="fp21")
    assert res.achieved_relres() < 1e-8
    assert res.records


def test_run_method_unknown_precision_rejected(ground_problem):
    f = [lambda it: np.zeros(ground_problem.n_dofs)]
    with pytest.raises(ValueError, match="unknown precision"):
        run_method(ground_problem, f, nt=1, method="crs-cg@cpu", precision="fp8")


# ------------------------------------------------------------ RunConfig
def test_run_config_mirrors_run_method_keywords():
    """``RunConfig`` is ``run_method``'s non-I/O keywords, same names
    and defaults — nothing a caller can set bypasses it."""
    import dataclasses
    import inspect

    run_params = inspect.signature(run_method).parameters
    for f in dataclasses.fields(RunConfig):
        assert run_params[f.name].default == f.default or f.name == "method"
    inputs_and_io = {
        "problem", "forces", "nt", "waveform_dofs", "start_state",
        "checkpoint_every", "on_checkpoint", "record_log", "wave_log",
    }
    assert set(run_params) - inputs_and_io == {
        f.name for f in dataclasses.fields(RunConfig)
    }


@pytest.mark.parametrize("method", METHODS)
def test_run_config_resolves_once(method):
    cfg = RunConfig(method=method)
    assert cfg.precision.name == "fp64" and cfg.backend.name == "numpy"
    assert cfg.predictor == NATIVE_PREDICTORS[method]
    assert RunConfig(method=method, predictor=None) == cfg
    assert RunConfig(method=method, predictor=cfg.predictor) == cfg
    # a native predictor, however named, leaves the header as it was
    # before the predictor axis existed
    assert list(cfg.header(3, {})) == [
        "method", "nparts", "precision", "step", "state"
    ]
    with pytest.raises(AttributeError):  # frozen
        cfg.eps = 1.0


def test_run_config_rejects_bad_values():
    for kw, message in [
        (dict(method="magic"), "unknown method"),
        (dict(method="crs-cg@gpu", nparts=0), "nparts must be >= 1"),
        (dict(method="crs-cg@gpu", nparts=2), "requires one of"),
        (dict(method="crs-cg@gpu", precond="ilu"), "unknown precond"),
        (dict(method="crs-cg@gpu", precision="fp8"), "unknown precision"),
        (dict(method="crs-cg@gpu", backend="fortran"), "unknown backend"),
        (dict(method="crs-cg@gpu", predictor="broyden"), "unknown predictor"),
    ]:
        with pytest.raises(ValueError, match=message):
            RunConfig(**kw)


def test_run_config_header_round_trip_and_mismatch():
    cfg = RunConfig(method="ebe-mcg@cpu-gpu", nparts=2, precision="fp21",
                    precond="twogrid", predictor="aitken")
    doc = cfg.header(5, {"s": 1})
    assert list(doc) == ["method", "nparts", "precision", "step", "state",
                         "precond", "predictor"]
    assert cfg.check_header(doc, nt=8) == 5
    with pytest.raises(ValueError, match="step 5 outside 1..4"):
        cfg.check_header(doc, nt=4)
    other = RunConfig(method="ebe-mcg@cpu-gpu", nparts=2, precision="fp21")
    with pytest.raises(
        ValueError,
        match=r"checkpoint precond 'twogrid' does not match this run \('bj'\)",
    ):
        other.check_header(doc, nt=8)
    with pytest.raises(
        ValueError,
        match=r"checkpoint predictor 'auto' does not match this run \('aitken'\)",
    ):
        cfg.check_header(other.header(5, {}) | {"precond": "twogrid"}, nt=8)


# --------------------------------------------- per-part memory estimates
def test_memory_estimate_precision_itemsizes(ground_problem):
    """Narrower storage shrinks both matrix and vector footprints, but
    never below the fp64-resident state/history share."""
    g = {
        p: estimate_memory(ground_problem, "ebe-mcg@cpu-gpu", 8, precision=p)
        for p in ("fp64", "fp32", "fp21")
    }
    assert g["fp64"][1] > g["fp32"][1] > g["fp21"][1]
    # x, b and the Newmark state stay fp64: 6 of 10 vectors
    assert g["fp21"][1] > 0.6 * g["fp64"][1] - 1.0
    c = {
        p: estimate_memory(ground_problem, "crs-cg@gpu", 2, precision=p)
        for p in ("fp64", "fp21")
    }
    assert c["fp21"][1] < c["fp64"][1]


def test_memory_estimate_per_part_bottleneck(ground_problem):
    """nparts > 1 reports the bottleneck part's footprint (ghost
    vectors included): below the fused total, above the ideal 1/nparts
    share of it."""
    fused_cpu, fused_gpu = estimate_memory(ground_problem, "ebe-mcg@cpu-gpu", 8)
    for nparts in (2, 4):
        cpu_p, gpu_p = estimate_memory(
            ground_problem, "ebe-mcg@cpu-gpu", 8, nparts=nparts
        )
        assert gpu_p < fused_gpu
        assert gpu_p > fused_gpu / nparts  # ghosts + staging overhead
        assert cpu_p < fused_cpu
        assert cpu_p > fused_cpu / nparts


def test_memory_estimate_per_part_matches_run_method(ground_problem):
    """run_method(nparts=4) reports the per-part footprint."""
    forces = [
        BandlimitedImpulse.random(ground_problem.mesh, ground_problem.dt, rng=70 + i, amplitude=1e6)
        for i in range(4)
    ]
    res = run_method(
        ground_problem, forces, nt=2, method="ebe-mcg@cpu-gpu",
        s_range=(2, 8), nparts=4,
    )
    cpu_p, gpu_p = estimate_memory(
        ground_problem, "ebe-mcg@cpu-gpu", 4, s_max=8, nparts=4
    )
    assert res.gpu_memory_bytes == pytest.approx(gpu_p)
    assert res.cpu_memory_bytes == pytest.approx(cpu_p)


def test_memory_estimate_per_part_rejected_for_baselines(ground_problem):
    with pytest.raises(ValueError):
        estimate_memory(ground_problem, "crs-cg@gpu", 2, nparts=2)
    with pytest.raises(ValueError):
        estimate_memory(ground_problem, "ebe-mcg@cpu-gpu", 2, nparts=0)


# ------------------------------------------- one engine, built once
@pytest.mark.parametrize("nparts", [1, 2])
def test_run_builds_every_operator_on_its_engine(ground_problem, nparts):
    """A run's operators — solver, RHS, preconditioner, partition, and
    what the memory estimate reads — all come from the problem on the
    run's engine: one engine in the cache, nothing built twice."""
    from dataclasses import replace

    problem = replace(ground_problem, _cache={})  # same matrices, no operators
    forces = [
        BandlimitedImpulse.random(problem.mesh, problem.dt, rng=80 + i,
                                  amplitude=1e6)
        for i in range(2)
    ]
    run_method(problem, forces, nt=2, method="ebe-mcg@cpu-gpu",
               s_range=(2, 4), nparts=nparts, backend="numpy-blocked")
    solver = (["A_ebe", "precond"] if nparts == 1
              else ["A_dist.2", "precond.parts.2"])
    assert sorted(problem._cache) == sorted(
        f"{base}#numpy-blocked" for base in [*solver, "M_ebe", "C_ebe"]
    )
