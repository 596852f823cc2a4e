"""Public API surface: everything advertised in __all__ must import
and be real, and the README quick-start must execute."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.fem",
    "repro.sparse",
    "repro.predictor",
    "repro.hardware",
    "repro.core",
    "repro.cluster",
    "repro.analysis",
    "repro.workloads",
    "repro.studies",
    "repro.io",
    "repro.util",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_package_all_resolves(name):
    mod = importlib.import_module(name)
    assert hasattr(mod, "__all__"), name
    for sym in mod.__all__:
        assert getattr(mod, sym, None) is not None, f"{name}.{sym}"


def test_version():
    import repro

    assert repro.__version__


def test_readme_quickstart_runs():
    """The exact code from the README, at reduced size."""
    from repro import build_ground_problem, run_method, stratified_model
    from repro.analysis import BandlimitedImpulse

    problem = build_ground_problem(stratified_model(), resolution=(2, 2, 1))
    forces = [
        BandlimitedImpulse.random(problem.mesh, problem.dt, rng=i,
                                  amplitude=1e6)
        for i in range(2)
    ]
    result = run_method(problem, forces, nt=4, method="ebe-mcg@cpu-gpu",
                        s_range=(2, 4))
    summary = result.summary(window=(2, 4))
    assert summary["elapsed_per_step_per_case_s"] > 0


def test_methods_registry_matches_dispatch():
    from repro.core.methods import METHODS

    assert METHODS == (
        "crs-cg@cpu", "crs-cg@gpu", "crs-cg@cpu-gpu", "ebe-mcg@cpu-gpu"
    )


def test_run_method_signature_pinned():
    """``run_method``'s parameters — names, order, kinds, defaults — as
    they were before ``RunConfig`` took over the plumbing behind them.
    A new run parameter is a ``RunConfig`` field first; it becomes a
    ``run_method`` keyword only by editing this list."""
    import inspect

    from repro.core.methods import run_method
    from repro.hardware.specs import SINGLE_GH200

    positional = inspect.Parameter.POSITIONAL_OR_KEYWORD
    keyword = inspect.Parameter.KEYWORD_ONLY
    empty = inspect.Parameter.empty
    assert [
        (p.name, p.kind, p.default)
        for p in inspect.signature(run_method).parameters.values()
    ] == [
        ("problem", positional, empty),
        ("forces", positional, empty),
        ("nt", positional, empty),
        ("method", positional, empty),
        ("module", positional, SINGLE_GH200),
        ("eps", keyword, 1e-8),
        ("s_range", keyword, (8, 32)),
        ("n_regions", keyword, 16),
        ("cpu_threads", keyword, None),
        ("waveform_dofs", keyword, None),
        ("nparts", keyword, 1),
        ("precision", keyword, None),
        ("predictor", keyword, "auto"),
        ("start_state", keyword, None),
        ("checkpoint_every", keyword, 0),
        ("on_checkpoint", keyword, None),
        ("record_log", keyword, None),
        ("wave_log", keyword, None),
    ]
