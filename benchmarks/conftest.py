"""Shared benchmark fixtures and table rendering.

Each benchmark module regenerates one paper table or figure:

* the ``benchmark`` fixture times the *host* (NumPy) execution of the
  kernels/methods — the reproducible part of "performance";
* the printed tables contain the *modeled* GH200/Alps numbers from the
  hardware substrate — the part that answers the paper's claims.

Every module writes its table to ``benchmarks/results/<name>.txt`` so
EXPERIMENTS.md can reference stable artifacts, and prints it (visible
with ``pytest benchmarks/ --benchmark-only -s``).
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

_BENCH_DIR = pathlib.Path(__file__).parent


def pytest_collection_modifyitems(items) -> None:
    """Every benchmark is ``slow``: tier-1 (`pytest -q`) deselects them
    by default (see pyproject.toml); run with ``-m slow``."""
    for item in items:
        if _BENCH_DIR in pathlib.Path(str(item.fspath)).parents:
            item.add_marker(pytest.mark.slow)

from repro.analysis.waves import BandlimitedImpulse
from repro.campaign.aggregate import format_table  # noqa: F401 - re-exported
from repro.core.problem import ElasticProblem
from repro.workloads.ground import build_ground_problem, stratified_model

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def write_table(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text)
    print(f"\n{text}")


def bench_forces(problem: ElasticProblem, n: int, seed0: int = 0,
                 amplitude: float = 1e6) -> list[BandlimitedImpulse]:
    """Ensemble forcing tuned so the measurement window sits in
    free vibration (see DESIGN.md on the band-limited impulse)."""
    dt = problem.dt
    f0 = 0.3 / (np.pi * dt)
    return [
        BandlimitedImpulse.random(
            problem.mesh, dt, rng=seed0 + i, amplitude=amplitude,
            f0=f0, cycles_to_onset=1.0,
        )
        for i in range(n)
    ]


@pytest.fixture(scope="session")
def bench_problem() -> ElasticProblem:
    """The stratified ground model at bench resolution (~10k dofs)."""
    return build_ground_problem(stratified_model(), resolution=(6, 6, 3))


@pytest.fixture(scope="session")
def kernel_problem() -> ElasticProblem:
    """Larger mesh for SpMV kernel timing (Table 2)."""
    return build_ground_problem(stratified_model(), resolution=(10, 10, 5))
