"""Element classes — where one matrix per class beats one per element.

The EBE sweep's dense apply either streams one stored 30x30 matrix per
element or, over element classes (:mod:`repro.sparse.ebe`), applies
each class's one representative to all its members in a single GEMM
over the class's ``(30, k r)`` block.  That trades ``ne`` streamed
matrices and ``ne`` small products for a few dozen BLAS-3 calls, but
the grouped buffers are laid out by dof, not by node, so its gather
and scatter move three times as many (shorter) rows: grouping pays
once the GEMMs' savings cover that, which is a matter of class size
and width ``r``.  For each ground model and mesh from ``(2, 2, 1)`` to
``(10, 10, 5)`` this bench reports:

* ``ne``, the class count ``build_problem`` labels, their mean size and
  the path it stores the problem for at
  :data:`~repro.sparse.ebe.MIN_MEAN_CLASS_SIZE`;
* the wall time of one warm sweep (``matvec`` into ``out``) with stored
  matrices against one with the grouping forced on at every size, at
  r = 1 / 4 / 8.  A sample sweeps the problem's mass, damping and
  effective operators in turn, as a time step does (RHS build, then the
  solve), and the best of ``SAMPLES`` is divided by three.  Repeating
  one operator instead would let its stored matrices sit in a large
  last-level cache, which a run does not.

The table is what sets ``MIN_MEAN_CLASS_SIZE``: the smallest mean class
size from which grouping wins at every width.  With one GEMM per class
that is about 13 (the ``(6, 6, 3)`` meshes; the ``(5, 5, 3)`` ones, at
9-12, win at r = 1 and 4 and tie at r = 8, the ``(4, 4, 2)`` ones
lose); the constant stays 16, set when every member
cost its own product, because lowering it regroups meshes whose
committed tables would move.  Asserted: the class counts, the path
choice, and a grouped sweep at least 1.6x the stored one at
``(10, 10, 5)``, r = 4 (1.6-2.7x measured on a shared 2-vCPU box, where
the per-element GEMMs measured 1.75x).
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import format_table, write_table
from repro.sparse import ebe
from repro.sparse.ebe import MIN_MEAN_CLASS_SIZE, EBEOperator
from repro.workloads.ground import GROUND_MODELS, build_ground_problem

RESOLUTIONS = ((2, 2, 1), (3, 3, 2), (4, 4, 2), (5, 5, 3), (6, 6, 3),
               (8, 8, 4), (10, 10, 5))
WIDTHS = (1, 4, 8)
SAMPLES = 9
SAMPLE_S = 0.03  # sweeps per sample: enough to fill this many seconds

#: model -> class count per resolution, as labelled from the inputs
CLASS_COUNTS = {
    "stratified": (16, 32, 32, 36, 36, 48, 48),
    "basin": (16, 36, 36, 48, 48, 48, 48),
    "slanted": (16, 38, 38, 47, 48, 45, 45),
}


def _sweep_us(arms: list[list[EBEOperator]], r: int) -> list[float]:
    """Per-sweep microseconds of each arm (a list of operators swept in
    turn), best of ``SAMPLES`` taken in alternation so that a slow spell
    of the machine hits every arm alike."""
    X = np.random.default_rng(r).standard_normal((arms[0][0].n, r))
    out = np.empty_like(X)

    def step(ops):
        for op in ops:
            op.matvec(X, out=out)

    calls = []
    for ops in arms:
        step(ops)  # the width's workspaces
        t0 = time.perf_counter()
        step(ops)
        calls.append(max(1, int(SAMPLE_S / max(time.perf_counter() - t0, 1e-7))))
    best = [np.inf] * len(arms)
    for _ in range(SAMPLES):
        for k, ops in enumerate(arms):
            t0 = time.perf_counter()
            for _ in range(calls[k]):
                step(ops)
            best[k] = min(best[k], (time.perf_counter() - t0) / calls[k])
    return [1e6 * t / len(ops) for t, ops in zip(best, arms)]


def test_ebe_classes(monkeypatch):
    rows, speedup = [], {}
    for model, counts in CLASS_COUNTS.items():
        for res, n_classes in zip(RESOLUTIONS, counts):
            with monkeypatch.context() as m:  # class-stored at every size
                m.setattr(ebe, "MIN_MEAN_CLASS_SIZE", 1)
                p = build_ground_problem(GROUND_MODELS[model](), resolution=res)
            labels = p.classes["A"]
            ne, nc = p.n_elems, int(labels.max()) + 1
            assert nc == n_classes, (model, res, nc)
            grouped = ne >= MIN_MEAN_CLASS_SIZE * nc
            unforced = build_ground_problem(GROUND_MODELS[model](), resolution=res)
            assert (unforced.ebe_operator().classes is not None) == grouped
            del unforced

            row = [model, "x".join(map(str, res)), f"{ne}", f"{nc}",
                   f"{ne / nc:.1f}", "grouped" if grouped else "stored"]
            for r in WIDTHS:  # fresh operators: one width's workspaces at a time
                forced = [EBEOperator(p.matrices[f], p.mesh.elems, p.n_nodes,
                                      classes=labels) for f in "MCA"]
                stored = [EBEOperator(p.element_matrices(f), p.mesh.elems, p.n_nodes)
                          for f in "MCA"]
                t_s, t_g = _sweep_us([stored, forced], r)
                speedup[model, res, r] = t_s / t_g
                row += [f"{t_s:.0f}", f"{t_g:.0f}", f"{t_s / t_g:.2f}x"]
            rows.append(row)

    head = ["model", "mesh", "ne", "classes", "mean size", "path"]
    for r in WIDTHS:
        head += [f"stored us r={r}", f"grouped us r={r}", f"gain r={r}"]
    write_table("ebe_classes", format_table(
        "EBE sweep per element class vs per stored element matrix (M, C, A "
        f"in turn, best of {SAMPLES}; grouped from mean class size "
        f">= {MIN_MEAN_CLASS_SIZE})",
        head, rows,
    ))

    for model in CLASS_COUNTS:
        assert speedup[model, (10, 10, 5), 4] >= 1.6, speedup
