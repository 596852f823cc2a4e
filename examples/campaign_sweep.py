"""End-to-end campaign example: 3 ground models x 2 input waves x
2 methods, executed through the cached, parallel campaign engine —
plus a distributed weak-scaling sweep over the part-local solver and
a cross-scenario difficulty sweep over the workload registry.

Run from the repository root::

    PYTHONPATH=src python examples/campaign_sweep.py

The first execution computes all 12 grid cells (over 2 worker
processes) and the 3 scaling cells; running the script again is pure
cache hits — every cell is keyed by a content hash of its parameters
in ``campaign-results/example/``.

Equivalent CLI (the grid)::

    python -m repro campaign \
        --models stratified,basin,slanted --waves 2 \
        --methods crs-cg@gpu,ebe-mcg@cpu-gpu \
        --resolutions 3,3,2 --cases 2 --steps 8 --jobs 2 \
        --store campaign-results/example

and (the distributed nparts axis as an ordinary campaign grid)::

    python -m repro campaign \
        --models stratified --waves 1 --methods ebe-mcg@cpu-gpu \
        --resolutions 3,3,2 --nparts 1,2,4 --module alps \
        --store campaign-results/example-nparts

and (the workload scenario axis)::

    python -m repro campaign \
        --models stratified --waves 1 --methods ebe-mcg@cpu-gpu \
        --resolutions 3,3,2 --steps 18 \
        --scenario impulse,layered-basin,fault-rupture,soft-soil,aftershocks \
        --store campaign-results/example-scenarios
"""

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    ResultStore,
    default_waves,
)
from repro.studies import SWEEP


def main() -> None:
    spec = CampaignSpec(
        name="example",
        models=("stratified", "basin", "slanted"),
        waves=default_waves(2),
        methods=("crs-cg@gpu", "ebe-mcg@cpu-gpu"),
        resolutions=((3, 3, 2),),
        cases=2,
        steps=8,
        seed=0,
    )
    store = ResultStore("campaign-results/example")
    report = CampaignRunner(store=store, jobs=2).run(spec)

    print(f"campaign {spec.name!r}: {spec.n_cells} cells")
    print(report.render())

    # the aggregates are also available as plain dictionaries:
    fastest = min(
        report.by_method().items(),
        key=lambda kv: kv[1]["elapsed_per_step_per_case_s"],
    )
    print(f"\nfastest method over all scenarios: {fastest[0]} "
          f"({fastest[1]['elapsed_per_step_per_case_s']:.3e} s/step/case)")

    # -- distributed mode: a weak-scaling sweep over nparts -----------
    # Each part count is one cached campaign cell; the solver runs
    # part-locally (halo exchange every CG iteration) and the timeline
    # charges the bottleneck part's compute plus nic-lane comm.
    weak = SWEEP["weakscaling"]
    outcomes = CampaignRunner(
        store=ResultStore("campaign-results/example-scaling")
    ).run_cells(weak.cells(nparts=(1, 2, 4), steps=6))
    print()
    print(weak.render(weak.rows(outcomes)))

    # -- workload axis: how hard is each registered scenario? ---------
    # One cached cell per scenario (same model/wave/method/seed, so
    # the scenario is the only thing varying); the fast wave family
    # (f0_factor=1) compresses the source timeline so 18 steps put the
    # second aftershock — and its predictor re-bootstrap — in-window.
    from repro.campaign import WaveSpec

    scenarios = SWEEP["scenarios"]
    sc_outcomes = CampaignRunner(
        store=ResultStore("campaign-results/example-scenarios")
    ).run_cells(
        scenarios.cells(wave=WaveSpec(name="w0", f0_factor=1.0),
                        resolution=(3, 3, 2), steps=18)
    )
    print()
    print(scenarios.render(scenarios.rows(sc_outcomes)))


if __name__ == "__main__":
    main()
