"""Endurance study: the gates mean what they say.

The 10k-step run is the nightly ``benchmarks/test_endurance.py``; here
the gate arithmetic and a ring-overflowing miniature of the profile."""

import dataclasses

import pytest

from repro.io.results import load_campaign_checkpoint
from repro.studies import endurance_gates, render_endurance_report, run_endurance


@pytest.fixture(scope="module")
def spill_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("endurance")


@pytest.fixture(scope="module")
def point(spill_dir):
    return run_endurance(
        steps=64, ref_steps=32, keep=16, checkpoint_every=8,
        spill_dir=spill_dir,
    )


def test_checkpoint_bytes_are_the_journals(point, spill_dir):
    """B/step and the flush sizes measure the journal a campaign cell
    writes, not some other encoding of the same documents."""
    journal = spill_dir / "journal-long.jsonl"
    lines = journal.read_bytes().splitlines(keepends=True)
    assert len(lines) == point.n_flushes
    assert point.first_flush_bytes == len(lines[0])
    assert point.max_tail_bytes == max(len(ln) for ln in lines[1:])
    assert point.checkpoint_bytes_per_step == pytest.approx(
        journal.stat().st_size / point.steps, rel=1e-12
    )
    assert load_campaign_checkpoint(journal)["step"] == 56


def test_profile_of_a_ring_overflowing_run(point):
    # a flush every 8 steps; the run returns at step 64 without one
    assert (point.steps, point.ref_steps, point.n_flushes) == (64, 32, 7)
    assert point.peak_growth_bytes == point.peak_long_bytes - point.peak_ref_bytes
    # twice the steps through a full ring: no per-step growth
    assert point.peak_growth_bytes <= 8 * 1024
    gates = endurance_gates(point, min_steps_per_sec=1.0)
    assert gates == {"memory_flat": True, "throughput": True,
                     "checkpoint_flat": True}
    assert f"growth {point.peak_growth_bytes:+d} B" in render_endurance_report(point)


def test_memory_gate_is_growth_under_an_absolute_bound(point):
    """The committed PR-10 point (101 KB -> 292 KB, a 100-step
    reference that never filled the ring) passed "within 1.5x" at 2.89x
    behind 256 KiB of slack; as growth it fails."""
    old = dataclasses.replace(
        point, peak_ref_bytes=101_022, peak_long_bytes=291_893,
        peak_growth_bytes=291_893 - 101_022,
    )
    assert not endurance_gates(old)["memory_flat"]
    flat = dataclasses.replace(old, peak_growth_bytes=250)
    assert endurance_gates(flat)["memory_flat"]
    assert not endurance_gates(flat, max_growth_bytes=100)["memory_flat"]


def test_reference_run_must_overflow_the_ring():
    with pytest.raises(ValueError, match="overflow the ring"):
        run_endurance(steps=1000, ref_steps=100, keep=512)
    with pytest.raises(ValueError, match="overflow the ring"):
        run_endurance(steps=600, ref_steps=600, keep=512)
    with pytest.raises(ValueError, match="checkpoint_every"):
        run_endurance(keep=256, checkpoint_every=256)
