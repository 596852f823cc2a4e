"""Unit tests for the flop/byte tally infrastructure."""

import pytest

from repro.util.counters import KernelRecord, KernelTally, active_tally, charge, tally_scope


def test_charge_accumulates():
    t = KernelTally()
    t.charge("spmv.crs", 100.0, 200.0)
    t.charge("spmv.crs", 50.0, 25.0)
    rec = t.records["spmv.crs"]
    assert rec.flops == 150.0
    assert rec.bytes == 225.0
    assert rec.calls == 2


def test_negative_work_rejected():
    t = KernelTally()
    with pytest.raises(ValueError):
        t.charge("x", -1.0, 0.0)
    with pytest.raises(ValueError):
        t.charge("x", 0.0, -1.0)


def test_prefix_totals():
    t = KernelTally()
    t.charge("cg.vec", 10, 1)
    t.charge("cg.precond", 20, 2)
    t.charge("spmv.crs", 40, 4)
    assert t.total_flops("cg.") == 30
    assert t.total_bytes() == 7
    assert t.total_flops() == 70


def test_scope_routes_charges():
    with tally_scope() as t:
        charge("a", 1, 2)
        assert active_tally() is t
    assert t.records["a"].flops == 1
    assert active_tally() is None


def test_scope_nesting_inner_wins():
    with tally_scope() as outer:
        charge("x", 1, 1)
        with tally_scope() as inner:
            charge("x", 10, 10)
        charge("x", 2, 2)
    assert outer.records["x"].flops == 3
    assert inner.records["x"].flops == 10


def test_charge_without_scope_is_noop():
    charge("nothing", 5, 5)  # must not raise


def test_merge():
    a, b = KernelTally(), KernelTally()
    a.charge("k", 1, 2)
    b.charge("k", 3, 4)
    b.charge("other", 5, 6)
    a.merge(b)
    assert a.records["k"].flops == 4
    assert a.records["other"].bytes == 6


def test_snapshot_diff():
    t = KernelTally()
    t.charge("k", 1, 1)
    snap = t.snapshot()
    t.charge("k", 9, 9)
    t.charge("new", 2, 2)
    d = t.diff(snap)
    assert d.records["k"].flops == 9
    assert d.records["new"].flops == 2
    assert "untouched" not in d.records


def test_reset():
    t = KernelTally()
    t.charge("k", 1, 1)
    t.reset()
    assert not t.records


def test_record_merged_is_pure():
    r1 = KernelRecord(1, 2, 1)
    r2 = KernelRecord(10, 20, 2)
    m = r1.merged(r2)
    assert (m.flops, m.bytes, m.calls) == (11, 22, 3)
    assert (r1.flops, r1.calls) == (1, 1)
