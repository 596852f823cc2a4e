"""Failure-injection tests: the model layer must reject nonsense
loudly rather than produce quiet garbage."""

import dataclasses

import numpy as np
import pytest

from repro.hardware.power import PowerModel
from repro.hardware.roofline import DeviceModel, kernel_time
from repro.hardware.specs import SINGLE_GH200, DeviceSpec
from repro.hardware.transfer import TransferModel
from repro.sparse.cg import pcg
from repro.util.counters import KernelTally


class _NaNOperator:
    """An operator that silently produces NaNs (models a corrupted
    kernel)."""

    def __init__(self, n):
        self.n = n
        self.shape = (n, n)

    def matvec(self, x, out):
        np.copyto(out, x)
        out[0] = np.nan
        return out


def test_cg_does_not_report_convergence_on_nan():
    """A NaN-producing operator must never be reported as converged."""
    n = 8
    res = pcg(_NaNOperator(n), np.ones(n), eps=1e-8, max_iter=20)
    assert not res.converged.all()


def test_zero_speed_device_rejected():
    with pytest.raises(ValueError):
        DeviceSpec("bad", peak_flops=0, mem_bandwidth=1, mem_capacity=1,
                   idle_power=0, max_power=1)


def test_throttle_floor():
    """Even an absurd cap cannot throttle below the model's floor
    (clocks don't go to zero)."""
    tiny_cap = dataclasses.replace(SINGLE_GH200, power_cap=100.0)
    pm = PowerModel(tiny_cap, cpu_load=1.0, gpu_load=1.0)
    assert pm.gpu_throttle_factor(cpu_concurrent=True) >= 0.05


def test_negative_transfer_rejected():
    t = TransferModel(bandwidth=1e9, latency=0.0)
    with pytest.raises(ValueError):
        t.time(-5)


def test_kernel_time_zero_work_is_zero():
    assert kernel_time(0.0, 0.0, SINGLE_GH200.gpu, "cg.vec") == 0.0


def test_tally_with_unknown_tags_still_timeable():
    """Unknown kernel tags fall into the conservative OTHER class
    rather than crashing the model."""
    m = DeviceModel(SINGLE_GH200.gpu)
    t = KernelTally()
    t.charge("totally.unknown.kernel", 1e9, 1e9)
    assert m.time_for_tally(t) > 0


def test_empty_tally_times_to_zero():
    m = DeviceModel(SINGLE_GH200.cpu)
    assert m.time_for_tally(KernelTally()) == 0.0
