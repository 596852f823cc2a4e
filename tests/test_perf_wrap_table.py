"""Tier-1 notices a renamed wrap target.

The perf harness resolves ``benchmarks/perf/tracing.py::WRAP_TABLE`` by
dotted name and errors on a miss — but only the ``slow`` smoke test
ever ran it, so a refactor could pass tier-1 and break the benchmark.
"""

import inspect

import pytest

from benchmarks.perf.tracing import WRAP_TABLE, resolve


@pytest.mark.parametrize("layer,target", WRAP_TABLE)
def test_wrap_target_resolves_to_a_plain_function(layer, target):
    owner, name = resolve(target)
    # what Tracer.install demands of every row
    found = vars(owner)[name] if inspect.isclass(owner) else getattr(owner, name)
    assert inspect.isfunction(found), (layer, target, type(found).__name__)
