"""Scratch private to one lane (thread) of a two-lane step.

:class:`~repro.core.pipeline.HeterogeneousPipeline` steps its two case
sets on two threads at once.  Every mutable buffer both can reach — the
tally stack, the EBE element buffers, the backend's, two-grid and
partitioned scratch — is an attribute of a :class:`LaneLocal`.
"""

import threading

__all__ = ["LaneLocal"]


class LaneLocal(threading.local):
    """Attributes private to each thread, each made by its factory when a
    thread first touches the object: ``LaneLocal(tiles=dict)``."""

    def __init__(self, **factories) -> None:
        for name, make in factories.items():
            setattr(self, name, make())
