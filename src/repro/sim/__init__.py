"""Discrete-event simulation substrate.

The paper's evaluation ran on the authors' simulator; ours is a small,
deterministic, integer-nanosecond event kernel:

* :mod:`~repro.sim.kernel` -- the event loop (:class:`Simulator`).
* :mod:`~repro.sim.events` -- reusable reservation slots.
* :mod:`~repro.sim.rng` -- named, independently seeded random streams so
  that changing one traffic source's draws never perturbs another's.
* :mod:`~repro.sim.trace` -- structured trace recording for debugging
  and for the validation experiments, and the :class:`Observer` every
  data-plane component reports its milestones to.
"""

from .events import Slot
from .kernel import Simulator
from .rng import RngRegistry
from .trace import Observer, TraceRecord, TraceRecorder

__all__ = [
    "Observer",
    "Simulator",
    "Slot",
    "RngRegistry",
    "TraceRecord",
    "TraceRecorder",
]
