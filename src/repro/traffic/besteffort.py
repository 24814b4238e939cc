"""Best-effort background traffic injectors.

Section 18.2.1: "Regular non-real-time traffic is supported at the same
time" -- best-effort frames ride the FCFS queues and are served only
when the deadline-sorted queue is empty. The coexistence experiment
(EXP-B1) needs controllable background load to show that (a) RT
guarantees are untouched by any amount of best-effort pressure and (b)
best-effort still receives the bandwidth RT leaves over.

Two injector styles:

* **saturating** -- keeps the uplink's best-effort queue topped up so
  the link is busy whenever RT is idle (worst case for RT blocking,
  upper bound for BE throughput);
* **poisson** -- memoryless arrivals at a configurable offered load,
  the classic background-traffic model.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..errors import ConfigurationError
from ..network.node import EndNode
from ..sim.kernel import Simulator
from ..units import ETH_MAX_PAYLOAD

__all__ = ["BestEffortInjector"]


class BestEffortInjector:
    """Generates best-effort frames from one node to fixed destinations.

    Parameters
    ----------
    sim:
        The event kernel.
    node:
        Sending node (frames enter its uplink FCFS queue).
    destinations:
        Cycled round-robin as frame destinations.
    payload_bytes:
        Payload per frame (default: maximum, the worst blocking case).
    mode:
        ``"saturate"`` keeps ``backlog_target`` frames queued;
        ``"poisson"`` draws exponential inter-arrival times for a target
        offered load.
    offered_load:
        For poisson mode: fraction of the link rate to offer (0..2;
        values above 1 overload deliberately).
    backlog_target:
        For saturate mode: frames to keep in the uplink BE queue.
    rng:
        RNG for poisson draws (ignored in saturate mode).
    """

    def __init__(
        self,
        sim: Simulator,
        node: EndNode,
        destinations: list[str],
        payload_bytes: int = ETH_MAX_PAYLOAD,
        mode: str = "saturate",
        offered_load: float = 0.5,
        backlog_target: int = 4,
        rng: np.random.Generator | None = None,
    ) -> None:
        if not destinations:
            raise ConfigurationError("injector needs at least one destination")
        if mode not in ("saturate", "poisson"):
            raise ConfigurationError(
                f"mode must be 'saturate' or 'poisson', got {mode!r}"
            )
        if mode == "poisson":
            if rng is None:
                raise ConfigurationError("poisson mode needs an rng")
            if offered_load <= 0 or offered_load > 2:
                raise ConfigurationError(
                    f"offered_load must be in (0, 2], got {offered_load}"
                )
        if backlog_target <= 0:
            raise ConfigurationError(
                f"backlog_target must be positive, got {backlog_target}"
            )
        self._sim = sim
        self._node = node
        self._destinations = destinations
        self._payload = payload_bytes
        self._mode = mode
        self._offered_load = offered_load
        self._backlog_target = backlog_target
        self._rng = rng
        self._next_dest = 0
        self._running = False
        #: the current start's number; a pending event of an older start
        #: finds it changed and ends its chain.
        self._generation = 0
        self.frames_offered = 0

    def start(self) -> None:
        """Begin injecting (idempotent while running)."""
        if self._running:
            return
        self._running = True
        self._generation += 1
        if self._mode == "saturate":
            self._sim.call_at(
                self._sim.now,
                partial(self._top_up, self._generation),
                "be:saturate",
            )
        else:
            self._schedule_poisson(self._generation)

    def stop(self) -> None:
        """Stop injecting; the pending event dies even across a restart."""
        self._running = False

    def _live(self, generation: int) -> bool:
        return self._running and generation == self._generation

    def _dest(self) -> str:
        dest = self._destinations[self._next_dest % len(self._destinations)]
        self._next_dest += 1
        return dest

    def _send_one(self) -> None:
        self._node.send_best_effort(self._dest(), self._payload)
        self.frames_offered += 1

    # -- saturate mode -----------------------------------------------------

    def _top_up(self, generation: int) -> None:
        if not self._live(generation):
            return
        port = self._node.uplink
        assert port is not None
        while port.be_backlog < self._backlog_target:
            self._send_one()
        # Re-check one frame-time later: by then at least one frame can
        # have drained. Polling at frame granularity keeps the queue full
        # without flooding the event heap.
        self._sim.call_at(
            self._sim.now + self._frame_time_ns(),
            partial(self._top_up, generation),
            "be:saturate",
        )

    def _frame_time_ns(self) -> int:
        # One max-frame slot is a safe polling period: at least one
        # queued frame can have drained by then.
        return max(1, self._node.rt_layer.slot_ns)

    # -- poisson mode ---------------------------------------------------------

    def _schedule_poisson(self, generation: int) -> None:
        assert self._rng is not None
        slot_ns = self._node.rt_layer.slot_ns
        # offered_load of 1.0 == one max frame per slot on average.
        mean_gap_ns = slot_ns / self._offered_load
        gap = max(1, int(self._rng.exponential(mean_gap_ns)))
        self._sim.call_at(
            self._sim.now + gap,
            partial(self._poisson_fire, generation),
            "be:poisson",
        )

    def _poisson_fire(self, generation: int) -> None:
        if not self._live(generation):
            return
        self._send_one()
        self._schedule_poisson(generation)
