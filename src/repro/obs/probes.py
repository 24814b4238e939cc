"""Sim-time series probes: periodic samplers on *weak* kernel events.

A :class:`ProbeSet` samples a set of named callables (queue depths,
link utilization, buffer occupancy, ...) every ``cadence_ns`` of
simulation time. The sampling events are scheduled **weak**
(:meth:`repro.sim.kernel.Simulator.call_at` with ``weak=True``), which
is the whole trick: the simulator stops as soon as only weak events
remain, so probes

* never extend a run beyond its uninstrumented final clock,
* never change the relative order of model events (they only read), and
* cost nothing once the simulation's real work is done.

Each sample is appended to an in-memory series ``[(t, value), ...]``
and mirrored into a registry gauge (``probe.<name>``), so the latest
value also shows up in metrics snapshots.
"""

from __future__ import annotations

from typing import Callable

from ..errors import ConfigurationError
from ..sim.kernel import Simulator
from .registry import MetricsRegistry

__all__ = ["ProbeSet"]


class ProbeSet:
    """Named periodic samplers over one simulator.

    Parameters
    ----------
    sim:
        The kernel to sample on.
    registry:
        Gauges ``probe.<name>`` mirror the latest sample of each probe.
    cadence_ns:
        Simulation-time sampling period.
    """

    def __init__(
        self,
        sim: Simulator,
        registry: MetricsRegistry,
        cadence_ns: int,
    ) -> None:
        if cadence_ns <= 0:
            raise ConfigurationError(
                f"probe cadence must be positive, got {cadence_ns} ns"
            )
        self._sim = sim
        self._registry = registry
        self.cadence_ns = cadence_ns
        self._samplers: list[tuple[str, Callable[[], float], object]] = []
        self.series: dict[str, list[tuple[int, float]]] = {}
        self._started = False
        self.samples_taken = 0

    def add(self, name: str, sample: Callable[[], float]) -> None:
        """Register one probe; ``sample()`` must be read-only on the model."""
        if name in self.series:
            raise ConfigurationError(f"duplicate probe name {name!r}")
        gauge = self._registry.gauge(
            "probe." + name, help="latest probe sample"
        ).labels()
        self._samplers.append((name, sample, gauge))
        self.series[name] = []

    def start(self) -> None:
        """Begin sampling: first tick one cadence from now, then periodic."""
        if self._started:
            return
        self._started = True
        sim = self._sim
        sim.call_at(
            sim.now + self.cadence_ns, self._tick, "obs:probe", weak=True
        )

    def _tick(self) -> None:
        now = self._sim.now
        for name, sample, gauge in self._samplers:
            value = sample()
            self.series[name].append((now, value))
            gauge.set(value)
        self.samples_taken += 1
        self._sim.call_at(
            now + self.cadence_ns, self._tick, "obs:probe", weak=True
        )

    def to_dict(self) -> dict[str, list[list[float]]]:
        """JSON-serializable view: name -> [[t_ns, value], ...]."""
        return {
            name: [[t, v] for t, v in samples]
            for name, samples in sorted(self.series.items())
        }
