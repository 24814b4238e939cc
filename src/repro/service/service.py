"""The resident admission service: churn in, decisions out, forever.

:class:`AdmissionService` runs inside the discrete-event kernel as a
long-lived process. Each arrival, departure and checkpoint is its own
:class:`~repro.sim.kernel.Simulator` event, and the kernel fires
same-instant events in the order they were queued. That order is what
makes checkpoint/resume exact:

* the arrival that admits a channel queues its departure before it
  queues the next arrival, so a departure always fires before an
  arrival at the same instant (a channel whose holding time ends
  exactly when a request lands does not block it);
* a checkpoint writes the pending departures in the order they were
  queued, and :func:`resume` queues them, then the pending arrival,
  then the next checkpoint -- the relative order the uninterrupted run
  holds them in.

A checkpoint sees the instant as far as it has run: events queued after
it for the same instant fire after it, in both runs.

Checkpoints ride the schema-v2 persistence path
(:func:`repro.core.persistence.snapshot`) plus the service's own state:
the churn generators' positions, the pending departure schedule, the
pre-drawn next arrival time, and the running counters. :func:`resume`
reverses all of it; the contract (pinned by the service soak and the
Hypothesis churn property) is that kill-and-resume at any checkpoint
yields a final ``{N, K}`` and decision-ledger suffix byte-identical to
the uninterrupted run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import partial

from ..core.admission import AdmissionController
from ..core.partitioning import DeadlinePartitioningScheme
from ..core import persistence
from ..errors import ConfigurationError
from ..sim.kernel import Simulator
from ..sim.rng import RngRegistry
from .churn import ChurnConfig, ChurnProcess

__all__ = ["AdmissionService", "ServiceCheckpoint", "resume"]

#: Checkpoint layout version (independent of the admission snapshot's).
SERVICE_CHECKPOINT_VERSION = 1


@dataclass(frozen=True, slots=True)
class ServiceCheckpoint:
    """One taken checkpoint: the JSON-compatible payload plus its digest."""

    taken_at_ns: int
    data: dict
    digest: str


def _digest(admission_blob: str) -> str:
    """Digest of a ``json.dumps(snapshot, sort_keys=True)`` blob."""
    return hashlib.sha256(admission_blob.encode()).hexdigest()[:16]


class AdmissionService:
    """A churn-driven admission authority resident in the kernel.

    Parameters
    ----------
    controller:
        The admission controller owning ``{N, K}``.
    churn:
        The seeded request process.
    checkpoint_every_ns:
        Period of automatic snapshot checkpoints (None = never).

    The service lives in a private :class:`~repro.sim.kernel.Simulator`
    (:attr:`sim`), starting at time 0.
    """

    def __init__(
        self,
        controller: AdmissionController,
        churn: ChurnProcess,
        *,
        checkpoint_every_ns: int | None = None,
    ) -> None:
        if checkpoint_every_ns is not None and checkpoint_every_ns <= 0:
            raise ConfigurationError(
                f"checkpoint_every_ns must be positive, got "
                f"{checkpoint_every_ns}"
            )
        self._controller = controller
        self._churn = churn
        self._sim = Simulator()
        self._checkpoint_every_ns = checkpoint_every_ns
        #: pending departures (channel_id -> at_ns), in queueing order.
        self._departures: dict[int, int] = {}
        self._next_arrival_at: int | None = None
        self._next_checkpoint_at: int | None = None
        self._started = False
        #: decision stream: JSON-able tuples, in processing order.
        self.ledger: list[tuple] = []
        self.counters = {
            "arrivals": 0,
            "accepts": 0,
            "rejects": 0,
            "departures": 0,
            "checkpoints": 0,
        }
        self.checkpoints: list[ServiceCheckpoint] = []

    # -- public surface ----------------------------------------------------

    @property
    def sim(self) -> Simulator:
        return self._sim

    @property
    def controller(self) -> AdmissionController:
        return self._controller

    @property
    def active_channels(self) -> int:
        return len(self._controller.state)

    @property
    def last_checkpoint(self) -> ServiceCheckpoint | None:
        return self.checkpoints[-1] if self.checkpoints else None

    def start(self) -> None:
        """Schedule the first arrival (and checkpoint) and begin."""
        if self._started:
            raise ConfigurationError("service already started")
        self._started = True
        self._queue_arrival(self._churn.next_interarrival_ns())
        if self._checkpoint_every_ns is not None:
            self._queue_checkpoint(self._checkpoint_every_ns)

    def run_until(self, until_ns: int) -> int:
        """Advance the kernel (and so the service) to ``until_ns``."""
        if not self._started:
            raise ConfigurationError("call start() (or resume()) first")
        return self._sim.run(until=until_ns)

    def final_state_json(self) -> str:
        """Canonical JSON of the current admission state (byte-compare)."""
        return persistence.dumps(self._controller, indent=None)

    # -- checkpointing -----------------------------------------------------

    def take_checkpoint(self) -> ServiceCheckpoint:
        """Capture everything a resumed service needs, right now."""
        now = self._sim.now
        # The snapshot is built from fresh JSON-native containers, so the
        # checkpoint keeps it as is; its sort-keys serialisation is the
        # digest's input. The rest of ``data`` is fresh too, so nothing
        # in the checkpoint stays shared with live state.
        snapshot = persistence.snapshot(self._controller)
        blob = json.dumps(snapshot, sort_keys=True)
        data = {
            "version": SERVICE_CHECKPOINT_VERSION,
            "now_ns": now,
            "admission": snapshot,
            "churn": self._churn.export_state(),
            "departures": [
                [at, channel_id]
                for channel_id, at in self._departures.items()
            ],
            "next_arrival_at": self._next_arrival_at,
            "next_checkpoint_at": self._next_checkpoint_at,
            "checkpoint_every_ns": self._checkpoint_every_ns,
            "counters": dict(self.counters),
            "ledger_len": len(self.ledger),
        }
        checkpoint = ServiceCheckpoint(
            taken_at_ns=now, data=data, digest=_digest(blob)
        )
        self.checkpoints.append(checkpoint)
        return checkpoint

    # -- events ------------------------------------------------------------

    def _queue_arrival(self, at: int) -> None:
        self._next_arrival_at = at
        self._sim.call_at(at, self._arrive, "service:arrive")

    def _queue_departure(self, at: int, channel_id: int) -> None:
        self._departures[channel_id] = at
        self._sim.call_at(
            at, partial(self._depart, channel_id), "service:depart"
        )

    def _queue_checkpoint(self, at: int) -> None:
        self._next_checkpoint_at = at
        self._sim.call_at(at, self._checkpoint, "service:checkpoint")

    def _arrive(self) -> None:
        now = self._sim.now
        request = self._churn.draw_request()
        decision = self._controller.request(
            request.source, request.destination, request.spec
        )
        self.counters["arrivals"] += 1
        channel_id = -1
        if decision.accepted:
            self.counters["accepts"] += 1
            channel_id = decision.channel.channel_id
            self._queue_departure(now + self._churn.holding_ns(), channel_id)
        else:
            self.counters["rejects"] += 1
        self.ledger.append(
            (
                "arrive",
                now,
                request.source,
                request.destination,
                request.spec.period,
                request.spec.capacity,
                request.spec.deadline,
                int(decision.accepted),
                channel_id,
            )
        )
        self._queue_arrival(now + self._churn.next_interarrival_ns())

    def _depart(self, channel_id: int) -> None:
        del self._departures[channel_id]
        self._controller.release(channel_id)
        self.counters["departures"] += 1
        self.ledger.append(("depart", self._sim.now, channel_id))

    def _checkpoint(self) -> None:
        # Advance the counter and the next-checkpoint time *before*
        # capturing: the snapshot must describe the world as of this
        # checkpoint having happened, or a resumed run re-fires it
        # (duplicate ledger entry) and finishes one checkpoint short.
        now = self._sim.now
        self.counters["checkpoints"] += 1
        assert self._checkpoint_every_ns is not None
        self._queue_checkpoint(now + self._checkpoint_every_ns)
        checkpoint = self.take_checkpoint()
        self.ledger.append(("checkpoint", now, checkpoint.digest))


def resume(
    data: dict,
    dps: DeadlinePartitioningScheme,
    registry: RngRegistry,
    config: ChurnConfig,
) -> AdmissionService:
    """Restart a service from a checkpoint, mid-stream.

    ``registry`` and ``config`` must match the original service's (they
    are code-level configuration; the checkpoint only carries the
    generators' *positions*). The resumed service's ledger starts empty
    -- its entries are the uninterrupted run's suffix from the
    checkpoint instant onward, byte for byte.
    """
    if data.get("version") != SERVICE_CHECKPOINT_VERSION:
        raise ConfigurationError(
            f"service checkpoint version {data.get('version')!r} is not "
            f"supported (this build reads {SERVICE_CHECKPOINT_VERSION})"
        )
    controller = persistence.restore(data["admission"], dps)
    churn = ChurnProcess(registry, config)
    churn.import_state(data["churn"])
    service = AdmissionService(
        controller,
        churn,
        checkpoint_every_ns=data.get("checkpoint_every_ns"),
    )
    service._started = True
    for at, channel_id in data.get("departures", ()):
        service._queue_departure(int(at), int(channel_id))
    next_arrival = data.get("next_arrival_at")
    if next_arrival is not None:
        service._queue_arrival(int(next_arrival))
    next_checkpoint = data.get("next_checkpoint_at")
    if next_checkpoint is not None and service._checkpoint_every_ns:
        service._queue_checkpoint(int(next_checkpoint))
    for key, count in data.get("counters", {}).items():
        if key in service.counters:
            service.counters[key] = int(count)
    return service
