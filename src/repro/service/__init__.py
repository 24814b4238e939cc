"""Resident admission service: churn, checkpoints, and coordination.

The paper's switch is a *resident* admission authority -- channels
arrive and depart continuously while the switch keeps the system state
``{N, K}`` consistent forever (Section 18.4). Every experiment before
this package was a batch sweep; here the admission machinery runs as a
long-lived process inside the simulation kernel:

* :class:`~repro.service.churn.ChurnProcess` -- seeded Poisson-like
  arrival/departure streams with bounded holding times, drawn from
  :class:`~repro.sim.rng.RngRegistry` named streams so a run is
  byte-identical at any worker count;
* :class:`~repro.service.service.AdmissionService` -- the resident
  service: periodic snapshot checkpoints through the schema-v2
  persistence path and :func:`~repro.service.service.resume` that
  restarts mid-stream with a decision stream byte-identical to the
  never-restarted run;
* :class:`~repro.service.intent.SharedLinkFabric` -- multi-switch
  coordination: an announce-wait-commit **intent lock** over shared
  links (deterministic ``(priority, switch MAC, seq)`` tie-break,
  loss-tolerant retransmission of every leg) plus periodic and
  threshold-triggered gossip of per-link occupancy digests (under
  control loss the views do not reliably reconverge; see the
  :mod:`~repro.service.intent` docstring).
"""

from .churn import ChurnConfig, ChurnProcess
from .service import AdmissionService, ServiceCheckpoint, resume
from .intent import IntentCoordinator, SharedLinkFabric

__all__ = [
    "ChurnConfig",
    "ChurnProcess",
    "AdmissionService",
    "ServiceCheckpoint",
    "resume",
    "IntentCoordinator",
    "SharedLinkFabric",
]
