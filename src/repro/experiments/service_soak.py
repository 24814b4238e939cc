"""EXP-X4: long-lived service soak with kill-and-resume under loss.

The headline scenario of the resident-service work: a two-switch
shared-link fabric runs a churn workload at 20% control-frame loss;
midway the whole process is killed and restarted from its latest
checkpoint. The experiment then checks, against an uninterrupted
reference run of the same seed:

* the decision ledger (announce/commit/abort/reject/depart stream) is
  **byte-identical** -- prefix from the killed run, suffix from the
  resumed one;
* the final coordinator states (committed trunk views, versions,
  dedup sets) are byte-identical;
* after quiescence, the invariant monitor finds **zero double-booked
  shared links** and the per-switch trunk views have converged;
* **zero leaked reservations** -- every access-link entry belongs to a
  live channel or an unresolved intent.

A single-switch :class:`~repro.service.service.AdmissionService`
kill-and-resume rides along as a second determinism gate exercising the
schema-v2 persistence path (snapshot -> restore -> identical decision
stream).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..core.admission import AdmissionController, SystemState
from ..core.partitioning import SymmetricDPS
from ..errors import ConfigurationError
from ..faults.plan import FaultPlan
from ..obs.monitor import InvariantMonitor
from ..service import (
    AdmissionService,
    ChurnConfig,
    ChurnProcess,
    SharedLinkFabric,
    resume,
)
from ..sim.rng import RngRegistry

__all__ = ["ServiceSoakResult", "run_service_soak"]


@dataclass(slots=True)
class ServiceSoakResult:
    """Everything EXP-X4 measured, plus the pass/fail verdict."""

    duration_ns: int
    loss: float
    kill_at_ns: int
    seed: int
    fabric_counters: dict = field(default_factory=dict)
    fabric_ledger_len: int = 0
    fabric_ledger_identical: bool = False
    fabric_state_identical: bool = False
    views_converged: bool = False
    double_bookings: int = 0
    leaked_reservations: int = 0
    service_ledger_identical: bool = False
    service_state_identical: bool = False
    anomalies: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.fabric_ledger_identical
            and self.fabric_state_identical
            and self.views_converged
            and self.double_bookings == 0
            and self.leaked_reservations == 0
            and self.service_ledger_identical
            and self.service_state_identical
        )

    def summary(self) -> str:
        lines = [
            "EXP-X4 service soak "
            f"(duration {self.duration_ns} ns, loss {self.loss:.0%}, "
            f"kill at {self.kill_at_ns} ns, seed {self.seed})",
            f"  fabric: {self.fabric_counters.get('arrivals', 0)} arrivals, "
            f"{self.fabric_counters.get('commits', 0)} commits, "
            f"{self.fabric_counters.get('aborts', 0)} aborts, "
            f"{self.fabric_counters.get('retransmissions', 0)} "
            f"retransmissions, "
            f"{self.fabric_counters.get('reconciliations', 0)} "
            f"reconciliations",
            f"  kill-and-resume ledger identical: "
            f"{self.fabric_ledger_identical}",
            f"  final coordinator state identical: "
            f"{self.fabric_state_identical}",
            f"  trunk views converged: {self.views_converged}",
            f"  double-booked shared links: {self.double_bookings}",
            f"  leaked reservations: {self.leaked_reservations}",
            f"  single-switch service resume identical: "
            f"ledger={self.service_ledger_identical} "
            f"state={self.service_state_identical}",
            f"  verdict: {'PASS' if self.ok else 'FAIL'}",
        ]
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "experiment": "EXP-X4",
            "duration_ns": self.duration_ns,
            "loss": self.loss,
            "kill_at_ns": self.kill_at_ns,
            "seed": self.seed,
            "fabric_counters": dict(self.fabric_counters),
            "fabric_ledger_len": self.fabric_ledger_len,
            "fabric_ledger_identical": self.fabric_ledger_identical,
            "fabric_state_identical": self.fabric_state_identical,
            "views_converged": self.views_converged,
            "double_bookings": self.double_bookings,
            "leaked_reservations": self.leaked_reservations,
            "service_ledger_identical": self.service_ledger_identical,
            "service_state_identical": self.service_state_identical,
            "anomalies": list(self.anomalies),
            "ok": self.ok,
        }


def _plan(seed: int, loss: float) -> FaultPlan | None:
    """The soak's control-loss plan, or none for a loss of 0.

    Every other loss, negative and NaN included, goes to the plan,
    which rejects it unless it lies in [0, 1).
    """
    return FaultPlan.control_loss(loss, seed=seed) if loss else None


def _fabric(seed: int, loss: float, checkpoint_every_ns: int) -> SharedLinkFabric:
    return SharedLinkFabric(
        n_switches=2,
        nodes_per_switch=4,
        seed=seed,
        fault_plan=_plan(seed, loss),
        checkpoint_every_ns=checkpoint_every_ns,
    )


def _coordinator_states(fabric: SharedLinkFabric) -> list[dict]:
    return json.loads(
        json.dumps([c.export_state() for c in fabric.coordinators])
    )


def run_service_soak(
    duration_ns: int = 120_000_000,
    seed: int = 2004,
    *,
    loss: float = 0.2,
    kill_at_ns: int | None = None,
    checkpoint_every_ns: int = 10_000_000,
) -> ServiceSoakResult:
    """Run EXP-X4 and return its result record."""
    if duration_ns <= 0:
        raise ConfigurationError(
            f"duration_ns must be positive, got {duration_ns}"
        )
    if kill_at_ns is None:
        kill_at_ns = duration_ns // 2
    if not (0 < kill_at_ns < duration_ns):
        raise ConfigurationError(
            f"kill_at_ns must fall inside the soak, got {kill_at_ns} "
            f"of {duration_ns}"
        )
    if checkpoint_every_ns > kill_at_ns:
        raise ConfigurationError(
            "kill point precedes the first checkpoint; nothing to resume"
        )
    result = ServiceSoakResult(
        duration_ns=duration_ns,
        loss=loss,
        kill_at_ns=kill_at_ns,
        seed=seed,
    )

    # -- fabric: uninterrupted reference -----------------------------------
    reference = _fabric(seed, loss, checkpoint_every_ns)
    reference.start()
    reference.run_until(duration_ns)

    # -- fabric: kill at kill_at_ns, resume from the latest checkpoint -----
    victim = _fabric(seed, loss, checkpoint_every_ns)
    victim.start()
    victim.run_until(kill_at_ns)
    checkpoint = json.loads(json.dumps(victim.checkpoints[-1]))
    resumed = SharedLinkFabric.resume(
        checkpoint,
        fault_plan=_plan(seed, loss),
        checkpoint_every_ns=checkpoint_every_ns,
    )
    resumed.run_until(duration_ns)

    prefix = victim.ledger[: checkpoint["ledger_len"]]
    reconstructed = [list(e) for e in prefix] + [
        list(e) for e in resumed.ledger
    ]
    result.fabric_ledger_len = len(reference.ledger)
    result.fabric_ledger_identical = (
        [list(e) for e in reference.ledger] == reconstructed
    )
    result.fabric_state_identical = _coordinator_states(
        reference
    ) == _coordinator_states(resumed)
    result.fabric_counters = dict(resumed.counters)

    # -- quiesce the resumed fabric and gate the invariants ----------------
    resumed.quiesce()
    monitor = InvariantMonitor()
    monitor.check_shared_links(
        resumed, resumed.now, require_converged=True
    )
    result.anomalies = list(monitor.anomalies)
    result.double_bookings = sum(
        1
        for a in monitor.anomalies
        if a["invariant"] == "shared-link-double-book"
    )
    result.views_converged = not any(
        a["invariant"] == "shared-link-divergence" for a in monitor.anomalies
    )
    result.leaked_reservations = len(resumed.leaked_reservations())

    # -- single-switch service determinism gate ----------------------------
    nodes = tuple(f"m{i}" for i in range(6))
    config = ChurnConfig(nodes=nodes)

    def build_service() -> AdmissionService:
        controller = AdmissionController(SystemState(nodes), SymmetricDPS())
        churn = ChurnProcess(RngRegistry(seed), config)
        return AdmissionService(
            controller, churn, checkpoint_every_ns=checkpoint_every_ns
        )

    svc_ref = build_service()
    svc_ref.start()
    svc_ref.run_until(duration_ns)

    svc_victim = build_service()
    svc_victim.start()
    svc_victim.run_until(kill_at_ns)
    svc_cp = svc_victim.last_checkpoint
    assert svc_cp is not None  # guaranteed by the kill/checkpoint guard
    svc_resumed = resume(
        json.loads(json.dumps(svc_cp.data)),
        SymmetricDPS(),
        RngRegistry(seed),
        config,
    )
    svc_resumed.run_until(duration_ns)
    svc_prefix = svc_victim.ledger[: svc_cp.data["ledger_len"] + 1]
    result.service_ledger_identical = [
        list(e) for e in svc_ref.ledger
    ] == [list(e) for e in svc_prefix] + [
        list(e) for e in svc_resumed.ledger
    ]
    result.service_state_identical = (
        svc_ref.final_state_json() == svc_resumed.final_state_json()
    )
    return result
