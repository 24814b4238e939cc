"""EXP-R1/EXP-R2: behaviour outside the paper's model (fault injection).

The paper's guarantee assumes error-free wires and synchronized
critical-instant analysis. Three robustness questions a deployer asks:

1. **Random phases** -- real stations are not released synchronously.
   The critical instant is the provable worst case, so random phases
   must also be miss-free (and typically show *lower* worst-case
   delays). :func:`run_phase_robustness` checks this.
2. **Frame loss** -- with corrupted frames the guarantee degrades from
   "every message within the bound" to "every *delivered* frame within
   the bound"; messages lose fragments but never arrive late.
   :func:`run_loss_robustness` installs a :class:`FaultPlan` whose
   ``corruption`` drops every wire arrival with the loss rate, and
   verifies exactly that degradation: completeness suffers in
   proportion to the loss rate, timeliness does not.
3. **Signalling loss** (EXP-R2) -- the handshake of Figures 18.3/18.4
   is stateful, so losing a control frame is worse than losing a data
   frame: a naive implementation strands reservations at the switch or
   crashes on duplicates. :func:`run_signal_loss_robustness` drops a
   hard fraction of *every* signalling class and checks the liveness
   contract of the retry/lease/idempotence machinery: every requested
   channel is eventually established or cleanly rejected, and when the
   dust settles the switch's admission state matches the surviving
   grants exactly -- zero leaked reservations.

All are extensions (no paper counterpart) and are labelled as such in
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.partitioning import AsymmetricDPS
from ..errors import ConfigurationError
from ..faults import FaultPlan
from ..network.topology import build_star
from ..protocol.signaling import ConnectionRequestState, RetryPolicy
from ..sim.rng import RngRegistry
from ..traffic.patterns import master_slave_names, master_slave_requests
from ..traffic.spec import FixedSpecSampler

__all__ = [
    "PhaseRobustnessReport",
    "LossRobustnessReport",
    "SignalLossReport",
    "SIGNAL_RETRY_POLICY",
    "run_phase_robustness",
    "run_loss_robustness",
    "run_signal_loss_robustness",
]


@dataclass(frozen=True, slots=True)
class PhaseRobustnessReport:
    """Critical-instant vs random-phase comparison."""

    channels_admitted: int
    synchronous_misses: int
    random_misses: int
    synchronous_worst_delay_ns: int
    random_worst_delay_ns: int

    @property
    def holds(self) -> bool:
        return self.synchronous_misses == 0 and self.random_misses == 0

    @property
    def critical_instant_is_worst(self) -> bool:
        """Random phases never exceed the synchronous worst case."""
        return self.random_worst_delay_ns <= self.synchronous_worst_delay_ns


@dataclass(frozen=True, slots=True)
class LossRobustnessReport:
    """Timeliness vs completeness under Bernoulli frame loss."""

    loss_rate: float
    frames_sent: int
    frames_delivered: int
    frames_lost_on_wires: int
    messages_expected: int
    messages_completed: int
    deadline_misses: int

    @property
    def delivery_ratio(self) -> float:
        if self.frames_sent == 0:
            return 1.0
        return self.frames_delivered / self.frames_sent

    @property
    def timeliness_preserved(self) -> bool:
        """Every frame that did arrive met its deadline bound."""
        return self.deadline_misses == 0


@dataclass(frozen=True, slots=True)
class SignalLossReport:
    """EXP-R2: the signalling plane under targeted control-frame loss.

    The liveness contract under loss (:attr:`ok`) is: every request
    resolves (granted or rejected, never abandoned), and after the
    teardown phase the switch holds *exactly* the reservations of the
    surviving grants -- no stranded pending offers, no leaked admission
    capacity, schedules consistent with the active channel set.
    """

    loss_rate: float
    seed: int
    requests: int
    granted: int
    rejected: int
    timed_out: int
    torn_down: int
    #: signalling frames the fault plan destroyed on the wires.
    signalling_drops: int
    #: RequestFrame retransmissions across all source nodes.
    retries: int
    #: duplicate/stale signalling frames absorbed (nodes + switch).
    stale_absorbed: int
    #: retransmitted requests the switch answered without re-admission.
    duplicate_requests: int
    #: reservations the switch reclaimed on lease expiry.
    lease_reclaims: int
    #: offers still awaiting a destination response after the run drained.
    pending_offers: int
    #: symmetric difference between installed reservations and the
    #: surviving grants (must be zero).
    leaked_reservations: int
    #: every per-link EDF task belongs to an active channel.
    schedules_consistent: bool

    @property
    def resolved(self) -> int:
        return self.granted + self.rejected

    @property
    def ok(self) -> bool:
        return (
            self.timed_out == 0
            and self.pending_offers == 0
            and self.leaked_reservations == 0
            and self.schedules_consistent
        )

    def summary(self) -> str:
        verdict = "OK" if self.ok else "LEAK/LIVENESS FAILURE"
        return (
            f"EXP-R2 signalling loss at {self.loss_rate:.0%} (seed "
            f"{self.seed}): {self.resolved}/{self.requests} requests "
            f"resolved ({self.granted} granted, {self.rejected} rejected, "
            f"{self.timed_out} timed out) despite {self.signalling_drops} "
            f"control frames lost; {self.retries} retransmissions, "
            f"{self.duplicate_requests} duplicates re-answered, "
            f"{self.stale_absorbed} stale frames absorbed, "
            f"{self.lease_reclaims} leases reclaimed; "
            f"{self.torn_down} channels torn down -> "
            f"{self.pending_offers} pending offers, "
            f"{self.leaked_reservations} leaked reservations "
            f"[{verdict}]"
        )


#: EXP-R2's retransmission schedule (module-level so tests and the CLI
#: agree on the same deterministic run): first retry after 3 ms, x1.5
#: backoff with +/-25% jitter, capped at 40 ms, up to 12 retransmissions.
#: Total horizon ~0.3 s of sim time -- comfortably inside the switch's
#: 1 s re-answer cache, so every retransmission of an already-decided
#: request is answered from cache instead of re-running admission.
SIGNAL_RETRY_POLICY = RetryPolicy(
    timeout_ns=3_000_000,
    max_retries=12,
    backoff=1.5,
    jitter=0.25,
    max_timeout_ns=40_000_000,
)


def _admitted_network(n_masters, n_slaves, n_requests, seed, **net_kwargs):
    masters, slaves = master_slave_names(n_masters, n_slaves)
    net = build_star(masters + slaves, dps=AsymmetricDPS(), **net_kwargs)
    rng = RngRegistry(seed).stream("robustness-requests")
    requests = master_slave_requests(
        masters, slaves, n_requests, FixedSpecSampler.paper_default(), rng
    )
    for request in requests:
        net.establish_analytically(
            request.source, request.destination, request.spec
        )
    return net


def run_phase_robustness(
    n_masters: int = 4,
    n_slaves: int = 12,
    n_requests: int = 40,
    messages: int = 6,
    seed: int = 808,
) -> PhaseRobustnessReport:
    """Run the same admitted set synchronously and with random phases."""
    if messages <= 0:
        raise ConfigurationError(f"messages must be positive: {messages}")
    sync_net = _admitted_network(n_masters, n_slaves, n_requests, seed)
    sync_net.start_all_sources(stop_after_messages=messages)
    sync_net.sim.run()

    rand_net = _admitted_network(n_masters, n_slaves, n_requests, seed)
    phase_rng = RngRegistry(seed).stream("phases")
    rand_net.start_all_sources(
        stop_after_messages=messages, random_phases_rng=phase_rng
    )
    rand_net.sim.run()

    return PhaseRobustnessReport(
        channels_admitted=len(sync_net.grants),
        synchronous_misses=sync_net.metrics.total_deadline_misses,
        random_misses=rand_net.metrics.total_deadline_misses,
        synchronous_worst_delay_ns=sync_net.metrics.worst_rt_delay_ns,
        random_worst_delay_ns=rand_net.metrics.worst_rt_delay_ns,
    )


def run_loss_robustness(
    loss_rate: float = 0.01,
    n_masters: int = 4,
    n_slaves: int = 12,
    n_requests: int = 40,
    messages: int = 10,
    seed: int = 909,
) -> LossRobustnessReport:
    """Inject Bernoulli frame loss and separate timeliness from loss."""
    if not (0.0 <= loss_rate < 1.0):
        raise ConfigurationError(f"loss_rate must be in [0,1): {loss_rate}")
    net = _admitted_network(
        n_masters,
        n_slaves,
        n_requests,
        seed,
        fault_plan=FaultPlan(seed=seed, corruption=loss_rate),
    )
    net.start_all_sources(stop_after_messages=messages)
    net.sim.run()
    frames_sent = sum(
        grant.spec.capacity * messages for grant in net.grants
    )
    lost = sum(
        node.uplink.link.frames_lost
        for node in net.nodes.values()
        if node.uplink is not None
    ) + sum(
        port.link.frames_lost for port in net.switch.ports.values()
    )
    return LossRobustnessReport(
        loss_rate=loss_rate,
        frames_sent=frames_sent,
        frames_delivered=net.metrics.total_rt_frames,
        frames_lost_on_wires=lost,
        messages_expected=len(net.grants) * messages,
        messages_completed=net.metrics.total_rt_messages,
        deadline_misses=net.metrics.total_deadline_misses,
    )


def run_signal_loss_robustness(
    loss_rate: float = 0.2,
    n_masters: int = 3,
    n_slaves: int = 9,
    n_requests: int = 40,
    teardown_fraction: float = 0.5,
    seed: int = 808,
    retry: RetryPolicy | None = None,
    lease_ns: int = 25_000_000,
    telemetry=None,
) -> SignalLossReport:
    """EXP-R2: run the full wire handshake under signalling-frame loss.

    Every one of the five control-plane classes (request, offer,
    destination response, final response, teardown) is dropped with
    probability ``loss_rate`` by a deterministic :class:`FaultPlan`;
    RT data is untouched, isolating the signalling machinery. Requests
    are issued sequentially over the simulated wires with
    :data:`SIGNAL_RETRY_POLICY` retransmission, then
    ``teardown_fraction`` of the granted channels is released (each
    TeardownFrame sent 4 times -- loss must not strand the release).

    The report's :attr:`~SignalLossReport.ok` asserts the liveness and
    leak-freedom contract; see the class docstring.
    """
    if not (0.0 <= loss_rate < 1.0):
        raise ConfigurationError(f"loss_rate must be in [0,1): {loss_rate}")
    if not (0.0 <= teardown_fraction <= 1.0):
        raise ConfigurationError(
            f"teardown_fraction must be in [0,1]: {teardown_fraction}"
        )
    retry = retry or SIGNAL_RETRY_POLICY
    retry_rng = RngRegistry(seed).stream("signal-retry-jitter")
    plan = FaultPlan.signalling_loss(loss_rate, seed=seed)
    masters, slaves = master_slave_names(n_masters, n_slaves)
    net = build_star(
        masters + slaves,
        dps=AsymmetricDPS(),
        fault_plan=plan,
        signal_lease_ns=lease_ns,
        telemetry=telemetry,
    )
    for node in net.nodes.values():
        node.teardown_repeats = 4

    request_rng = RngRegistry(seed).stream("robustness-requests")
    outcomes: list[tuple[object, object]] = []
    for request in master_slave_requests(
        masters, slaves, n_requests,
        FixedSpecSampler.paper_default(), request_rng,
    ):
        destination = net.node(request.destination)
        net.node(request.source).request_channel(
            destination_mac=destination.mac,
            destination_ip=destination.ip,
            destination_name=request.destination,
            spec=request.spec,
            on_complete=lambda record, grant: outcomes.append(
                (record, grant)
            ),
            retry=retry,
            retry_rng=retry_rng,
        )
        net.sim.run()

    grants = [
        grant
        for record, grant in outcomes
        if record.state is ConnectionRequestState.ACCEPTED
        and grant is not None
    ]
    rejected = sum(
        1 for record, _ in outcomes
        if record.state is ConnectionRequestState.REJECTED
    )
    timed_out = sum(
        1 for record, _ in outcomes
        if record.state is ConnectionRequestState.TIMED_OUT
    )

    torn = [
        grant.channel_id
        for grant in grants[: round(len(grants) * teardown_fraction)]
    ]
    for grant in grants[: len(torn)]:
        net.node(grant.source).teardown_channel(grant.channel_id)
    net.sim.run()

    expected_active = {g.channel_id for g in grants} - set(torn)
    installed = set(net.admission.state.channels.keys())
    leaked = len(installed ^ expected_active)
    state = net.admission.state
    schedules_consistent = all(
        task.channel_id in expected_active
        for link in state.occupied_links()
        for task in state.tasks_on(link)
    )

    manager = net.switch.manager
    stale = manager.stale_frames + sum(
        node.signal_stale_frames for node in net.nodes.values()
    )
    return SignalLossReport(
        loss_rate=loss_rate,
        seed=seed,
        requests=len(outcomes),
        granted=len(grants),
        rejected=rejected,
        timed_out=timed_out,
        torn_down=len(torn),
        signalling_drops=plan.signalling_drops(),
        retries=sum(n.signal_retries for n in net.nodes.values()),
        stale_absorbed=stale,
        duplicate_requests=manager.duplicate_requests,
        lease_reclaims=manager.lease_reclaims,
        pending_offers=manager.pending_offers,
        leaked_reservations=leaked,
        schedules_consistent=schedules_consistent,
    )
