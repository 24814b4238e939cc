"""Topology builders: wire nodes, switch, links and ports to a kernel.

:func:`build_star` assembles the paper's network (Figure 18.1): one
switch, N end nodes, one full-duplex link per node. The returned
:class:`StarNetwork` owns every component and offers the high-level
operations experiments use:

* :meth:`StarNetwork.establish` -- run the complete signalling handshake
  through the simulated network and return the grant (or ``None`` on
  rejection);
* :meth:`StarNetwork.establish_analytically` -- skip the wire protocol
  and ask admission control directly (what the Figure 18.5 acceptance
  experiments need: thousands of requests with no data plane);
* address bookkeeping (MAC/IP assignment and directory registration).

Multi-switch *analysis* (the paper's future-work extension) lives in
:mod:`repro.multiswitch`; this module only builds the single-switch
data-plane network the paper evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..analysis.metrics import MetricsCollector
from ..core.admission import AdmissionController, SystemState
from ..core.channel import ChannelSpec
from ..core.channel_manager import NodeDirectory
from ..core.partitioning import DeadlinePartitioningScheme, SymmetricDPS
from ..core.rt_layer import ChannelGrant
from ..errors import TopologyError
from ..multiswitch.graph import address_pass, build_star_graph
from ..protocol.ethernet import reset_frame_ids
from ..protocol.signaling import DestinationPolicy, RetryPolicy, accept_all
from ..sim.kernel import Simulator
from ..sim.trace import Observer, TraceRecorder
from .link import HalfLink
from .node import EndNode, SWITCH_NAME
from .phy import PhyProfile
from .port import OutputPort
from .switch import Switch

__all__ = ["StarNetwork", "build_star"]

#: The switch's own MAC; end-node MAC/IP assignment is the address
#: pass of the graph builder (``MAC_BASE + i + 1`` / ``IP_BASE + i``
#: in name order -- see :func:`repro.multiswitch.graph.address_pass`).
_SWITCH_MAC = 0x02_FF_FF_FF_FF_FF


@dataclass
class StarNetwork:
    """A fully wired star network plus its bookkeeping objects."""

    sim: Simulator
    phy: PhyProfile
    metrics: MetricsCollector
    switch: Switch
    nodes: dict[str, EndNode]
    admission: AdmissionController
    directory: NodeDirectory
    trace: TraceRecorder
    grants: list[ChannelGrant] = field(default_factory=list)
    rejections: int = 0
    #: the telemetry bundle this network reports into (None = none).
    telemetry: object | None = None

    def node(self, name: str) -> EndNode:
        node = self.nodes.get(name)
        if node is None:
            raise TopologyError(f"no node named {name!r} in this network")
        return node

    # -- channel establishment ------------------------------------------------

    def establish(
        self,
        source: str,
        destination: str,
        spec: ChannelSpec,
        retry: RetryPolicy | None = None,
        retry_rng=None,
    ) -> ChannelGrant | None:
        """Run the full Request/Response handshake on the simulated wire.

        Drains the event queue (the paper establishes channels before
        any real-time traffic flows, so there is nothing else in flight
        during the handshake unless the caller started sources early --
        in that case events interleave correctly anyway).

        Returns the grant on acceptance, ``None`` on rejection or (with
        ``retry`` set, for lossy networks) on timeout. ``retry`` is the
        request's timer (``RetryPolicy(timeout_ns=T)`` gives up once,
        ``T`` after the send; ``max_retries`` adds retransmissions with
        backoff) and ``retry_rng`` its jitter stream (see
        :meth:`EndNode.request_channel`).
        """
        src = self.node(source)
        dst = self.node(destination)
        result: list[ChannelGrant | None] = []

        def on_complete(request, grant) -> None:
            result.append(grant)

        src.request_channel(
            destination_mac=dst.mac,
            destination_ip=dst.ip,
            destination_name=destination,
            spec=spec,
            on_complete=on_complete,
            retry=retry,
            retry_rng=retry_rng,
        )
        self.sim.run()
        if not result:
            raise TopologyError(
                "handshake did not complete: the simulator drained without "
                "a final response -- on lossy networks pass "
                "retry=RetryPolicy(timeout_ns=...) so lost signalling "
                "frames resolve to a timed-out request"
            )
        grant = result[0]
        if grant is None:
            self.rejections += 1
        else:
            self.grants.append(grant)
        return grant

    def establish_analytically(
        self, source: str, destination: str, spec: ChannelSpec
    ) -> ChannelGrant | None:
        """Admission decision without the wire protocol (no simulation).

        Used by the acceptance-count experiments: the outcome is
        identical to :meth:`establish` with the default accept-all
        destination policy, because the handshake adds no admission
        logic -- only signalling latency.
        """
        decision = self.admission.request(source, destination, spec)
        if not decision.accepted:
            self.rejections += 1
            return None
        channel = decision.channel
        grant = ChannelGrant(
            channel_id=channel.channel_id,
            source=channel.source,
            destination=channel.destination,
            spec=channel.spec,
            uplink_deadline_slots=channel.uplink_deadline,
        )
        self.node(source).rt_layer.install_grant(grant)
        self.node(destination).incoming_channels[channel.channel_id] = (
            spec.capacity
        )
        self.metrics.register_channel(channel.channel_id, spec.capacity)
        self.grants.append(grant)
        return grant

    # -- convenience --------------------------------------------------------------

    def start_all_sources(
        self,
        stop_after_messages: int | None = None,
        random_phases_rng=None,
    ) -> None:
        """Start a periodic source for every granted channel.

        By default all sources release their first message at the *same*
        instant -- the critical instant of the feasibility analysis,
        i.e. the provably worst case. Passing ``random_phases_rng``
        instead staggers each source by a uniform phase within its own
        period, modelling unsynchronized stations; any schedule that
        survives the critical instant must also survive this, which the
        validation experiments check.
        """
        for grant in self.grants:
            phase_ns = 0
            if random_phases_rng is not None:
                period_ns = grant.spec.period * self.phy.slot_ns
                phase_ns = int(random_phases_rng.integers(0, period_ns))
            self.node(grant.source).start_periodic_source(
                grant.channel_id,
                stop_after_messages=stop_after_messages,
                phase_ns=phase_ns,
            )

    def run_slots(self, slots: int) -> None:
        """Advance the simulation by a whole number of timeslots."""
        self.sim.run(until=self.sim.now + slots * self.phy.slot_ns)


def build_star(
    node_names: Sequence[str],
    dps: DeadlinePartitioningScheme | None = None,
    phy: PhyProfile | None = None,
    destination_policy: DestinationPolicy = accept_all,
    be_buffer_frames: int | None = 512,
    trace_enabled: bool = False,
    record_delays: bool = False,
    telemetry=None,
    fault_plan=None,
    signal_lease_ns: int | None = 50_000_000,
) -> StarNetwork:
    """Build the paper's star network, fully wired and ready to run.

    Parameters
    ----------
    node_names:
        End-node names; duplicates are rejected. MAC and IP addresses
        are assigned deterministically from the ordering.
    dps:
        The deadline-partitioning scheme for admission control
        (default: SDPS, the paper's baseline).
    phy:
        Timing profile (default: 100 Mbps fast Ethernet).
    destination_policy:
        Accept/decline policy installed on *every* node.
    be_buffer_frames:
        Finite best-effort buffer per output port (None = unbounded).
    trace_enabled:
        Record detailed traces (debugging; costs memory).
    telemetry:
        Optional :class:`~repro.obs.Telemetry` bundle. When given, its
        recorder becomes the network's trace (``trace_enabled`` is
        ignored) and its span tracker joins the recorder in the one
        :class:`~repro.sim.trace.Observer` every component reports to,
        and the network's counters, delays and probes are wired in
        (:meth:`~repro.obs.bundle.Telemetry.instrument_star`).
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan`, installed on every
        wire: the network's only source of frame loss, targeted
        control-plane loss (EXP-R2) or indiscriminate corruption
        (EXP-R1). None (the default) keeps the paper's error-free wires.
    signal_lease_ns:
        Reservation-lease duration at the switch (default 50 ms). On
        error-free wires every lease timer is cancelled when its offer
        resolves, so the default costs nothing and changes no observable
        behaviour; under loss it bounds how long a stranded reservation
        can hold admission capacity. ``None`` disables leases and the
        switch's duplicate-frame tolerance entirely (the pre-lease,
        paper-exact state machine).
    """
    names = list(node_names)
    if not names:
        raise TopologyError("a star network needs at least one end node")
    if len(set(names)) != len(names):
        raise TopologyError(f"duplicate node names in {names!r}")
    if SWITCH_NAME in names:
        raise TopologyError(
            f"{SWITCH_NAME!r} is reserved for the switch itself"
        )
    # The star is the one-switch graph; the shared address pass assigns
    # every end node its deterministic MAC/IP (identical numbering to
    # what this builder has always produced).
    graph = build_star_graph(names, switch_name=SWITCH_NAME)
    addresses = address_pass(graph)

    reset_frame_ids()
    sim = Simulator()
    phy = phy or PhyProfile.fast_ethernet()
    if telemetry is not None:
        trace = telemetry.recorder
    else:
        trace = TraceRecorder(enabled=trace_enabled)
    obs = Observer.of(trace, None if telemetry is None else telemetry.spans)
    metrics = MetricsCollector(
        t_latency_ns=phy.t_latency_ns, record_delays=record_delays
    )
    directory = NodeDirectory()
    state = SystemState(nodes=names)
    admission = AdmissionController(
        state=state,
        dps=dps or SymmetricDPS(),
    )
    switch = Switch(
        sim=sim,
        phy=phy,
        mac=_SWITCH_MAC,
        admission=admission,
        directory=directory,
        obs=obs,
        lease_ns=signal_lease_ns,
    )

    nodes: dict[str, EndNode] = {}
    for name in graph.node_order:
        address = addresses[name]
        mac = address.mac
        ip = address.ip
        directory.register(name, mac=mac, ip=ip)
        node = EndNode(
            sim=sim,
            phy=phy,
            name=name,
            mac=mac,
            ip=ip,
            switch_mac=_SWITCH_MAC,
            metrics=metrics,
            destination_policy=destination_policy,
            obs=obs,
        )
        nodes[name] = node

        # uplink: node -> switch
        up_wire = HalfLink(
            sim=sim,
            phy=phy,
            name=f"{name}->switch",
            deliver=switch.receive,
            obs=obs,
            fault_plan=fault_plan,
        )
        up_port = OutputPort(
            sim=sim,
            phy=phy,
            link=up_wire,
            name=f"uplink:{name}",
            be_buffer_frames=be_buffer_frames,
            on_rt_complete=metrics.on_uplink_complete,
            obs=obs,
        )
        node.attach_uplink(up_port)

        # downlink: switch -> node
        down_wire = HalfLink(
            sim=sim,
            phy=phy,
            name=f"switch->{name}",
            deliver=node.receive,
            obs=obs,
            fault_plan=fault_plan,
        )
        down_port = OutputPort(
            sim=sim,
            phy=phy,
            link=down_wire,
            name=f"downlink:{name}",
            be_buffer_frames=be_buffer_frames,
            obs=obs,
        )
        switch.attach_port(name, down_port)

    net = StarNetwork(
        sim=sim,
        phy=phy,
        metrics=metrics,
        switch=switch,
        nodes=nodes,
        admission=admission,
        directory=directory,
        trace=trace,
        telemetry=telemetry,
    )
    if telemetry is not None:
        telemetry.instrument_star(net)
    return net
