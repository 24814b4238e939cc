"""Simulated data plane for switch fabrics (extension, EXP-X2).

:mod:`repro.multiswitch.admission` answers the *analysis* question for
switch graphs; this module closes the loop the way EXP-V1 does for the
star: build the actual network -- every node, switch, wire and dual
queue -- drive admitted channels at the critical instant, and verify
that per-hop EDF really delivers within the end-to-end bound.

Model
-----
* **Every leaf is the star's station**, a
  :class:`~repro.network.node.EndNode` (RT layer stamping each frame's
  deadline, EDF uplink queue), addressed by
  :func:`~repro.multiswitch.graph.address_pass` exactly as
  :func:`~repro.network.topology.build_star` addresses its nodes.
* **Admission is centralized and analytical** (the paper's signalling
  protocol is defined for a single switch only; extending the wire
  protocol to fabrics is out of scope, so fabric leaves carry no
  signalling path). On acceptance the establishment installs the
  source's grant and, in every switch along the path, a forwarding
  entry ``channel -> (next hop, cumulative deadline offset)``.
* **Switches are** :class:`FabricSwitchModel`, **not the star's**
  :class:`~repro.network.switch.Switch`: the star switch reads the
  end-to-end deadline from the mangled header (the paper's point) and
  runs signalling, while a fabric switch needs a per-hop forwarding
  table. One class would have to branch on topology.
* **Per-hop EDF keys are cumulative**: a frame released at ``t`` is
  scheduled on hop ``j`` with absolute deadline
  ``t + (part_1 + ... + part_j) * slot``, the natural generalization of
  the star's ``release + d_iu`` / ``release + d`` pair.
* The guarantee bound generalizes Eq. 18.1:
  ``d_i * slot + T_latency(k)`` with
  ``T_latency(k) = k*propagation + (k-1)*processing + k*blocking``
  (:meth:`~repro.network.phy.PhyProfile.t_latency_hops_ns`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from ..analysis.metrics import MetricsCollector
from ..core.channel import ChannelSpec
from ..core.rt_layer import ChannelGrant
from ..errors import SimulationError
from ..network.link import HalfLink
from ..network.node import EndNode
from ..network.phy import PhyProfile
from ..network.port import OutputPort
from ..protocol.ethernet import EthernetFrame, FrameKind, reset_frame_ids
from ..sim.kernel import Simulator
from ..sim.trace import TraceRecorder
from .admission import MultiAdmissionDecision, MultiSwitchAdmission
from .graph import FabricGraph, address_pass
from .partitioning import MultiHopDPS, MultiHopProportional

__all__ = ["FabricSwitchModel", "FabricNetwork", "build_fabric_network"]


@dataclass(slots=True)
class _ForwardingEntry:
    """Per-switch routing state for one channel."""

    next_hop: str
    #: cumulative deadline (slots since release) after the *outgoing* hop.
    cumulative_deadline_slots: int
    #: the same offset in ns, added to each frame's release time.
    cumulative_deadline_ns: int
    #: miss-check slack of the outgoing hop: ``T_latency`` of the path
    #: prefix ending there (cascaded blocking plus the accumulated
    #: propagation/processing).
    allowance_ns: int


class FabricSwitchModel:
    """One switch of the fabric: ports to neighbours plus routing state."""

    def __init__(
        self,
        sim: Simulator,
        phy: PhyProfile,
        name: str,
        trace: TraceRecorder | None = None,
    ) -> None:
        self._sim = sim
        self._phy = phy
        self.name = name
        self._trace = trace if trace is not None else TraceRecorder(enabled=False)
        self._ports: dict[str, OutputPort] = {}
        self._forwarding: dict[int, _ForwardingEntry] = {}
        self.frames_forwarded = 0
        self.frames_dropped = 0
        self._process_label = f"{name}:process"
        #: optional SpanTracker (set by Telemetry.instrument_fabric).
        self.spans = None

    @property
    def ports(self) -> dict[str, OutputPort]:
        """Output ports keyed by neighbour name (copy)."""
        return dict(self._ports)

    def attach_port(self, neighbour: str, port: OutputPort) -> None:
        if neighbour in self._ports:
            raise SimulationError(
                f"switch {self.name!r} already has a port toward "
                f"{neighbour!r}"
            )
        self._ports[neighbour] = port

    def install_route(
        self,
        channel_id: int,
        next_hop: str,
        cumulative_deadline_slots: int,
        hop_index: int = 2,
    ) -> None:
        """Forward ``channel_id`` to ``next_hop``, the ``hop_index``-th
        (1-based) link of the channel's path."""
        if next_hop not in self._ports:
            raise SimulationError(
                f"switch {self.name!r} has no port toward {next_hop!r}"
            )
        self._forwarding[channel_id] = _ForwardingEntry(
            next_hop=next_hop,
            cumulative_deadline_slots=cumulative_deadline_slots,
            cumulative_deadline_ns=(
                cumulative_deadline_slots * self._phy.slot_ns
            ),
            allowance_ns=self._phy.t_latency_hops_ns(hop_index),
        )

    def remove_route(self, channel_id: int) -> None:
        self._forwarding.pop(channel_id, None)

    def receive(self, frame: EthernetFrame) -> None:
        """Frame fully arrived; route after the processing delay."""
        if self.spans is not None:
            now = self._sim.now
            self.spans.frame_processing(
                frame.frame_id, now, now + self._phy.switch_processing_ns,
                self.name,
            )
        self._sim.schedule(
            self._phy.switch_processing_ns,
            partial(self._forward, frame),
            self._process_label,
        )

    def _forward(self, frame: EthernetFrame) -> None:
        if frame.kind is not FrameKind.RT_DATA:
            # The fabric data plane models RT channels only; best-effort
            # routing over trees is out of this extension's scope.
            self.frames_dropped += 1
            if self.spans is not None:
                self.spans.frame_dropped(
                    frame.frame_id, self._sim.now, self.name
                )
            if self._trace.enabled_for("fabric.drop"):
                self._trace.record(
                    self._sim.now, "fabric.drop", self.name, frame.describe(),
                    fields={"reason": "non-rt"},
                )
            return
        entry = self._forwarding.get(frame.channel_id)
        if entry is None:
            self.frames_dropped += 1
            if self.spans is not None:
                self.spans.frame_dropped(
                    frame.frame_id, self._sim.now, self.name
                )
            if self._trace.enabled_for("fabric.drop"):
                self._trace.record(
                    self._sim.now, "fabric.drop", self.name, frame.describe(),
                    fields={"reason": "unknown-channel",
                            "channel": frame.channel_id},
                )
            return
        self._ports[entry.next_hop].submit_rt(
            frame,
            frame.created_at + entry.cumulative_deadline_ns,
            allowance_ns=entry.allowance_ns,
        )
        self.frames_forwarded += 1


class FabricNetwork:
    """A fully wired multi-switch network with centralized admission."""

    def __init__(
        self,
        fabric: FabricGraph,
        admission: MultiSwitchAdmission,
        phy: PhyProfile,
        trace_enabled: bool = False,
        record_delays: bool = False,
        telemetry=None,
    ) -> None:
        fabric.validate_connected()
        self.fabric = fabric
        self.admission = admission
        self.phy = phy
        self.telemetry = telemetry
        reset_frame_ids()
        self.sim = Simulator()
        if telemetry is not None:
            self.trace = telemetry.recorder
        else:
            self.trace = TraceRecorder(enabled=trace_enabled)
        self.metrics = MetricsCollector(
            t_latency_ns=phy.t_latency_hops_ns(self._max_hop_count()),
            record_delays=record_delays,
        )
        self.switches: dict[str, FabricSwitchModel] = {}
        self.nodes: dict[str, EndNode] = {}
        self.channels: list[MultiAdmissionDecision] = []
        self._wire_everything()
        if telemetry is not None:
            telemetry.instrument_fabric(self)

    # -- construction ------------------------------------------------------

    def _max_hop_count(self) -> int:
        nodes = sorted(self.fabric.nodes)
        worst = 2
        for i, a in enumerate(nodes):
            for b in nodes[i + 1 :]:
                worst = max(worst, self.fabric.hop_count(a, b))
        return worst

    def _wire_everything(self) -> None:
        for switch_name in sorted(self.fabric.switches):
            self.switches[switch_name] = FabricSwitchModel(
                sim=self.sim, phy=self.phy, name=switch_name,
                trace=self.trace,
            )
        addresses = address_pass(self.fabric)
        for node_name in sorted(self.fabric.nodes):
            address = addresses[node_name]
            self.nodes[node_name] = EndNode(
                sim=self.sim, phy=self.phy, name=node_name,
                mac=address.mac, ip=address.ip,
                switch_mac=0,  # fabric leaves have no signalling path yet
                metrics=self.metrics, trace=self.trace,
            )
        # one duplex cable per fabric edge = two HalfLinks + two ports
        for node_name in sorted(self.fabric.nodes):
            self._wire_edge(node_name, self.fabric.attachment(node_name))
        for a, b in self.fabric.switch_adjacencies():
            self._wire_edge(a, b)

    def _receiver(self, name: str):
        if name in self.switches:
            return self.switches[name].receive
        return self.nodes[name].receive

    def _wire_edge(self, a: str, b: str) -> None:
        for tail, head in ((a, b), (b, a)):
            wire = HalfLink(
                sim=self.sim,
                phy=self.phy,
                name=f"{tail}->{head}",
                deliver=self._receiver(head),
                trace=self.trace,
            )
            port = OutputPort(
                sim=self.sim,
                phy=self.phy,
                link=wire,
                name=f"port:{tail}->{head}",
                trace=self.trace,
            )
            if tail in self.switches:
                self.switches[tail].attach_port(head, port)
            else:
                self.nodes[tail].attach_uplink(port)

    # -- establishment ---------------------------------------------------------

    def establish(
        self, source: str, destination: str, spec: ChannelSpec
    ) -> MultiAdmissionDecision | None:
        """Admit analytically and install forwarding + grant on success."""
        decision = self.admission.request(source, destination, spec)
        if not decision.accepted:
            return None
        parts = decision.parts
        links = decision.links
        # first hop: the source node's uplink EDF key
        cumulative_after_first = parts[0]
        grant = ChannelGrant(
            channel_id=decision.channel_id,
            source=source,
            destination=destination,
            spec=spec,
            uplink_deadline_slots=cumulative_after_first,
        )
        self.nodes[source].rt_layer.install_grant(grant)
        # remaining hops are transmitted by switches
        cumulative = parts[0]
        for hop_index, (link, part) in enumerate(
            zip(links[1:], parts[1:]), start=2
        ):
            cumulative += part
            self.switches[link.tail].install_route(
                decision.channel_id, link.head, cumulative,
                hop_index=hop_index,
            )
        self.metrics.register_channel(decision.channel_id, spec.capacity)
        spans = None if self.telemetry is None else self.telemetry.spans
        if spans is not None:
            root = spans.channel_root(
                decision.channel_id, self.sim.now, source
            )
            spans.event(
                root.trace_id, root.span_id, "admission", source,
                self.sim.now,
                {
                    "verdict": "accept",
                    "destination": destination,
                    "hops": len(links),
                },
            )
        self.channels.append(decision)
        return decision

    def release(self, channel_id: int) -> None:
        """Tear a channel down: stop its source, drop grant and routes."""
        decision = self.admission.release(channel_id)
        source = self.nodes[decision.source]
        source.stop_periodic_source(channel_id)
        source.rt_layer.remove_grant(channel_id)
        for link in decision.links[1:]:
            self.switches[link.tail].remove_route(channel_id)
        self.channels = [
            c for c in self.channels if c.channel_id != channel_id
        ]

    # -- traffic -----------------------------------------------------------------

    def start_all_sources(
        self, stop_after_messages: int | None = None
    ) -> None:
        """Critical-instant release on every established channel."""
        for channel in self.channels:
            self.nodes[channel.source].start_periodic_source(
                channel.channel_id, stop_after_messages=stop_after_messages
            )

    def per_link_misses(self) -> int:
        total = 0
        for node in self.nodes.values():
            if node.uplink is not None:
                total += node.uplink.stats.rt_link_deadline_misses
        for switch in self.switches.values():
            for port in switch.ports.values():
                total += port.stats.rt_link_deadline_misses
        return total


def build_fabric_network(
    fabric: FabricGraph,
    dps: MultiHopDPS | None = None,
    phy: PhyProfile | None = None,
    trace_enabled: bool = False,
    record_delays: bool = False,
    telemetry=None,
) -> FabricNetwork:
    """Convenience builder pairing a fabric with admission and a kernel.

    ``telemetry`` is an optional :class:`~repro.obs.Telemetry` bundle:
    its recorder becomes the network's trace and the fabric is fully
    instrumented (kernel counters, per-hop spans, delay observer) via
    :meth:`~repro.obs.bundle.Telemetry.instrument_fabric`.
    """
    phy = phy or PhyProfile.fast_ethernet()
    admission = MultiSwitchAdmission(
        fabric=fabric, dps=dps or MultiHopProportional()
    )
    return FabricNetwork(
        fabric=fabric, admission=admission, phy=phy,
        trace_enabled=trace_enabled, record_delays=record_delays,
        telemetry=telemetry,
    )
