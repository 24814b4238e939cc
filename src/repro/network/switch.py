"""The store-and-forward switch (Sections 18.1-18.2).

The :class:`Switch` bundles:

* one **downlink output port** per connected node, each with the EDF +
  FCFS queue pair of Figure 18.2;
* the **forwarding plane**: a fully received frame is processed after
  the store-and-forward delay, then routed -- RT frames by their channel
  ID (the channel *is* the address once established; the destination was
  recorded at establishment time), best-effort frames by destination
  name, signalling frames into the channel-management software;
* the **RT channel management software** of Figure 18.2
  (:class:`~repro.core.channel_manager.SwitchChannelManager`), i.e.
  admission control plus the establishment handshake.

Downlink EDF keys come straight from the frame's mangled IP header: the
48-bit end-to-end absolute deadline the source RT layer wrote. The
switch needs no per-channel deadline state on the forwarding fast path
-- exactly the property the paper's header trick buys.

Reservation leases: with ``lease_ns`` set, every pending offer gets a
strong timer event; if the destination's ResponseFrame resolves the
offer first, the timer is cancelled (O(1), and a cancelled event never
fires nor extends the run, so fault-free runs stay byte-identical).
Otherwise the timer fires and the manager reclaims the reservation.
"""

from __future__ import annotations

from time import perf_counter_ns

from ..core.channel_manager import (
    NodeDirectory,
    SignalAction,
    SwitchChannelManager,
)
from ..core.admission import AdmissionController
from ..errors import ProtocolError, SimulationError, UnknownChannelError
from ..protocol.ethernet import EthernetFrame, FrameKind
from ..protocol.frames import (
    RequestFrame,
    ResponseFrame,
    TeardownFrame,
    decode_signaling,
    REQUEST_FRAME_BYTES,
    RESPONSE_FRAME_BYTES,
)
from ..sim.events import Event
from ..sim.kernel import Simulator
from ..sim.trace import TraceRecorder
from .node import SWITCH_NAME
from .phy import PhyProfile
from .port import OutputPort

__all__ = ["Switch"]


class Switch:
    """The central switch of the star topology.

    Parameters
    ----------
    sim, phy:
        Kernel and timing profile.
    mac:
        The switch's MAC address (target of all RequestFrames).
    admission:
        The admission controller (with its system state and DPS).
    directory:
        Node address directory, shared with the topology builder.
    trace:
        Optional trace recorder.
    lease_ns:
        Reservation-lease duration for pending offers (None disables
        leases and every other loss-tolerance behaviour -- see
        :class:`~repro.core.channel_manager.SwitchChannelManager`).
    response_cache_ns:
        Completed-verdict retention for duplicate requests (see the
        manager; only meaningful with leases enabled).
    registry:
        Optional :class:`~repro.obs.registry.MetricsRegistry` for the
        manager's ``signal.*`` counters.
    """

    def __init__(
        self,
        sim: Simulator,
        phy: PhyProfile,
        mac: int,
        admission: AdmissionController,
        directory: NodeDirectory,
        trace: TraceRecorder | None = None,
        lease_ns: int | None = None,
        response_cache_ns: int | None = None,
        registry=None,
    ) -> None:
        self._sim = sim
        self._phy = phy
        # Built once, applied to every forwarded RT frame (_forward_rt).
        self._t_latency_ns = phy.t_latency_ns
        self.mac = mac
        self._trace = trace if trace is not None else TraceRecorder(enabled=False)
        self.manager = SwitchChannelManager(
            admission=admission,
            directory=directory,
            switch_mac=mac,
            lease_ns=lease_ns,
            response_cache_ns=response_cache_ns,
            metrics=registry,
        )
        self._lease_ns = lease_ns
        #: optional :class:`~repro.obs.spans.SpanTracker` (set by the
        #: telemetry bundle); every hook is gated on ``is not None``.
        self.spans = None
        #: live lease timers keyed by pending-offer channel ID.
        self._lease_events: dict[int, Event] = {}
        self._ports: dict[str, OutputPort] = {}
        self.frames_forwarded = 0
        self.frames_dropped = 0
        #: signalling frames that arrived as wire bytes and were decoded
        #: with the bit-exact codec (fidelity counter for tests).
        self.signaling_frames_decoded = 0

    # -- wiring ---------------------------------------------------------------

    def attach_port(self, node_name: str, port: OutputPort) -> None:
        """Register the downlink port toward ``node_name``."""
        if node_name in self._ports:
            raise SimulationError(
                f"switch already has a port toward {node_name!r}"
            )
        self._ports[node_name] = port

    def port_toward(self, node_name: str) -> OutputPort:
        port = self._ports.get(node_name)
        if port is None:
            raise SimulationError(
                f"switch has no port toward {node_name!r}"
            )
        return port

    @property
    def ports(self) -> dict[str, OutputPort]:
        """Downlink ports keyed by node name (copy)."""
        return dict(self._ports)

    # -- ingress from uplinks ------------------------------------------------------

    def receive(self, frame: EthernetFrame) -> None:
        """A frame fully arrived on some uplink (store-and-forward point).

        Processing (routing + queueing) happens after the switch's
        processing delay, modelling lookup latency.
        """
        if self.spans is not None:
            now = self._sim.now
            self.spans.frame_processing(
                frame.frame_id,
                now,
                now + self._phy.switch_processing_ns,
                SWITCH_NAME,
            )
        self._sim.schedule(
            self._phy.switch_processing_ns,
            lambda f=frame: self._process(f),
            label="switch:process",
        )

    def _process(self, frame: EthernetFrame) -> None:
        if frame.kind is FrameKind.SIGNALING:
            self._process_signaling(frame)
        elif frame.kind is FrameKind.RT_DATA:
            self._forward_rt(frame)
        else:
            self._forward_best_effort(frame)

    # -- forwarding plane -------------------------------------------------------------

    def _forward_rt(self, frame: EthernetFrame) -> None:
        try:
            destination = self.manager.destination_of(frame.channel_id)
        except UnknownChannelError:
            # Channel torn down while the frame was in flight: drop.
            self.frames_dropped += 1
            if self.spans is not None:
                self.spans.frame_dropped(
                    frame.frame_id, self._sim.now, SWITCH_NAME
                )
            if self._trace.enabled_for("switch.drop"):
                self._trace.record(
                    self._sim.now,
                    "switch.drop",
                    SWITCH_NAME,
                    frame.describe(),
                    fields={"reason": "unknown-channel",
                            "channel": frame.channel_id},
                )
            return
        port = self.port_toward(destination)
        # Second hop: the miss check allows the full two-hop share of
        # T_latency -- blocking suffered on the uplink cascades into the
        # downlink's completion time (see OutputPort.submit_rt).
        port.submit_rt(
            frame,
            link_deadline_ns=frame.absolute_deadline,
            allowance_ns=self._t_latency_ns,
        )
        self.frames_forwarded += 1

    def _forward_best_effort(self, frame: EthernetFrame) -> None:
        port = self._ports.get(frame.destination)
        if port is None:
            self.frames_dropped += 1
            if self.spans is not None:
                self.spans.frame_dropped(
                    frame.frame_id, self._sim.now, SWITCH_NAME
                )
            if self._trace.enabled_for("switch.drop"):
                self._trace.record(
                    self._sim.now,
                    "switch.drop",
                    SWITCH_NAME,
                    f"no port toward {frame.destination!r}",
                    fields={"reason": "unknown-destination"},
                )
            return
        accepted = port.submit_be(frame)
        if accepted:
            self.frames_forwarded += 1
        else:
            self.frames_dropped += 1

    # -- channel management ------------------------------------------------------------

    def _process_signaling(self, frame: EthernetFrame) -> None:
        payload = frame.payload_object
        if isinstance(payload, (bytes, bytearray)):
            # bit-exact wire encoding from an end node: real decoder
            payload = decode_signaling(bytes(payload))
            self.signaling_frames_decoded += 1
        spans = self.spans
        span_ctx = None
        if spans is not None:
            span_ctx = spans.frame_context(frame.frame_id)
            spans.frame_done(frame.frame_id)
        if isinstance(payload, RequestFrame):
            if spans is None:
                actions = self.manager.handle_request(
                    payload, now=self._sim.now
                )
            else:
                actions = self._handle_request_traced(payload, span_ctx)
            if self._lease_ns is not None:
                for action in actions:
                    if isinstance(action.frame, RequestFrame):
                        self._arm_lease(action.frame.rt_channel_id)
                        if spans is not None and span_ctx is not None:
                            spans.lease_armed(
                                action.frame.rt_channel_id,
                                span_ctx[0],
                                span_ctx[1],
                                self._sim.now,
                                self._sim.now + self._lease_ns,
                            )
        elif isinstance(payload, ResponseFrame):
            actions = self.manager.handle_response(payload, now=self._sim.now)
            self._disarm_lease(payload.rt_channel_id)
            if spans is not None:
                spans.lease_resolved(payload.rt_channel_id, self._sim.now)
        elif isinstance(payload, TeardownFrame):
            actions = self.manager.handle_teardown(payload)
            if spans is not None:
                spans.end_teardown(payload.rt_channel_id, self._sim.now)
        else:
            raise ProtocolError(
                f"switch received unexpected signalling payload "
                f"{type(payload).__name__}"
            )
        if self._trace.enabled_for("switch.signal"):
            self._trace.record(
                self._sim.now,
                "switch.signal",
                SWITCH_NAME,
                f"{type(payload).__name__} -> {len(actions)} action(s)",
                fields={"payload": type(payload).__name__,
                        "actions": len(actions)},
            )
        for action in actions:
            self._emit_signaling(action, span_ctx)

    def _handle_request_traced(
        self, payload: RequestFrame, span_ctx
    ) -> list[SignalAction]:
        """``manager.handle_request`` plus the admission verdict event.

        Only runs when a span tracker is attached. The verdict event is
        emitted on the request's trace when admission actually ran (a
        fresh decision was appended); retransmitted requests answered
        from the pending-offer table or the verdict cache are marked
        ``duplicate`` instead. Wall-clock admission compute is measured
        only when the tracker asks for it (non-deterministic by nature,
        so deterministic sweep runs keep it off).
        """
        spans = self.spans
        before = len(self.manager.decisions)
        if spans.measure_compute:
            start = perf_counter_ns()
            actions = self.manager.handle_request(payload, now=self._sim.now)
            compute = perf_counter_ns() - start
        else:
            actions = self.manager.handle_request(payload, now=self._sim.now)
            compute = -1
        if span_ctx is not None:
            if len(self.manager.decisions) > before:
                decision = self.manager.decisions[-1]
                fields: dict = {
                    "verdict": "accept" if decision.accepted else "reject",
                }
                if not decision.accepted and decision.reason is not None:
                    fields["reason"] = decision.reason.name
                if compute >= 0:
                    fields["compute_ns"] = compute
                spans.event(
                    span_ctx[0], span_ctx[1], "admission", SWITCH_NAME,
                    self._sim.now, fields,
                )
            else:
                spans.event(
                    span_ctx[0], span_ctx[1], "admission", SWITCH_NAME,
                    self._sim.now, {"verdict": "duplicate"},
                )
        return actions

    # -- reservation leases ----------------------------------------------------

    def _arm_lease(self, channel_id: int) -> None:
        """(Re)start the lease timer for one pending offer.

        Duplicate requests refresh the lease: the old timer is cancelled
        and a fresh one armed, matching the expiry the manager stamped.
        """
        old = self._lease_events.pop(channel_id, None)
        if old is not None:
            old.cancel()
        self._lease_events[channel_id] = self._sim.schedule(
            self._lease_ns,
            lambda cid=channel_id: self._lease_check(cid),
            label=f"switch:lease:{channel_id}",
        )

    def _disarm_lease(self, channel_id: int) -> None:
        handle = self._lease_events.pop(channel_id, None)
        if handle is not None:
            handle.cancel()

    def _lease_check(self, channel_id: int) -> None:
        self._lease_events.pop(channel_id, None)
        reclaimed = self.manager.reclaim_expired(self._sim.now)
        for cid in reclaimed:
            if cid != channel_id:
                self._disarm_lease(cid)
            if self.spans is not None:
                self.spans.lease_reclaimed(cid, self._sim.now)
            if self._trace.enabled_for("signal.lease_reclaim"):
                self._trace.record(
                    self._sim.now,
                    "signal.lease_reclaim",
                    SWITCH_NAME,
                    f"ch={cid}",
                    fields={"channel": cid},
                )

    def _emit_signaling(self, action: SignalAction, span_ctx=None) -> None:
        if isinstance(action.frame, RequestFrame):
            payload_bytes = REQUEST_FRAME_BYTES
            # forwarded (stamped) requests travel as wire bytes too
            payload_object: object = action.frame.encode()
        else:
            payload_bytes = RESPONSE_FRAME_BYTES
            if action.grant is not None:
                # the grant rides as management metadata in the response
                # padding; this is the one frame that stays structured
                # (see repro.core.rt_layer docs / DESIGN.md substitutions)
                payload_object = (action.frame, action.grant)
            else:
                payload_object = action.frame.encode()
        out = EthernetFrame(
            kind=FrameKind.SIGNALING,
            source=SWITCH_NAME,
            destination=action.target,
            payload_bytes=payload_bytes,
            created_at=self._sim.now,
            payload_object=payload_object,
        )
        if self.spans is not None and span_ctx is not None:
            self.spans.attach_frame(out.frame_id, span_ctx[0], span_ctx[1])
        self.port_toward(action.target).submit_be(out)
