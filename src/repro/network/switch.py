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
offer first, the timer is removed from the queue at once (a cancelled
event never fires nor extends the run, so fault-free runs stay
byte-identical). Otherwise the timer fires and the manager reclaims the
reservation.
"""

from __future__ import annotations

from collections import deque

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
from ..sim.kernel import Entry, Simulator
from ..sim.trace import Observer
from .node import SWITCH_NAME
from .phy import PhyProfile
from .port import OutputPort

__all__ = ["Switch"]


class Switch:
    """The central switch of the star topology.

    Frames waiting out the processing delay sit in a FIFO, and each
    processing event (one method, bound once) pops its head, so no
    event carries its frame. The pairing is exact: every event fires at
    arrival + the switch's constant ``switch_processing_ns``, so the
    times never decrease in queueing order, equal times fire in seq
    order (queueing order again), and processing events are never
    cancelled.

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
    obs:
        Optional :class:`~repro.sim.trace.Observer` for switch and
        signalling milestones, processing spans and admission verdicts.
    lease_ns:
        Reservation-lease duration for pending offers (None disables
        leases and every other loss-tolerance behaviour -- see
        :class:`~repro.core.channel_manager.SwitchChannelManager`).
    """

    def __init__(
        self,
        sim: Simulator,
        phy: PhyProfile,
        mac: int,
        admission: AdmissionController,
        directory: NodeDirectory,
        obs: Observer | None = None,
        lease_ns: int | None = None,
    ) -> None:
        self._sim = sim
        self._phy = phy
        # Built once, applied to every forwarded RT frame (_forward_rt).
        self._t_latency_ns = phy.t_latency_ns
        #: frames waiting out the processing delay, oldest first.
        self._processing: deque[EthernetFrame] = deque()
        # The processing event's action, bound once rather than per frame.
        self._process_action = self._process
        self.mac = mac
        self._obs = obs
        self.manager = SwitchChannelManager(
            admission=admission,
            directory=directory,
            switch_mac=mac,
            lease_ns=lease_ns,
        )
        self._lease_ns = lease_ns
        #: queued lease timers keyed by pending-offer channel ID.
        self._lease_events: dict[int, Entry] = {}
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
        now = self._sim.now
        done = now + self._phy.switch_processing_ns
        if self._obs is not None:
            self._obs.processing(now, done, SWITCH_NAME, frame)
        self._processing.append(frame)
        self._sim.call_at(done, self._process_action, "switch:process")

    def _process(self) -> None:
        """The oldest frame waiting out the processing delay is routed."""
        frame = self._processing.popleft()
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
            if self._obs is not None:
                self._obs.dropped(
                    "switch.drop", self._sim.now, SWITCH_NAME, frame,
                    {"reason": "unknown-channel", "channel": frame.channel_id},
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
            if self._obs is not None:
                self._obs.dropped(
                    "switch.drop", self._sim.now, SWITCH_NAME, frame,
                    {"reason": "unknown-destination"},
                    detail=f"no port toward {frame.destination!r}",
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
        obs = self._obs
        now = self._sim.now
        span_ctx = None if obs is None else obs.received(frame)
        if isinstance(payload, RequestFrame):
            if obs is None:
                actions = self.manager.handle_request(payload, now=now)
            else:
                actions = obs.handle_request(
                    self.manager, payload, now, SWITCH_NAME, span_ctx
                )
            if self._lease_ns is not None:
                for action in actions:
                    if isinstance(action.frame, RequestFrame):
                        channel_id = action.frame.rt_channel_id
                        self._arm_lease(channel_id)
                        if obs is not None:
                            obs.lease_armed(
                                channel_id, span_ctx, now,
                                now + self._lease_ns,
                            )
        elif isinstance(payload, ResponseFrame):
            actions = self.manager.handle_response(payload, now=now)
            self._disarm_lease(payload.rt_channel_id)
            if obs is not None:
                obs.lease_resolved(payload.rt_channel_id, now)
        elif isinstance(payload, TeardownFrame):
            actions = self.manager.handle_teardown(payload)
            if obs is not None:
                obs.teardown_ended(payload.rt_channel_id, now)
        else:
            raise ProtocolError(
                f"switch received unexpected signalling payload "
                f"{type(payload).__name__}"
            )
        if obs is not None:
            kind = type(payload).__name__
            obs.signal(
                "switch.signal", now, SWITCH_NAME,
                f"{kind} -> {len(actions)} action(s)",
                {"payload": kind, "actions": len(actions)},
            )
        for action in actions:
            self._emit_signaling(action, span_ctx)

    # -- reservation leases ----------------------------------------------------

    def _arm_lease(self, channel_id: int) -> None:
        """(Re)start the lease timer for one pending offer.

        Duplicate requests refresh the lease: the old timer is cancelled
        and a fresh one armed, matching the expiry the manager stamped.
        """
        self._disarm_lease(channel_id)
        sim = self._sim
        self._lease_events[channel_id] = sim.call_at(
            sim.now + self._lease_ns,
            lambda cid=channel_id: self._lease_check(cid),
            f"switch:lease:{channel_id}",
        )

    def _disarm_lease(self, channel_id: int) -> None:
        entry = self._lease_events.pop(channel_id, None)
        if entry is not None:
            self._sim.cancel(entry)

    def _lease_check(self, channel_id: int) -> None:
        self._lease_events.pop(channel_id, None)
        reclaimed = self.manager.reclaim_expired(self._sim.now)
        for cid in reclaimed:
            if cid != channel_id:
                self._disarm_lease(cid)
            if self._obs is not None:
                self._obs.lease_reclaimed(self._sim.now, SWITCH_NAME, cid)

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
        if self._obs is not None:
            self._obs.sent(out, span_ctx)
        self.port_toward(action.target).submit_be(out)
