"""The end node: application, RT layer and uplink transmitter.

An :class:`EndNode` bundles everything the paper places in one station
(Figure 18.2):

* an **uplink output port** (EDF + FCFS queues) feeding the wire toward
  the switch;
* the **RT layer** holding established channel grants and mangling
  headers (:class:`repro.core.rt_layer.RTLayer`);
* **source signalling** state for channel establishment
  (:class:`repro.protocol.signaling.SourceSignaling`): one
  :class:`~repro.protocol.signaling.PendingRequest` per request holds
  the frame as sent, its :class:`~repro.protocol.signaling.RetryPolicy`
  timer and its completion callback, and the node drives the timer
  from that record;
* a **destination policy** deciding whether to accept offered channels;
* reception: delivered frames are reported to the shared
  :class:`~repro.analysis.metrics.MetricsCollector`, and signalling
  frames drive the handshake state machines.

The node's application-facing API is :meth:`request_channel` (with a
completion callback), :meth:`send_message` /
:meth:`start_periodic_source`, and :meth:`send_best_effort`.
"""

from __future__ import annotations

from typing import Callable

from ..analysis.metrics import MetricsCollector
from ..core.channel import ChannelSpec
from ..core.rt_layer import ChannelGrant, RTLayer
from ..errors import ProtocolError, SimulationError, UnknownChannelError
from ..protocol.ethernet import EthernetFrame, FrameKind
from ..protocol.frames import (
    RequestFrame,
    ResponseFrame,
    TeardownFrame,
    decode_signaling,
    REQUEST_FRAME_BYTES,
    RESPONSE_FRAME_BYTES,
    TEARDOWN_FRAME_BYTES,
)
from ..protocol.signaling import (
    EXPLICIT_TEARDOWN_ID,
    ConnectionRequestState,
    DestinationPolicy,
    PendingRequest,
    ResponseKind,
    RetryPolicy,
    SourceSignaling,
    accept_all,
    destination_response,
)
from ..sim.kernel import Simulator
from ..sim.trace import Observer
from .phy import PhyProfile
from .port import OutputPort

__all__ = ["EndNode"]

#: Name used for the switch endpoint in frame source/destination fields.
SWITCH_NAME = "switch"

#: Gap between repeated TeardownFrames (see
#: :meth:`EndNode.teardown_channel`): long enough for the previous copy
#: to clear the handshake RTT, short against any retry timeout.
TEARDOWN_SPACING_NS = 250_000

RequestCallback = Callable[[PendingRequest, ChannelGrant | None], None]


class EndNode:
    """One station on the star network.

    Constructed by the topology builder, which wires the uplink port and
    registers addresses; applications then use the public methods.

    Parameters
    ----------
    sim, phy:
        Kernel and timing profile.
    name, mac, ip:
        Identity. MAC/IP are registered with the switch's directory by
        the topology builder.
    switch_mac:
        Needed to address RequestFrames (Figure 18.3's first field).
    metrics:
        Shared network-wide collector.
    destination_policy:
        Accept/decline decision for offered channels; default accepts
        everything (the paper's evaluation never declines).
    obs:
        Optional :class:`~repro.sim.trace.Observer` for delivery and
        signalling milestones and request spans (shared with the RT
        layer).
    """

    def __init__(
        self,
        sim: Simulator,
        phy: PhyProfile,
        name: str,
        mac: int,
        ip: int,
        switch_mac: int,
        metrics: MetricsCollector,
        destination_policy: DestinationPolicy = accept_all,
        obs: Observer | None = None,
    ) -> None:
        self._sim = sim
        self._phy = phy
        self.name = name
        self.mac = mac
        self.ip = ip
        self._switch_mac = switch_mac
        self._metrics = metrics
        self._policy = destination_policy
        self._obs = obs
        self.rt_layer = RTLayer(node_name=name, slot_ns=phy.slot_ns, obs=obs)
        self.signaling = SourceSignaling(
            node_mac=mac, switch_mac=switch_mac, node_ip=ip
        )
        #: set by the topology builder once the uplink wire exists.
        self.uplink: OutputPort | None = None
        #: how many times each TeardownFrame is sent, explicit or
        #: late-response (lossy wires lose fire-and-forget frames;
        #: repeats make the release survive).
        self.teardown_repeats = 1
        #: channels this node receives on (destination side), id -> capacity.
        self.incoming_channels: dict[int, int] = {}
        self.frames_received = 0
        #: RequestFrame retransmissions performed by this node.
        self.signal_retries = 0
        #: duplicate/stale responses absorbed by this node.
        self.signal_stale_frames = 0
        #: signalling frames that arrived as wire bytes and were decoded
        #: with the bit-exact codec (fidelity counter for tests).
        self.signaling_frames_decoded = 0
        #: running sources: channel id -> the token of the one event
        #: chain that may send on it. A chain whose token is no longer
        #: here (stopped, torn down, restarted) dies at its next event.
        self._active_sources: dict[int, object] = {}

    # -- wiring (topology builder) ------------------------------------------

    def attach_uplink(self, port: OutputPort) -> None:
        if self.uplink is not None:
            raise SimulationError(f"node {self.name!r} already has an uplink")
        self.uplink = port

    def _require_uplink(self) -> OutputPort:
        if self.uplink is None:
            raise SimulationError(
                f"node {self.name!r} is not wired to the switch yet"
            )
        return self.uplink

    # -- channel establishment (application API) -------------------------------

    def request_channel(
        self,
        destination_mac: int,
        destination_ip: int,
        destination_name: str,
        spec: ChannelSpec,
        on_complete: RequestCallback | None = None,
        retry: RetryPolicy | None = None,
        retry_rng=None,
    ) -> None:
        """Send a RequestFrame for a new RT channel to the switch.

        ``on_complete`` fires once, when the request completes, with its
        :class:`PendingRequest` and, on acceptance, the installed
        :class:`ChannelGrant`.

        ``retry`` is the request's timer (none by default: the paper's
        wires lose nothing). Each expiry within the policy's budget
        re-sends the identical RequestFrame and re-arms with exponential
        backoff; once ``max_retries`` retransmissions went unanswered
        the request completes as ``TIMED_OUT`` with a ``None`` grant
        (``RetryPolicy(timeout_ns=T)`` gives up ``T`` after the send).
        A late positive response is then answered with a teardown so the
        switch's reservation is not leaked. ``retry_rng`` supplies the
        jitter draws (required when the policy has jitter > 0).
        """
        if retry is not None and retry.jitter > 0.0 and retry_rng is None:
            raise SimulationError(
                "a jittered RetryPolicy needs retry_rng "
                "(retransmission must stay reproducible)"
            )
        request = self.signaling.build_request(
            destination=destination_name,
            destination_mac=destination_mac,
            destination_ip=destination_ip,
            period=spec.period,
            capacity=spec.capacity,
            deadline=spec.deadline,
            retry=retry,
            retry_rng=retry_rng,
            on_complete=on_complete,
        )
        rid = request.connect_request_id
        obs = self._obs
        span_ctx = None
        if obs is not None:
            span_ctx = obs.request_sent(
                self._sim.now, self.name, rid, destination_name
            )
        if retry is not None:
            self._arm_request_timer(self.signaling.pending_request(rid))
        self._send_signaling(
            request, payload_bytes=REQUEST_FRAME_BYTES, span_ctx=span_ctx
        )
        if obs is not None:
            obs.signal(
                "signal.request", self._sim.now, self.name,
                f"req={rid} -> {destination_name}",
                {"request": rid, "destination": destination_name},
            )

    def _arm_request_timer(self, record: PendingRequest) -> None:
        """Queue the expiry of ``record``'s current attempt."""
        delay = record.retry.delay_ns(record.retries, record.retry_rng)
        self._sim.call_at(
            self._sim.now + delay,
            lambda: self._request_timeout(record),
            f"{self.name}:req{record.connect_request_id}:timeout",
        )

    def _request_timeout(self, record: PendingRequest) -> None:
        """Timer expiry for one request (no-op once it completed)."""
        if record.state is not ConnectionRequestState.PENDING:
            return  # the response won the race
        rid = record.connect_request_id
        if record.retries < record.retry.max_retries:
            record.retries += 1
            self.signal_retries += 1
            span_ctx = None
            if self._obs is not None:
                span_ctx = self._obs.request_retried(
                    self._sim.now, self.name, rid, record.retries
                )
            self._send_signaling(
                record.frame, payload_bytes=REQUEST_FRAME_BYTES,
                span_ctx=span_ctx,
            )
            self._arm_request_timer(record)
            return
        self.signaling.timeout_request(rid)
        obs = self._obs
        if obs is not None:
            now = self._sim.now
            obs.request_ended(now, self.name, rid, "timed-out")
            obs.signal(
                "signal.timeout", now, self.name, f"req={rid}",
                {"request": rid},
            )
        self._complete(record, None)

    @staticmethod
    def _complete(record: PendingRequest, grant: ChannelGrant | None) -> None:
        """Fire ``record``'s callback once, then clear it."""
        callback = record.on_complete
        record.on_complete = None
        if callback is not None:
            callback(record, grant)

    def teardown_channel(self, channel_id: int) -> None:
        """Release an established sending channel.

        The TeardownFrame carries :data:`EXPLICIT_TEARDOWN_ID` in the
        connect-request field (that ID is never allocated to a real
        request, so traces can tell explicit teardowns apart). On lossy
        wires a lost teardown would strand the switch's reservation
        forever -- the frame is sent :attr:`teardown_repeats` times,
        :data:`TEARDOWN_SPACING_NS` apart; the switch absorbs whichever
        duplicates survive.
        """
        self.rt_layer.remove_grant(channel_id)
        self._active_sources.pop(channel_id, None)
        self.signaling.channel_torn_down(channel_id)
        frame = TeardownFrame(
            connect_request_id=EXPLICIT_TEARDOWN_ID, rt_channel_id=channel_id
        )
        self._repeat_teardown(frame)

    def _repeat_teardown(self, frame: TeardownFrame) -> None:
        """Send ``frame`` now and ``teardown_repeats - 1`` more times."""
        span_ctx = None
        if self._obs is not None:
            span_ctx = self._obs.teardown_sent(
                self._sim.now, self.name, frame.rt_channel_id
            )
        self._send_signaling(
            frame, payload_bytes=TEARDOWN_FRAME_BYTES, span_ctx=span_ctx
        )
        for i in range(1, self.teardown_repeats):
            self._sim.call_at(
                self._sim.now + i * TEARDOWN_SPACING_NS,
                lambda f=frame, ctx=span_ctx: self._send_signaling(
                    f, payload_bytes=TEARDOWN_FRAME_BYTES, span_ctx=ctx
                ),
                f"{self.name}:ch{frame.rt_channel_id}:teardown",
            )

    def _send_signaling(
        self, payload, payload_bytes: int, span_ctx=None
    ) -> None:
        """Encode a signalling frame to real bytes and queue it.

        Every node-originated signalling frame travels as its bit-exact
        wire encoding (Figures 18.3/18.4); the receiver runs the real
        decoder. Only the switch's grant-carrying final response uses
        structured metadata (see :mod:`repro.core.rt_layer`).
        """
        encoded = payload.encode()
        assert len(encoded) == payload_bytes
        frame = EthernetFrame(
            kind=FrameKind.SIGNALING,
            source=self.name,
            destination=SWITCH_NAME,
            payload_bytes=payload_bytes,
            created_at=self._sim.now,
            payload_object=encoded,
        )
        if self._obs is not None:
            self._obs.sent(frame, span_ctx)
        self._require_uplink().submit_be(frame)

    # -- RT data path (application API) -----------------------------------------

    def send_message(self, channel_id: int) -> int:
        """Emit one message (``C`` frames) on an established channel now.

        Returns the number of frames enqueued.
        """
        outgoing = self.rt_layer.emit_message(channel_id, self._sim.now)
        port = self._require_uplink()
        for item in outgoing:
            port.submit_rt(item.frame, item.uplink_deadline_ns)
        return len(outgoing)

    def start_periodic_source(
        self,
        channel_id: int,
        stop_after_messages: int | None = None,
        phase_ns: int = 0,
    ) -> None:
        """Generate one message every period, starting ``phase_ns`` from now.

        The first release happens at ``now + phase_ns`` (a zero phase
        means the critical-instant synchronous release the feasibility
        analysis assumes is covered when all sources start together).

        Raises :class:`~repro.errors.SimulationError` if a source already
        runs on the channel: two chains would send at twice the admitted
        rate. A source runs until :meth:`stop_periodic_source`, teardown,
        or the event after its last message.
        """
        period_ns = self._source_period_ns(channel_id)
        if phase_ns < 0:
            raise SimulationError(f"phase must be >= 0 ns, got {phase_ns}")
        token = self._claim_source(channel_id)
        remaining = stop_after_messages
        period_label = f"{self.name}:ch{channel_id}:period"
        sim = self._sim

        def fire() -> None:
            nonlocal remaining
            if self._active_sources.get(channel_id) is not token:
                return
            if remaining is not None:
                if remaining <= 0:
                    del self._active_sources[channel_id]
                    return
                remaining -= 1
            self.send_message(channel_id)
            sim.call_at(sim.now + period_ns, fire, period_label)

        sim.call_at(
            sim.now + phase_ns, fire, f"{self.name}:ch{channel_id}:start"
        )

    def start_sporadic_source(
        self,
        channel_id: int,
        rng,
        stop_after_messages: int | None = None,
        mean_extra_gap_slots: float = 50.0,
    ) -> None:
        """Generate messages sporadically: gaps of at least one period.

        The paper reserves for *periodic* traffic, but EDF theory covers
        the sporadic generalization: as long as consecutive releases are
        at least ``P_i`` apart, the demand on every link is bounded by
        the periodic case, so the admitted reservation still guarantees
        every deadline. Gaps are ``P_i + Exp(mean_extra_gap_slots)``
        slots, drawn from ``rng`` for reproducibility.

        Validated by EXP-R1c style tests: sporadic sources on a fully
        admitted set never miss. Starting a channel that already runs a
        source raises, as :meth:`start_periodic_source` does.
        """
        period_ns = self._source_period_ns(channel_id)
        if mean_extra_gap_slots < 0:
            raise SimulationError(
                f"mean_extra_gap_slots must be >= 0, got {mean_extra_gap_slots}"
            )
        token = self._claim_source(channel_id)
        remaining = stop_after_messages
        label = f"{self.name}:ch{channel_id}:sporadic"
        sim = self._sim

        def gap_ns() -> int:
            extra = float(rng.exponential(mean_extra_gap_slots))
            return period_ns + int(extra * self._phy.slot_ns)

        def fire() -> None:
            nonlocal remaining
            if self._active_sources.get(channel_id) is not token:
                return
            if remaining is not None:
                if remaining <= 0:
                    del self._active_sources[channel_id]
                    return
                remaining -= 1
            self.send_message(channel_id)
            sim.call_at(sim.now + gap_ns(), fire, label)

        sim.call_at(sim.now + gap_ns(), fire, f"{label}0")

    def _source_period_ns(self, channel_id: int) -> int:
        grant = self.rt_layer.grants.get(channel_id)
        if grant is None:
            raise UnknownChannelError(
                f"node {self.name!r} has no established channel {channel_id}"
            )
        return grant.spec.period * self._phy.slot_ns

    def _claim_source(self, channel_id: int) -> object:
        """Register a new source on ``channel_id``; return its token."""
        if channel_id in self._active_sources:
            raise SimulationError(
                f"node {self.name!r} already runs a source on channel "
                f"{channel_id}; stop it before starting another"
            )
        token = self._active_sources[channel_id] = object()
        return token

    def stop_periodic_source(self, channel_id: int) -> None:
        """Stop generating messages on ``channel_id`` (grant remains).

        The stopped chain dies at its next event, even if the channel's
        source is started again before then.
        """
        self._active_sources.pop(channel_id, None)

    # -- best-effort path ---------------------------------------------------------

    def send_best_effort(self, destination: str, payload_bytes: int) -> bool:
        """Queue one best-effort frame toward ``destination``.

        Returns False when the uplink best-effort buffer dropped it.
        """
        frame = EthernetFrame(
            kind=FrameKind.BEST_EFFORT,
            source=self.name,
            destination=destination,
            payload_bytes=payload_bytes,
            created_at=self._sim.now,
        )
        return self._require_uplink().submit_be(frame)

    # -- reception -----------------------------------------------------------------

    def receive(self, frame: EthernetFrame) -> None:
        """Entry point for frames arriving on this node's downlink."""
        self.frames_received += 1
        if frame.kind is FrameKind.SIGNALING:
            self._receive_signaling(frame)
            return
        # the metrics run first: they drive the invariant monitor
        self._metrics.on_delivery(frame, self._sim.now)
        if self._obs is not None:
            self._obs.delivered(self._sim.now, self.name, frame)

    def _receive_signaling(self, frame: EthernetFrame) -> None:
        self._metrics.on_delivery(frame, self._sim.now)
        span_ctx = None
        if self._obs is not None:
            span_ctx = self._obs.received(frame)
        payload = frame.payload_object
        if isinstance(payload, (bytes, bytearray)):
            # bit-exact wire encoding: run the real decoder
            payload = decode_signaling(bytes(payload))
            self.signaling_frames_decoded += 1
        # The switch attaches the channel grant to positive responses as
        # (ResponseFrame, ChannelGrant) -- management metadata riding in
        # the response's padding bytes (see repro.core.rt_layer docs).
        if isinstance(payload, tuple) and len(payload) == 2:
            response, grant = payload
            if not isinstance(response, ResponseFrame) or not isinstance(
                grant, ChannelGrant
            ):
                raise ProtocolError(
                    f"node {self.name!r} received malformed signalling tuple"
                )
            self._handle_response(response, grant)
        elif isinstance(payload, RequestFrame):
            self._handle_offer(payload, span_ctx)
        elif isinstance(payload, ResponseFrame):
            self._handle_response(payload, None)
        else:
            raise ProtocolError(
                f"node {self.name!r} received unexpected signalling payload "
                f"{type(payload).__name__}"
            )

    def _handle_offer(self, request: RequestFrame, span_ctx=None) -> None:
        """An offered channel (switch-stamped RequestFrame) arrived."""
        response = destination_response(request, self._switch_mac, self._policy)
        if response.ok:
            self.incoming_channels[request.rt_channel_id] = request.capacity
            self._metrics.register_channel(
                request.rt_channel_id, request.capacity
            )
        if self._obs is not None:
            self._obs.signal(
                "signal.offer", self._sim.now, self.name,
                f"ch={request.rt_channel_id} ok={response.ok}",
                {"channel": request.rt_channel_id, "ok": response.ok},
            )
        self._send_signaling(
            response, payload_bytes=RESPONSE_FRAME_BYTES, span_ctx=span_ctx
        )

    def _handle_response(
        self, response: ResponseFrame, grant: ChannelGrant | None
    ) -> None:
        """The switch's final verdict on one of our requests arrived."""
        kind, completed = self.signaling.handle_response(response)
        if kind is ResponseKind.STALE or kind is ResponseKind.DUPLICATE:
            # Expected on lossy wires with retransmission (the switch
            # re-answers duplicated requests): absorb and count.
            self.signal_stale_frames += 1
            if self._obs is not None:
                self._obs.signal(
                    "signal.stale", self._sim.now, self.name,
                    f"req={response.connect_request_id} kind={kind.value}",
                    {"request": response.connect_request_id,
                     "kind": kind.value},
                )
            return
        if self._obs is not None:
            self._obs.request_ended(
                self._sim.now, self.name, response.connect_request_id,
                "accepted" if response.ok else "rejected",
            )
        if completed.state is ConnectionRequestState.TIMED_OUT:
            # Late response for a request we already abandoned. If the
            # switch accepted, its reservation is orphaned: release it
            # (repeated per teardown_repeats so loss cannot re-strand it).
            if response.ok:
                frame = TeardownFrame(
                    connect_request_id=response.connect_request_id,
                    rt_channel_id=response.rt_channel_id,
                )
                self._repeat_teardown(frame)
                if self._obs is not None:
                    self._obs.signal(
                        "signal.late_response_teardown", self._sim.now,
                        self.name, f"ch={response.rt_channel_id}",
                        {"channel": response.rt_channel_id},
                    )
            return
        if response.ok:
            if grant is None:
                raise ProtocolError(
                    f"positive response for request {response.connect_request_id} "
                    "arrived without a channel grant"
                )
            self.rt_layer.install_grant(grant)
        if self._obs is not None:
            self._obs.signal(
                "signal.response", self._sim.now, self.name,
                f"req={response.connect_request_id} ok={response.ok}",
                {"request": response.connect_request_id, "ok": response.ok},
            )
        self._complete(completed, grant)
