"""Channel-establishment signalling state machines (Section 18.2.2).

The establishment handshake involves three roles:

1. the **source** node sends a RequestFrame to the switch and waits for
   a ResponseFrame matching its connection-request ID;
2. the **switch** runs admission control; on failure it answers the
   source directly with a negative ResponseFrame, on success it stamps
   the network-unique RT channel ID into the request and forwards it to
   the destination (the switch side lives in
   :mod:`repro.core.channel_manager` because it needs the admission
   controller);
3. the **destination** node answers the offered channel with a
   ResponseFrame (accept or decline).

This module provides the two end-node state machines as pure, simulator-
agnostic objects: the network layer feeds them decoded frames and they
return what to send next. Keeping them pure makes the protocol's corner
cases (duplicate responses, unknown request IDs, request-ID exhaustion)
unit-testable without any event loop.

Loss tolerance
--------------
The paper's handshake assumes error-free wires. On lossy wires a source
must *retransmit* its RequestFrame, which means the switch can see the
same logical request twice and the source can see the same final
response twice (once for the original, once for a retransmission the
switch re-answered). :meth:`SourceSignaling.handle_response` therefore
classifies every response (:class:`ResponseKind`) instead of raising on
anything unexpected, and :class:`RetryPolicy` describes the
deterministic exponential-backoff schedule the network layer drives.
Each request lives in exactly one :class:`PendingRequest` record: the
frame as sent, its timer and its completion callback.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, NamedTuple

from ..errors import ConfigurationError, ProtocolError
from .frames import RequestFrame, ResponseFrame

__all__ = [
    "EXPLICIT_TEARDOWN_ID",
    "ConnectionRequestState",
    "PendingRequest",
    "ResponseKind",
    "ResponseOutcome",
    "RetryPolicy",
    "SourceSignaling",
    "DestinationPolicy",
    "accept_all",
]

#: Connection-request ID reserved for *explicit* (application-driven)
#: TeardownFrames. The 8-bit field must carry something; 0 used to
#: collide with a legal request ID, so the ID allocator now never hands
#: out 0 and traces can tell an explicit teardown (ID 0) from the
#: late-response teardown path (which echoes the request's real ID).
EXPLICIT_TEARDOWN_ID = 0


class ConnectionRequestState(enum.Enum):
    """Lifecycle of one outstanding connection request at the source."""

    PENDING = "pending"
    ACCEPTED = "accepted"
    REJECTED = "rejected"
    #: The source gave up waiting (lost request or lost response). A
    #: response arriving after the timeout is surfaced so the caller can
    #: release the switch's orphaned reservation.
    TIMED_OUT = "timed-out"


@dataclass(slots=True)
class PendingRequest:
    """The one record of a connection request at its source.

    :meth:`SourceSignaling.build_request` creates it with everything the
    network layer needs to drive the request: the frame as sent (a
    retransmission re-sends it verbatim), the timer (``retry`` and its
    jitter stream ``retry_rng``; no timer when ``retry`` is None) and
    the completion callback, which fires once, on completion or on
    timeout, and is then cleared.
    """

    frame: RequestFrame
    destination: str
    retry: RetryPolicy | None = None
    retry_rng: object = None
    on_complete: Callable[..., None] | None = None
    state: ConnectionRequestState = ConnectionRequestState.PENDING
    rt_channel_id: int = -1
    #: RequestFrame retransmissions performed so far (the timer's
    #: attempt counter: attempt 0 is the initial send).
    retries: int = 0

    @property
    def connect_request_id(self) -> int:
        return self.frame.connect_request_id


class ResponseKind(enum.Enum):
    """Classification of one incoming ResponseFrame at the source."""

    #: First response for a pending request: the handshake is complete.
    COMPLETED = "completed"
    #: First response for a locally timed-out request; if positive, the
    #: switch's reservation is orphaned and must be torn down.
    LATE = "late"
    #: Repeat of a verdict already delivered (retransmitted request made
    #: the switch answer twice, or the original and re-answer both got
    #: through). Safe to absorb.
    DUPLICATE = "duplicate"
    #: Matches nothing this node knows about -- absorbed and counted,
    #: never installed.
    STALE = "stale"


class ResponseOutcome(NamedTuple):
    """What :meth:`SourceSignaling.handle_response` concluded."""

    kind: ResponseKind
    #: The matched request record (None only for ``STALE``).
    request: PendingRequest | None


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Deterministic exponential backoff for RequestFrame retransmission.

    Attempt ``k`` (0-based; attempt 0 is the initial send) waits
    ``timeout_ns * backoff**k`` before retransmitting, clamped to
    ``max_timeout_ns``, with a symmetric multiplicative jitter of
    ``+/- jitter`` drawn from the caller-supplied RNG stream so
    simultaneous requesters decorrelate without losing reproducibility.

    ``max_retries`` counts *retransmissions*: a request is sent at most
    ``1 + max_retries`` times before the source gives up (TIMED_OUT).
    With ``max_retries=0`` the policy is a one-shot timer: the request
    times out ``timeout_ns`` after its send.
    """

    timeout_ns: int
    max_retries: int = 0
    backoff: float = 2.0
    jitter: float = 0.0
    max_timeout_ns: int | None = None

    def __post_init__(self) -> None:
        if self.timeout_ns <= 0:
            raise ConfigurationError(
                f"timeout_ns must be positive, got {self.timeout_ns}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff < 1.0:
            raise ConfigurationError(
                f"backoff must be >= 1 (delays must not shrink), "
                f"got {self.backoff}"
            )
        if not (0.0 <= self.jitter < 1.0):
            raise ConfigurationError(
                f"jitter must be in [0, 1), got {self.jitter}"
            )
        if self.max_timeout_ns is not None and self.max_timeout_ns < self.timeout_ns:
            raise ConfigurationError(
                f"max_timeout_ns ({self.max_timeout_ns}) must be >= "
                f"timeout_ns ({self.timeout_ns})"
            )

    def delay_ns(self, attempt: int, rng=None) -> int:
        """Wait before declaring attempt ``attempt`` lost (integer ns)."""
        if attempt < 0:
            raise ConfigurationError(f"attempt must be >= 0, got {attempt}")
        delay = self.timeout_ns * (self.backoff ** attempt)
        if self.max_timeout_ns is not None:
            delay = min(delay, float(self.max_timeout_ns))
        if self.jitter > 0.0:
            if rng is None:
                raise ConfigurationError(
                    "a jittered RetryPolicy needs an rng stream "
                    "(retransmission must stay reproducible)"
                )
            delay *= 1.0 + self.jitter * (2.0 * float(rng.random()) - 1.0)
        return max(1, int(delay))


class SourceSignaling:
    """Source-node half of the establishment handshake.

    The 8-bit *connection request ID* field exists so a node can tell
    apart responses to several concurrent requests (Section 18.2.2);
    this class allocates those IDs, refuses to exceed 255 concurrent
    outstanding requests (ID 0 is reserved for explicit teardowns, see
    :data:`EXPLICIT_TEARDOWN_ID`), and pairs each ResponseFrame with its
    request.

    Parameters
    ----------
    node_mac:
        This node's 48-bit MAC address, placed in the source MAC field.
    switch_mac:
        The switch's MAC address (destination of every RequestFrame).
    node_ip:
        This node's 32-bit IP address.
    """

    #: 8-bit connection request ID space minus the reserved teardown ID.
    MAX_OUTSTANDING = 255
    _ID_SPACE = 256  # width of the wire field

    def __init__(self, node_mac: int, switch_mac: int, node_ip: int) -> None:
        self._node_mac = node_mac
        self._switch_mac = switch_mac
        self._node_ip = node_ip
        self._pending: dict[int, PendingRequest] = {}
        #: requests that timed out locally; a late response must still be
        #: recognizable so the orphaned switch reservation can be freed.
        self._timed_out: dict[int, PendingRequest] = {}
        #: last delivered verdict per ID, so a duplicated final response
        #: (the switch re-answers retransmitted requests) is recognized
        #: instead of treated as a protocol violation. Entries are
        #: dropped when their ID is reallocated to a fresh request.
        self._completed_recent: dict[int, PendingRequest] = {}
        #: request IDs whose channel is still *established* (rid -> RT
        #: channel ID). The switch's verdict dedup cache is keyed on
        #: (source MAC, request ID); reusing the ID of a live channel
        #: would let that cache re-answer the new request with the old
        #: channel's verdict, so live IDs stay reserved until their
        #: channel is torn down (:meth:`channel_torn_down`).
        self._live: dict[int, int] = {}
        self._next_hint = 1

    @property
    def outstanding(self) -> int:
        """Number of requests still awaiting a response."""
        return len(self._pending)

    def is_pending(self, connect_request_id: int) -> bool:
        """True while ``connect_request_id`` still awaits its response."""
        return connect_request_id in self._pending

    def pending_request(self, connect_request_id: int) -> PendingRequest:
        """The live record for a pending request (raises if not pending)."""
        request = self._pending.get(connect_request_id)
        if request is None:
            raise ProtocolError(
                f"connection request {connect_request_id} is not pending"
            )
        return request

    def _allocate_request_id(self) -> int:
        # Timed-out IDs stay reserved until their late response arrives
        # (or forever, if it was truly lost) -- reusing one would pair a
        # new request with a stale response. IDs of still-established
        # channels stay reserved too: the switch's verdict cache keyed
        # (source MAC, request ID) could otherwise re-answer a new
        # request with the live channel's old verdict. ID 0 is never
        # allocated (EXPLICIT_TEARDOWN_ID).
        in_use = len(self._pending) + len(self._timed_out) + len(self._live)
        if in_use >= self.MAX_OUTSTANDING:
            raise ProtocolError(
                "all 255 connection-request IDs are outstanding or bound "
                "to established channels; wait for responses or tear down "
                "channels before issuing more requests"
            )
        for offset in range(self.MAX_OUTSTANDING):
            candidate = 1 + (self._next_hint - 1 + offset) % self.MAX_OUTSTANDING
            if (
                candidate not in self._pending
                and candidate not in self._timed_out
                and candidate not in self._live
            ):
                self._next_hint = 1 + candidate % self.MAX_OUTSTANDING
                # the ID is being reused for a new logical request: a
                # duplicate of the *old* verdict must no longer match.
                self._completed_recent.pop(candidate, None)
                return candidate
        raise ProtocolError("request ID space exhausted")  # pragma: no cover

    def build_request(
        self,
        destination: str,
        destination_mac: int,
        destination_ip: int,
        period: int,
        capacity: int,
        deadline: int,
        *,
        retry: RetryPolicy | None = None,
        retry_rng=None,
        on_complete: Callable[..., None] | None = None,
    ) -> RequestFrame:
        """Create and register a RequestFrame for a new RT channel.

        The *RT channel ID* field is sent as 0 -- "not set with a valid
        value yet" per the paper; the switch assigns the real ID. The
        request's :class:`PendingRequest` keeps the frame together with
        ``retry``, ``retry_rng`` and ``on_complete``.
        """
        request_id = self._allocate_request_id()
        frame = RequestFrame(
            connect_request_id=request_id,
            rt_channel_id=0,
            source_mac=self._node_mac,
            destination_mac=destination_mac,
            source_ip=self._node_ip,
            destination_ip=destination_ip,
            period=period,
            capacity=capacity,
            deadline=deadline,
        )
        self._pending[request_id] = PendingRequest(
            frame=frame,
            destination=destination,
            retry=retry,
            retry_rng=retry_rng,
            on_complete=on_complete,
        )
        return frame

    def handle_response(self, response: ResponseFrame) -> ResponseOutcome:
        """Classify and consume one ResponseFrame from the switch.

        Never raises for unexpected responses: on lossy wires with
        retransmission, duplicated and stale responses are *expected*
        network behaviour, so they are classified
        (:class:`ResponseKind`) for the caller to count rather than
        treated as protocol violations.
        """
        rid = response.connect_request_id
        stale = self._timed_out.pop(rid, None)
        if stale is not None:
            # Late response for a locally abandoned request. Record the
            # channel ID so the caller can tear down the orphaned switch
            # reservation; the state stays TIMED_OUT.
            if response.ok:
                stale.rt_channel_id = response.rt_channel_id
            self._completed_recent[rid] = stale
            return ResponseOutcome(ResponseKind.LATE, stale)
        request = self._pending.pop(rid, None)
        if request is None:
            last = self._completed_recent.get(rid)
            if last is not None and self._matches_verdict(last, response):
                return ResponseOutcome(ResponseKind.DUPLICATE, last)
            return ResponseOutcome(ResponseKind.STALE, None)
        if response.ok:
            request.state = ConnectionRequestState.ACCEPTED
            request.rt_channel_id = response.rt_channel_id
            self._live[rid] = response.rt_channel_id
        else:
            request.state = ConnectionRequestState.REJECTED
        self._completed_recent[rid] = request
        return ResponseOutcome(ResponseKind.COMPLETED, request)

    @staticmethod
    def _matches_verdict(last: PendingRequest, response: ResponseFrame) -> bool:
        """Is ``response`` a repeat of the verdict already recorded?"""
        if response.ok:
            return last.rt_channel_id == response.rt_channel_id
        return last.state in (
            ConnectionRequestState.REJECTED,
            ConnectionRequestState.TIMED_OUT,
        )

    def channel_torn_down(self, rt_channel_id: int) -> None:
        """Release the request ID bound to a now-torn-down channel.

        Called by the network layer when this node explicitly tears a
        channel down (or learns it is gone). The ID becomes eligible
        for reallocation; its cached verdict is dropped at reallocation
        time so a straggling duplicate of the old response cannot be
        paired with a future request.
        """
        for rid, channel_id in list(self._live.items()):
            if channel_id == rt_channel_id:
                del self._live[rid]

    def timeout_request(self, connect_request_id: int) -> PendingRequest:
        """Abandon a pending request that received no response in time.

        The record transitions to ``TIMED_OUT`` and the ID stays
        reserved (see :meth:`_allocate_request_id`) so a late response
        can still be matched. Raises for unknown IDs.
        """
        request = self._pending.pop(connect_request_id, None)
        if request is None:
            raise ProtocolError(
                f"cannot time out unknown connection request "
                f"{connect_request_id}"
            )
        request.state = ConnectionRequestState.TIMED_OUT
        self._timed_out[connect_request_id] = request
        return request


#: Decision function a destination node applies to an offered channel:
#: given the (switch-stamped) RequestFrame, return True to accept.
DestinationPolicy = Callable[[RequestFrame], bool]


def accept_all(request: RequestFrame) -> bool:
    """The default destination policy: accept every offered channel.

    The paper's destination nodes may decline (the ResponseFrame exists
    for that purpose) but its evaluation never exercises a decline; real
    deployments would plug in resource checks here (CPU budget for the
    receiving task, buffer space, application-level authorization).
    """
    del request
    return True


def destination_response(
    request: RequestFrame, switch_mac: int, policy: DestinationPolicy
) -> ResponseFrame:
    """Build the destination node's ResponseFrame for an offered channel.

    The response's source MAC is the *switch* address per Figure 18.4 --
    the ResponseFrame format is shared by the destination->switch and
    switch->source messages, and carries the switch MAC as the stable
    addressing anchor.
    """
    if request.rt_channel_id == 0:
        raise ProtocolError(
            "offered channel carries no RT channel ID; the switch must "
            "stamp the ID before forwarding a request to the destination"
        )
    return ResponseFrame(
        connect_request_id=request.connect_request_id,
        rt_channel_id=request.rt_channel_id,
        switch_mac=switch_mac,
        ok=bool(policy(request)),
    )
