"""Switch-side RT channel management (Section 18.2.2, Figure 18.2).

The *RT channel management software* in the switch mediates every
channel establishment:

1. receive a RequestFrame from a source node;
2. run admission control (feasibility on uplink and downlink with the
   DPS-chosen deadline partition);
3. on failure, answer the source directly with a negative ResponseFrame
   ("the RequestFrame is not forwarded to the destination node");
4. on success, reserve the channel, stamp the network-unique RT channel
   ID into the request and forward it to the destination;
5. receive the destination's ResponseFrame; if the destination declines,
   release the reservation; either way forward the verdict to the
   source, attaching the :class:`~repro.core.rt_layer.ChannelGrant` on
   acceptance so the source learns its ``d_iu``.

This class is pure protocol logic: it consumes decoded frames and
returns :class:`SignalAction` records naming which node should receive
which frame. The network-layer :class:`~repro.network.switch.Switch`
turns the actions into Ethernet frames on the right output ports, and
unit tests drive the manager directly with no simulator at all.

The reservation is taken *before* the destination answers (step 4), so
two racing requests can never both pass feasibility into the same
capacity; a declined offer releases it (step 5). This resolves a race
the paper does not discuss but any implementation must.

Loss tolerance
--------------
On lossy wires the manager must survive three situations the error-free
paper never meets:

* a **lost destination response** strands the step-4 reservation; with
  ``lease_ns`` set, every pending offer carries a sim-time expiry and
  :meth:`reclaim_expired` releases the capacity back to admission
  control (counted as ``signal.lease_reclaims``);
* a **retransmitted RequestFrame** must not run admission twice --
  duplicates of a still-pending offer re-forward the stamped offer (and
  refresh its lease), duplicates of an already-decided request are
  re-answered from a bounded completed-verdict cache so the source
  eventually hears the verdict even when the first response was lost;
* **stale/duplicate ResponseFrames and TeardownFrames** (for channels
  already resolved or released) are absorbed and counted
  (``signal.stale_frames``), never raised.

With ``lease_ns=None`` (the default) every one of these behaviours is
disabled and the manager is byte-for-byte the paper's error-free state
machine.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from ..errors import ProtocolError, UnknownChannelError
from ..protocol.frames import RequestFrame, ResponseFrame, TeardownFrame
from .admission import AdmissionController, AdmissionDecision
from .channel import ChannelSpec, ChannelState, RTChannel
from .rt_layer import ChannelGrant

__all__ = ["NodeDirectory", "SignalAction", "SwitchChannelManager"]

#: How long a completed verdict stays re-answerable (sim ns) when leases
#: are enabled (with leases off, no verdict is retained). Source retry
#: schedules must finish within this window.
DEFAULT_RESPONSE_CACHE_NS = 1_000_000_000

#: Completed-verdict cache capacity (entries); oldest evicted first.
_RESPONSE_CACHE_MAX = 4096


@dataclass(frozen=True, slots=True)
class NodeAddress:
    """MAC/IP pair registered for one end node."""

    name: str
    mac: int
    ip: int


class NodeDirectory:
    """Name <-> address resolution for the switch.

    The signalling frames carry MAC and IP addresses (Figure 18.3); the
    admission machinery works with node names. Registration happens when
    the topology is built -- the paper's system state ``{N, K}`` lists
    connected nodes explicitly.
    """

    def __init__(self) -> None:
        self._by_name: dict[str, NodeAddress] = {}
        self._by_mac: dict[int, NodeAddress] = {}

    def register(self, name: str, mac: int, ip: int) -> None:
        if name in self._by_name:
            raise ProtocolError(f"node {name!r} is already registered")
        if mac in self._by_mac:
            raise ProtocolError(
                f"MAC {mac:#014x} is already registered to "
                f"{self._by_mac[mac].name!r}"
            )
        address = NodeAddress(name=name, mac=mac, ip=ip)
        self._by_name[name] = address
        self._by_mac[mac] = address

    def by_name(self, name: str) -> NodeAddress:
        address = self._by_name.get(name)
        if address is None:
            raise ProtocolError(f"unknown node name {name!r}")
        return address

    def by_mac(self, mac: int) -> NodeAddress:
        address = self._by_mac.get(mac)
        if address is None:
            raise ProtocolError(f"unknown MAC address {mac:#014x}")
        return address

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._by_name))


@dataclass(frozen=True, slots=True)
class SignalAction:
    """One frame the switch should emit toward one node.

    ``grant`` is attached on the final positive response to the source
    (management metadata riding in the response's padding; see
    :mod:`repro.core.rt_layer`).
    """

    target: str
    frame: RequestFrame | ResponseFrame | TeardownFrame
    grant: ChannelGrant | None = None


@dataclass(slots=True)
class _PendingOffer:
    """One channel reserved but awaiting the destination's verdict."""

    channel: RTChannel
    #: the stamped request forwarded to the destination (kept verbatim
    #: so a retransmitted source request re-forwards the same offer).
    request: RequestFrame
    #: sim time at which the reservation lease expires (None = forever).
    expires_at: int | None


@dataclass(slots=True)
class _CompletedVerdict:
    """The final answer for one decided logical request, re-answerable."""

    ok: bool
    channel_id: int
    grant: ChannelGrant | None
    #: sim time after which a same-keyed request is treated as *new*.
    expires_at: int
    #: (destination_mac, period, capacity, deadline) of the request that
    #: produced this verdict. A node that reuses a connect-request ID
    #: under churn produces the *same* cache key for a *different*
    #: logical request; the fingerprint tells them apart so the stale
    #: verdict is flushed instead of re-answered. ``None`` only for
    #: verdicts imported from pre-fingerprint snapshots (treated as
    #: matching, preserving the old behaviour for old data).
    fingerprint: tuple[int, int, int, int] | None = None


class SwitchChannelManager:
    """The establishment/teardown state machine around admission control.

    Parameters
    ----------
    admission:
        The switch's admission controller (owns the system state).
    directory:
        Address resolution for the connected nodes.
    switch_mac:
        The switch's own MAC, written into every ResponseFrame it
        originates (Figure 18.4's source field).
    lease_ns:
        Reservation-lease duration. ``None`` (default) disables every
        loss-tolerance behaviour (see module docstring); the network
        layer is then responsible for never losing signalling frames.
        With leases on, completed verdicts stay re-answerable for
        duplicate requests for :data:`DEFAULT_RESPONSE_CACHE_NS`.
    """

    def __init__(
        self,
        admission: AdmissionController,
        directory: NodeDirectory,
        switch_mac: int,
        *,
        lease_ns: int | None = None,
    ) -> None:
        if lease_ns is not None and lease_ns <= 0:
            raise ProtocolError(f"lease_ns must be positive, got {lease_ns}")
        self._admission = admission
        self._directory = directory
        self._switch_mac = switch_mac
        self._lease_ns = lease_ns
        #: completed-verdict retention: recorded in snapshots and
        #: cross-checked on import like the other settings.
        self._response_cache_ns = (
            None if lease_ns is None else DEFAULT_RESPONSE_CACHE_NS
        )
        #: channels reserved but awaiting the destination's verdict,
        #: keyed by channel ID.
        self._awaiting_destination: dict[int, _PendingOffer] = {}
        #: (source MAC, connect request ID) -> channel ID of the pending
        #: offer, so a retransmitted request finds its reservation.
        self._offer_by_request: dict[tuple[int, int], int] = {}
        #: decided logical requests, re-answerable while fresh; ordered
        #: oldest-first for O(1) expiry/eviction.
        self._completed: OrderedDict[tuple[int, int], _CompletedVerdict] = (
            OrderedDict()
        )
        self.decisions: list[AdmissionDecision] = []
        # loss-tolerance statistics (plain ints; always maintained)
        self.stale_frames = 0
        self.lease_reclaims = 0
        self.duplicate_requests = 0
        #: lease reclaims that found the capacity already released by a
        #: racing teardown (counted, never raised; see reclaim_expired).
        self.reclaim_races = 0

    @property
    def admission(self) -> AdmissionController:
        return self._admission

    @property
    def pending_offers(self) -> int:
        """Channels reserved but not yet confirmed by their destination."""
        return len(self._awaiting_destination)

    @property
    def lease_ns(self) -> int | None:
        return self._lease_ns

    def pending_offer_leases(self) -> tuple[tuple[int, int], ...]:
        """``(channel_id, lease_expiry_ns)`` of every leased pending offer.

        Sorted by channel ID for determinism. Offers without a lease
        (``lease_ns=None``) are omitted -- they cannot leak by
        construction because the error-free state machine always
        resolves them. The invariant monitor polls this to assert no
        expiry lies in the past.
        """
        return tuple(
            (channel_id, offer.expires_at)
            for channel_id, offer in sorted(
                self._awaiting_destination.items()
            )
            if offer.expires_at is not None
        )

    # -- request path -----------------------------------------------------

    def handle_request(
        self, request: RequestFrame, now: int = 0
    ) -> list[SignalAction]:
        """Process a source node's RequestFrame (steps 2-4 above).

        ``now`` is the switch's sim clock; it stamps lease expiries and
        ages the completed-verdict cache. The default keeps direct
        (simulator-less) unit-test drives working unchanged.
        """
        self._purge_completed(now)
        source = self._directory.by_mac(request.source_mac)
        destination = self._directory.by_mac(request.destination_mac)
        key = (request.source_mac, request.connect_request_id)
        # A retransmission of an offer still awaiting its destination:
        # re-forward the identical stamped offer, refresh the lease, and
        # do NOT run admission again (the reservation already exists).
        offered_id = self._offer_by_request.get(key)
        if offered_id is not None:
            offer = self._awaiting_destination[offered_id]
            if offer.expires_at is not None:
                offer.expires_at = now + self._lease_ns
            self.duplicate_requests += 1
            return [SignalAction(target=destination.name, frame=offer.request)]
        # A retransmission of an already-decided request: re-answer from
        # the cache (the first final response was evidently lost). A
        # cached verdict whose fingerprint does not match the incoming
        # parameters is a *reused* request ID carrying a new logical
        # request -- flush it and run fresh admission below.
        verdict = self._completed.get(key)
        if verdict is not None and not self._fingerprint_matches(
            verdict, request
        ):
            del self._completed[key]
            verdict = None
        if verdict is not None:
            self.duplicate_requests += 1
            reply = ResponseFrame(
                connect_request_id=request.connect_request_id,
                rt_channel_id=verdict.channel_id if verdict.ok else 0,
                switch_mac=self._switch_mac,
                ok=verdict.ok,
            )
            return [
                SignalAction(
                    target=source.name, frame=reply, grant=verdict.grant
                )
            ]
        spec = ChannelSpec(
            period=request.period,
            capacity=request.capacity,
            deadline=request.deadline,
        )
        decision = self._admission.request(source.name, destination.name, spec)
        self.decisions.append(decision)
        if not decision.accepted:
            self._record_verdict(
                key,
                ok=False,
                channel_id=0,
                grant=None,
                now=now,
                fingerprint=self._fingerprint_of(request),
            )
            reject = ResponseFrame(
                connect_request_id=request.connect_request_id,
                rt_channel_id=0,
                switch_mac=self._switch_mac,
                ok=False,
            )
            return [SignalAction(target=source.name, frame=reject)]
        channel = decision.channel
        stamped = request.with_channel_id(channel.channel_id)
        expires = None if self._lease_ns is None else now + self._lease_ns
        self._awaiting_destination[channel.channel_id] = _PendingOffer(
            channel=channel, request=stamped, expires_at=expires
        )
        self._offer_by_request[key] = channel.channel_id
        channel.state = ChannelState.OFFERED
        return [SignalAction(target=destination.name, frame=stamped)]

    # -- response path ------------------------------------------------------

    def handle_response(
        self, response: ResponseFrame, now: int = 0
    ) -> list[SignalAction]:
        """Process the destination's ResponseFrame (step 5 above).

        A response for a channel that is not awaiting a verdict (already
        resolved, or its lease was reclaimed) is absorbed and counted,
        not raised: on lossy wires with retransmission it is expected
        network behaviour, and duplicated verdicts are already handled
        idempotently on the source side.
        """
        self._purge_completed(now)
        pending = self._awaiting_destination.pop(response.rt_channel_id, None)
        if pending is None:
            self.stale_frames += 1
            return []
        channel, request = pending.channel, pending.request
        del self._offer_by_request[
            (request.source_mac, request.connect_request_id)
        ]
        key = (request.source_mac, request.connect_request_id)
        source = self._directory.by_mac(request.source_mac)
        forwarded = ResponseFrame(
            connect_request_id=request.connect_request_id,
            rt_channel_id=channel.channel_id,
            switch_mac=self._switch_mac,
            ok=response.ok,
        )
        if not response.ok:
            self._admission.release(channel.channel_id)
            channel.state = ChannelState.REJECTED
            self._record_verdict(
                key,
                ok=False,
                channel_id=0,
                grant=None,
                now=now,
                fingerprint=self._fingerprint_of(request),
            )
            return [SignalAction(target=source.name, frame=forwarded)]
        channel.state = ChannelState.ACTIVE
        grant = ChannelGrant(
            channel_id=channel.channel_id,
            source=channel.source,
            destination=channel.destination,
            spec=channel.spec,
            uplink_deadline_slots=channel.uplink_deadline,
        )
        self._record_verdict(
            key,
            ok=True,
            channel_id=channel.channel_id,
            grant=grant,
            now=now,
            fingerprint=self._fingerprint_of(request),
        )
        return [SignalAction(target=source.name, frame=forwarded, grant=grant)]

    # -- teardown path --------------------------------------------------------

    def handle_teardown(self, teardown: TeardownFrame) -> list[SignalAction]:
        """Release an active channel (extension; see frames module).

        Fire-and-forget: the source already dropped its grant before
        sending the teardown, so no confirmation flows back (a stray
        confirmation would collide with the connect-request ID space --
        the paper defines no release handshake at all). Sources repeat
        TeardownFrames on lossy wires, so an unknown / already-released
        channel ID is absorbed and counted, never raised.

        A teardown naming a channel that is still a *pending offer* is
        also absorbed: a conforming source can only tear down a channel
        it was granted, so such a frame is a stray duplicate whose ID
        was reclaimed and reissued to a new offer. Releasing it here
        would free capacity the offer still holds -- and a subsequent
        :meth:`reclaim_expired` for the same offer would then release it
        a second time (the double-release race this guard closes).
        """
        if teardown.rt_channel_id in self._awaiting_destination:
            self.stale_frames += 1
            return []
        try:
            self._admission.release(teardown.rt_channel_id)
        except UnknownChannelError:
            self.stale_frames += 1
            return []
        # The channel is gone: a duplicate request for the logical
        # request that created it must not resurrect the dead grant.
        self._forget_channel_verdicts(teardown.rt_channel_id)
        return []

    # -- reservation leases -------------------------------------------------

    def reclaim_expired(self, now: int) -> tuple[int, ...]:
        """Release every pending offer whose lease expired by ``now``.

        Returns the reclaimed channel IDs (empty when leases are off or
        nothing expired). A late destination response for a reclaimed
        channel is subsequently absorbed as stale; a retransmitted
        source request re-runs admission from scratch.
        """
        expired = [
            channel_id
            for channel_id, offer in self._awaiting_destination.items()
            if offer.expires_at is not None and now >= offer.expires_at
        ]
        for channel_id in expired:
            offer = self._awaiting_destination.pop(channel_id)
            del self._offer_by_request[
                (offer.request.source_mac, offer.request.connect_request_id)
            ]
            try:
                self._admission.release(channel_id)
            except UnknownChannelError:
                # An in-flight teardown (or another release path) beat
                # this reclaim to the capacity. Count the race; raising
                # here would tear the whole service down over a frame
                # ordering the protocol explicitly tolerates.
                self.reclaim_races += 1
            offer.channel.state = ChannelState.REJECTED
            self.lease_reclaims += 1
        return tuple(expired)

    # -- completed-verdict cache ---------------------------------------------

    @staticmethod
    def _fingerprint_of(request: RequestFrame) -> tuple[int, int, int, int]:
        """The identity of a *logical* request behind a cache key."""
        return (
            request.destination_mac,
            request.period,
            request.capacity,
            request.deadline,
        )

    @classmethod
    def _fingerprint_matches(
        cls, verdict: _CompletedVerdict, request: RequestFrame
    ) -> bool:
        if verdict.fingerprint is None:
            return True  # pre-fingerprint snapshot entry
        return verdict.fingerprint == cls._fingerprint_of(request)

    def _record_verdict(
        self,
        key: tuple[int, int],
        *,
        ok: bool,
        channel_id: int,
        grant: ChannelGrant | None,
        now: int,
        fingerprint: tuple[int, int, int, int] | None = None,
    ) -> None:
        if self._response_cache_ns is None:
            return
        self._completed.pop(key, None)
        self._completed[key] = _CompletedVerdict(
            ok=ok,
            channel_id=channel_id,
            grant=grant,
            expires_at=now + self._response_cache_ns,
            fingerprint=fingerprint,
        )
        while len(self._completed) > _RESPONSE_CACHE_MAX:
            self._completed.popitem(last=False)

    def _purge_completed(self, now: int) -> None:
        while self._completed:
            key, verdict = next(iter(self._completed.items()))
            if now < verdict.expires_at:
                break
            del self._completed[key]

    def _forget_channel_verdicts(self, channel_id: int) -> None:
        if not self._completed:
            return
        dead = [
            key
            for key, verdict in self._completed.items()
            if verdict.ok and verdict.channel_id == channel_id
        ]
        for key in dead:
            del self._completed[key]

    # -- persistence ---------------------------------------------------------

    def export_signalling_state(self) -> dict:
        """Serialize the in-flight signalling state for a snapshot.

        Covers everything a switch reboot would otherwise forget: the
        pending offers (reserved channels still awaiting the
        destination's ResponseFrame, with their lease expiries and the
        stamped request frames needed to re-forward on a retransmit),
        the completed-verdict cache (in eviction order, so duplicate
        suppression behaves identically after restore), and the
        loss-tolerance counters. Configuration (``lease_ns``, the
        ``response_cache_ns`` retention that follows from it,
        ``switch_mac``) is recorded for cross-checking at import time --
        it is code-supplied, not restored.
        """
        offers = []
        for channel_id in sorted(self._awaiting_destination):
            offer = self._awaiting_destination[channel_id]
            request = offer.request
            offers.append(
                {
                    "channel_id": channel_id,
                    "expires_at": offer.expires_at,
                    "request": {
                        "connect_request_id": request.connect_request_id,
                        "rt_channel_id": request.rt_channel_id,
                        "source_mac": request.source_mac,
                        "destination_mac": request.destination_mac,
                        "source_ip": request.source_ip,
                        "destination_ip": request.destination_ip,
                        "period": request.period,
                        "capacity": request.capacity,
                        "deadline": request.deadline,
                    },
                }
            )
        completed = []
        for key, verdict in self._completed.items():
            grant = verdict.grant
            completed.append(
                {
                    "source_mac": key[0],
                    "connect_request_id": key[1],
                    "ok": verdict.ok,
                    "channel_id": verdict.channel_id,
                    "expires_at": verdict.expires_at,
                    "fingerprint": None
                    if verdict.fingerprint is None
                    else list(verdict.fingerprint),
                    "grant": None
                    if grant is None
                    else {
                        "channel_id": grant.channel_id,
                        "source": grant.source,
                        "destination": grant.destination,
                        "period": grant.spec.period,
                        "capacity": grant.spec.capacity,
                        "deadline": grant.spec.deadline,
                        "uplink_deadline_slots": grant.uplink_deadline_slots,
                    },
                }
            )
        return {
            "switch_mac": self._switch_mac,
            "lease_ns": self._lease_ns,
            "response_cache_ns": self._response_cache_ns,
            "pending_offers": offers,
            "completed": completed,
            "counters": {
                "stale_frames": self.stale_frames,
                "lease_reclaims": self.lease_reclaims,
                "duplicate_requests": self.duplicate_requests,
                "reclaim_races": self.reclaim_races,
            },
        }

    def import_signalling_state(self, data: dict) -> None:
        """Rebuild the signalling state from :meth:`export_signalling_state`.

        The manager must be freshly constructed around the *restored*
        admission controller (pending offers reference its channel
        objects by ID) with the same configuration the snapshot was
        taken under; a config mismatch is refused because lease and
        cache expiries stamped under one timing regime are meaningless
        under another.
        """
        from ..errors import ConfigurationError

        for field in ("switch_mac", "lease_ns", "response_cache_ns"):
            recorded = data.get(field)
            configured = getattr(self, f"_{field}")
            if recorded != configured:
                raise ConfigurationError(
                    f"signalling snapshot was taken with {field}="
                    f"{recorded!r} but this manager is configured with "
                    f"{configured!r}; construct the manager with the "
                    f"snapshot's configuration before importing"
                )
        if self._awaiting_destination or self._completed:
            raise ConfigurationError(
                "import_signalling_state requires a fresh manager "
                "(pending offers or cached verdicts already present)"
            )
        for record in data.get("pending_offers", ()):
            channel_id = record["channel_id"]
            channel = self._admission.state.channel(channel_id)
            channel.state = ChannelState.OFFERED
            request = RequestFrame(**record["request"])
            self._awaiting_destination[channel_id] = _PendingOffer(
                channel=channel,
                request=request,
                expires_at=record["expires_at"],
            )
            self._offer_by_request[
                (request.source_mac, request.connect_request_id)
            ] = channel_id
        for record in data.get("completed", ()):
            grant_data = record["grant"]
            grant = (
                None
                if grant_data is None
                else ChannelGrant(
                    channel_id=grant_data["channel_id"],
                    source=grant_data["source"],
                    destination=grant_data["destination"],
                    spec=ChannelSpec(
                        period=grant_data["period"],
                        capacity=grant_data["capacity"],
                        deadline=grant_data["deadline"],
                    ),
                    uplink_deadline_slots=grant_data[
                        "uplink_deadline_slots"
                    ],
                )
            )
            fingerprint = record.get("fingerprint")
            self._completed[
                (record["source_mac"], record["connect_request_id"])
            ] = _CompletedVerdict(
                ok=record["ok"],
                channel_id=record["channel_id"],
                grant=grant,
                expires_at=record["expires_at"],
                fingerprint=None if fingerprint is None else tuple(fingerprint),
            )
        counters = data.get("counters", {})
        self.stale_frames = int(counters.get("stale_frames", 0))
        self.lease_reclaims = int(counters.get("lease_reclaims", 0))
        self.duplicate_requests = int(counters.get("duplicate_requests", 0))
        self.reclaim_races = int(counters.get("reclaim_races", 0))

    # -- forwarding-plane lookups -----------------------------------------------

    def destination_of(self, channel_id: int) -> str:
        """Where the forwarding plane should send frames of ``channel_id``."""
        return self._admission.state.channel(channel_id).destination
