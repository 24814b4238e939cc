"""The end-node RT layer: channel table, segmentation, header mangling.

Figure 18.2 positions a thin *RT layer* between the Ethernet MAC and the
TCP/IP suite of every end node. On the sending side it is responsible
for:

* keeping the table of established channels this node sends on,
  including the uplink deadline part ``d_iu`` the switch's DPS chose at
  admission time (delivered in the channel grant);
* segmenting each periodic message of ``C_i`` timeslots into ``C_i``
  maximum-sized frames;
* writing the mangled IP header -- the 48-bit **end-to-end absolute
  deadline** and the channel ID -- into every frame
  (:mod:`repro.protocol.headers`), which is all the switch needs to
  EDF-schedule the downlink without per-channel state on its fast path;
* handing the frames to the uplink output port together with the
  *uplink* absolute deadline (``release + d_iu``) used locally for EDF
  ordering toward the switch.

Per-frame records are cheap: :class:`OutgoingFrame` (like the
:class:`~repro.protocol.ethernet.EthernetFrame` it wraps) is a plain
mutable ``__slots__`` record with identity equality, built once per
frame. The :class:`~repro.protocol.headers.RTHeader` that all ``C``
frames of one message share, and the :class:`ChannelGrant`, stay frozen.
A message's values are checked once, when its header is encoded; its
frames are then built without per-frame checks they would always pass.

The grant metadata (:class:`ChannelGrant`) is how the source node learns
``d_iu``: the published ResponseFrame format (Figure 18.4) has no field
for it, and the paper leaves the management-plane content abstract. In a
real implementation the grant travels in the response frame's mandatory
Ethernet padding (a 81-bit response rides in a 46-byte minimum payload,
leaving ample room); the simulator attaches it as structured metadata to
the same frame. See DESIGN.md, "Substitutions".
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ProtocolError, UnknownChannelError
from ..protocol.ethernet import EthernetFrame
from ..protocol.headers import encode_rt_header
from ..sim.trace import Observer
from .channel import ChannelSpec

__all__ = ["ChannelGrant", "OutgoingFrame", "RTLayer"]


@dataclass(frozen=True, slots=True)
class ChannelGrant:
    """Management-plane record of one established channel (sender view).

    Attributes
    ----------
    channel_id:
        Network-unique RT channel ID assigned by the switch (>= 1; the
        value 0 means "not valid" on the wire).
    source, destination:
        End-node names.
    spec:
        The admitted ``{P, C, d}`` triple, in timeslots.
    uplink_deadline_slots:
        ``d_iu`` chosen by the switch's DPS; the source node uses it for
        its local EDF queue.
    """

    channel_id: int
    source: str
    destination: str
    spec: ChannelSpec
    uplink_deadline_slots: int

    def __post_init__(self) -> None:
        if self.channel_id <= 0:
            raise ProtocolError(
                f"channel grant carries invalid channel ID {self.channel_id}"
            )
        if not (0 < self.uplink_deadline_slots < self.spec.deadline):
            raise ProtocolError(
                f"grant uplink deadline {self.uplink_deadline_slots} is not "
                f"inside (0, {self.spec.deadline})"
            )


@dataclass(slots=True, eq=False)
class OutgoingFrame:
    """One RT frame ready for the uplink queue, with its local EDF key."""

    frame: EthernetFrame
    uplink_deadline_ns: int


class RTLayer:
    """Sender-side RT layer state of one end node.

    Parameters
    ----------
    node_name:
        The owning node (source written into outgoing frames).
    slot_ns:
        Duration of one timeslot, for converting the grant's slot-based
        deadlines into simulator nanoseconds.
    obs:
        Optional :class:`~repro.sim.trace.Observer`; message
        segmentation emits ``rt.emit`` records (the birth event of every
        RT frame's lifecycle) and threads each frame into its channel's
        span trace.
    """

    def __init__(
        self,
        node_name: str,
        slot_ns: int,
        obs: Observer | None = None,
    ) -> None:
        if slot_ns <= 0:
            raise ProtocolError(f"slot_ns must be positive, got {slot_ns}")
        self._node = node_name
        self._slot_ns = slot_ns
        self._obs = obs
        self._grants: dict[int, ChannelGrant] = {}
        self._message_seq: dict[int, int] = {}

    @property
    def node_name(self) -> str:
        return self._node

    @property
    def slot_ns(self) -> int:
        """Timeslot duration this layer converts grant deadlines with."""
        return self._slot_ns

    @property
    def grants(self) -> dict[int, ChannelGrant]:
        """Established sending channels, keyed by channel ID (copy)."""
        return dict(self._grants)

    def install_grant(self, grant: ChannelGrant) -> None:
        """Record an established channel this node may send on."""
        if grant.source != self._node:
            raise ProtocolError(
                f"grant for source {grant.source!r} installed on node "
                f"{self._node!r}"
            )
        if grant.channel_id in self._grants:
            raise ProtocolError(
                f"channel {grant.channel_id} is already installed on "
                f"{self._node!r}"
            )
        self._grants[grant.channel_id] = grant
        self._message_seq[grant.channel_id] = 0

    def remove_grant(self, channel_id: int) -> ChannelGrant:
        """Forget a torn-down channel."""
        grant = self._grants.pop(channel_id, None)
        if grant is None:
            raise UnknownChannelError(
                f"node {self._node!r} has no channel {channel_id}"
            )
        self._message_seq.pop(channel_id, None)
        return grant

    def emit_message(self, channel_id: int, release_ns: int) -> list[OutgoingFrame]:
        """Segment one periodic message into ``C`` deadline-stamped frames.

        Every frame of the message carries the same end-to-end absolute
        deadline ``release + d_i`` in its mangled header and the same
        uplink EDF key ``release + d_iu``; a message is ``C_i`` timeslots
        of data, i.e. ``C_i`` maximum-sized frames (the paper's unit of
        capacity).

        Parameters
        ----------
        channel_id:
            An installed channel.
        release_ns:
            The message's release (generation) time.
        """
        grant = self._grants.get(channel_id)
        if grant is None:
            raise UnknownChannelError(
                f"node {self._node!r} cannot send on unknown channel "
                f"{channel_id}"
            )
        seq = self._message_seq[channel_id]
        self._message_seq[channel_id] = seq + 1
        end_to_end_deadline = release_ns + grant.spec.deadline * self._slot_ns
        uplink_deadline = release_ns + grant.uplink_deadline_slots * self._slot_ns
        # The message's one check: the deadline fits 48 bits and the
        # channel ID 16, so every frame passes EthernetFrame's checks.
        header = encode_rt_header(end_to_end_deadline, channel_id)
        frames = [
            OutgoingFrame(frame, uplink_deadline)
            for frame in EthernetFrame._trusted_message(
                self._node, grant.destination, header, channel_id, seq,
                grant.spec.capacity, release_ns,
            )
        ]
        if self._obs is not None:
            self._obs.emitted(
                release_ns, self._node, channel_id, seq,
                end_to_end_deadline, uplink_deadline, frames,
            )
        return frames

    def message_count(self, channel_id: int) -> int:
        """Messages emitted so far on ``channel_id``."""
        if channel_id not in self._message_seq:
            raise UnknownChannelError(
                f"node {self._node!r} has no channel {channel_id}"
            )
        return self._message_seq[channel_id]
