"""The logical Ethernet frame transported by the simulator.

The simulator does not shuffle real byte strings around (that would be
pure overhead); it transports :class:`EthernetFrame` records that carry
the *logical* content -- kind, endpoints, RT header, payload size -- plus
exact wire-size accounting so transmission times are faithful.

One record is allocated per frame, so :class:`EthernetFrame` is a plain
mutable ``__slots__`` dataclass (a frozen one pays an
``object.__setattr__`` call per field on construction) with identity
equality: a frame equals only itself. Nothing mutates a frame after
construction. The :class:`~repro.protocol.headers.RTHeader` it carries
stays frozen, because all ``C`` frames of one message share one header
object. The RT layer checks each message once and builds its ``C``
frames with :meth:`EthernetFrame._trusted_message`, which skips the
per-frame checks those frames always pass.

Three kinds of frame exist in the reproduced system (Figure 18.2):

* ``RT_DATA`` -- real-time UDP datagrams on an established channel; the
  RT layer has mangled their IP header (:mod:`repro.protocol.headers`),
  they travel through the deadline-sorted queues.
* ``BEST_EFFORT`` -- ordinary TCP/IP traffic; FCFS queues, may be
  dropped under buffer pressure.
* ``SIGNALING`` -- Request/Response/Teardown frames for channel
  management; the paper does not give them a queue class, so this
  implementation sends them through the *RT* queue with an immediate
  deadline is tempting but wrong (they have no reservation); instead
  they travel best-effort, which matches the paper's establishment phase
  happening "prior to any occurrence of real-time traffic".
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from ..errors import ConfigurationError
from ..units import ETH_MAX_PAYLOAD, frame_bytes_for_payload, wire_bytes
from .headers import RT_TOS, RTHeader

__all__ = ["FrameKind", "EthernetFrame", "reset_frame_ids"]

_frame_counter = itertools.count()


def reset_frame_ids() -> None:
    """Restart the debug frame-ID sequence at 0.

    ``frame_id`` exists purely for tracing (it is never used as a key),
    but reproducibility demands that the *same seeded scenario* emit the
    *same trace bytes* even when several scenarios run in one process.
    Network builders (:func:`repro.network.topology.build_star`,
    :class:`repro.multiswitch.simnet.FabricNetwork`) call this so every
    freshly built network numbers its frames from 0. Frames of two
    networks used interleaved may then share IDs -- acceptable for a
    debug label, and deterministic either way.
    """
    global _frame_counter
    _frame_counter = itertools.count()


class FrameKind(enum.Enum):
    """Traffic class of a frame, deciding which output queue it enters."""

    RT_DATA = "rt"
    BEST_EFFORT = "be"
    SIGNALING = "signaling"


@dataclass(slots=True, eq=False)
class EthernetFrame:
    """One frame in flight, with exact wire-size accounting.

    Attributes
    ----------
    kind:
        Traffic class (queue selection).
    source, destination:
        End-node names. For signalling frames the pseudo-node name
        ``"switch"`` may appear as either endpoint.
    payload_bytes:
        The IP datagram length carried in the Ethernet payload. Padding
        to the Ethernet minimum is applied automatically in the size
        properties.
    rt_header:
        The mangled IP header for RT frames (``None`` otherwise).
    channel_id:
        Originating RT channel for RT frames, ``-1`` otherwise.
    message_seq:
        Sequence number of the *message* (periodic release) this frame
        belongs to; RT messages larger than one frame are segmented into
        ``C`` frames sharing one ``message_seq``.
    fragment_index:
        Position of this frame within its message, ``0 .. C-1``.
    created_at:
        Simulator time the frame was generated by the application.
    frame_id:
        Sequential debug ID for tracing (reset per network build, see
        :func:`reset_frame_ids`; never used as a key).
    payload_object:
        Decoded signalling frame or other logical payload, when useful.
    """

    kind: FrameKind
    source: str
    destination: str
    payload_bytes: int
    rt_header: RTHeader | None = None
    channel_id: int = -1
    message_seq: int = -1
    fragment_index: int = 0
    created_at: int = 0
    frame_id: int = field(default_factory=lambda: next(_frame_counter))
    payload_object: object | None = None

    @classmethod
    def _trusted_message(
        cls,
        source: str,
        destination: str,
        rt_header: RTHeader,
        channel_id: int,
        message_seq: int,
        count: int,
        created_at: int,
    ) -> list["EthernetFrame"]:
        """The ``count`` maximum-size RT frames of one message, unchecked.

        Fills the slots directly, skipping :meth:`__post_init__`, and
        draws the frames' IDs in fragment order. Only for a header from
        :func:`~repro.protocol.headers.encode_rt_header` (ToS 255) and
        the channel ID it checked (``0 .. 2**16 - 1``): with the
        constant kind and payload size, such frames always pass the
        checks, so the RT layer checks each message once instead of
        each frame.
        """
        new = object.__new__
        kind = FrameKind.RT_DATA
        counter = _frame_counter
        frames = []
        for fragment in range(count):
            frame = new(cls)
            frame.kind = kind
            frame.source = source
            frame.destination = destination
            frame.payload_bytes = ETH_MAX_PAYLOAD
            frame.rt_header = rt_header
            frame.channel_id = channel_id
            frame.message_seq = message_seq
            frame.fragment_index = fragment
            frame.created_at = created_at
            frame.frame_id = next(counter)
            frame.payload_object = None
            frames.append(frame)
        return frames

    def __post_init__(self) -> None:
        if self.payload_bytes < 0:
            raise ConfigurationError(
                f"payload_bytes must be >= 0, got {self.payload_bytes}"
            )
        if self.kind is FrameKind.RT_DATA:
            if self.rt_header is None:
                raise ConfigurationError(
                    "RT data frames must carry a mangled RT header"
                )
            if not self.rt_header.is_realtime:
                raise ConfigurationError(
                    "RT data frame header must have ToS = 255"
                )
            if self.channel_id < 0:
                raise ConfigurationError(
                    "RT data frames must name their channel"
                )
        elif self.rt_header is not None and self.rt_header.is_realtime:
            raise ConfigurationError(
                f"{self.kind.value} frame must not carry an RT (ToS=255) header"
            )

    @property
    def mac_frame_bytes(self) -> int:
        """MAC-level frame size (header + padded payload + FCS)."""
        return frame_bytes_for_payload(self.payload_bytes)

    @property
    def wire_size_bytes(self) -> int:
        """Wire occupancy including preamble, SFD and inter-frame gap."""
        return wire_bytes(self.mac_frame_bytes)

    @property
    def absolute_deadline(self) -> int:
        """EDF deadline of an RT frame (from the mangled header).

        Read per frame by the switch and the metrics, so the ToS test is
        inline rather than a call to ``RTHeader.is_realtime``.
        """
        header = self.rt_header
        if header is None or header.tos != RT_TOS:
            raise ConfigurationError(
                f"frame {self.frame_id} ({self.kind.value}) has no deadline"
            )
        return header.absolute_deadline

    def describe(self) -> str:
        """Short human-readable identification for traces."""
        extra = ""
        if self.kind is FrameKind.RT_DATA:
            extra = (
                f" ch={self.channel_id} msg={self.message_seq}"
                f".{self.fragment_index} dl={self.absolute_deadline}"
            )
        return (
            f"frame#{self.frame_id} {self.kind.value} "
            f"{self.source}->{self.destination} {self.payload_bytes}B{extra}"
        )
