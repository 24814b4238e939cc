"""Bit-exact RequestFrame / ResponseFrame codecs (Figures 18.3 and 18.4).

The RT-channel establishment handshake uses two signalling frames whose
data fields the paper specifies down to the bit:

**RequestFrame** (Figure 18.3), carried in an Ethernet frame addressed
to the switch:

======================================  =====
field                                   bits
======================================  =====
Type (= Connect packet)                 8
Connection request ID                   8
RT channel ID (not yet valid)           16
Source MAC address                      48
Destination MAC address                 48
IP source address                       32
IP destination address                  32
T_period                                32
C (capacity)                            32
T_deadline                              32
======================================  =====

Total 288 bits = 36 bytes.

**ResponseFrame** (Figure 18.4):

======================================  =====
field                                   bits
======================================  =====
Type (= Response packet)                8
Connection request ID                   8
RT channel ID                           16
Switch (source) MAC address             48
Response (0 = Not OK, 1 = OK)           1
======================================  =====

Total 81 bits, padded with 7 zero bits to 11 bytes.

Field *widths* are taken verbatim from the figures. The *serialization
order* within the data field is not fully recoverable from the published
figure text, so this implementation fixes the canonical order above
(type tag first, then identifiers, addresses, parameters) and documents
it; any order-preserving permutation would interoperate only with
itself, and the paper's own prototype is not available to match against.

Each frame class declares this layout once, as data: its fields in wire
order, each with its width (``period: int = _bits(32)``), after its
8-bit ``TYPE`` tag. The shared base class derives everything else from
the declaration -- the range check on construction, ``encode()`` (one
shift-or pass, MSB first, the last byte zero-padded) and the decoder
behind :func:`decode_signaling` (one ``int.from_bytes``, then one
shift-and-mask per field). A value that does not fit its field raises
:class:`~repro.errors.FieldRangeError` instead of being silently
truncated: the paper's field widths are protocol invariants.

A :class:`TeardownFrame` (type 3) is added as a natural extension -- the
paper establishes channels dynamically but does not give a release
frame; a real deployment needs one, and the admission controller
supports release.

Two further extension frames support multi-switch coordination on
shared links (the paper's switch is alone; a fabric is not):

* :class:`IntentFrame` (type 4) implements the announce-wait-commit
  intent lock: a switch announces its intention to reserve capacity on
  a link it does not own, waits a hold period listening for conflicting
  announcements, and commits (or aborts) -- ``kind`` carries the
  :class:`IntentKind` leg, and conflicts are broken by the
  deterministic ``(priority, switch_mac, intent_seq)`` order carried in
  the frame.
* :class:`GossipFrame` (type 5) carries a per-link occupancy digest
  (load, reserved utilization as an exact fraction, view version) for
  threshold-triggered anti-entropy between the switches' views.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields, replace
from typing import ClassVar

from ..errors import CodecError, FieldRangeError

__all__ = [
    "FrameType",
    "IntentKind",
    "RequestFrame",
    "ResponseFrame",
    "TeardownFrame",
    "IntentFrame",
    "GossipFrame",
    "decode_signaling",
    "REQUEST_FRAME_BYTES",
    "RESPONSE_FRAME_BYTES",
    "TEARDOWN_FRAME_BYTES",
    "INTENT_FRAME_BYTES",
    "GOSSIP_FRAME_BYTES",
]

#: Encoded size of a RequestFrame data field (288 bits).
REQUEST_FRAME_BYTES = 36
#: Encoded size of a ResponseFrame data field (81 bits, padded).
RESPONSE_FRAME_BYTES = 11
#: Encoded size of a TeardownFrame data field (32 bits).
TEARDOWN_FRAME_BYTES = 4
#: Encoded size of an IntentFrame data field (280 bits).
INTENT_FRAME_BYTES = 35
#: Encoded size of a GossipFrame data field (184 bits).
GOSSIP_FRAME_BYTES = 23


class FrameType(enum.IntEnum):
    """The 8-bit Type field of the signalling frames."""

    CONNECT = 1
    RESPONSE = 2
    TEARDOWN = 3  # extension, see module docstring
    INTENT = 4  # extension: multi-switch intent lock
    GOSSIP = 5  # extension: multi-switch occupancy anti-entropy


class IntentKind(enum.IntEnum):
    """The 8-bit sub-kind field of an :class:`IntentFrame`."""

    ANNOUNCE = 0
    ACK = 1
    COMMIT = 2
    ABORT = 3
    RELEASE = 4


def _bits(width: int, kind: type = int):
    """Declare the next wire field: ``width`` bits holding a ``kind``."""
    return field(metadata={"bits": width, "kind": kind})


class _Frame:
    """The codec every signalling frame derives from its declaration.

    A subclass is a frozen slots dataclass with a ``TYPE`` tag and its
    fields declared in wire order with :func:`_bits`;
    :func:`_dispatch_table` reads the declarations once and fills in the
    class-level layout below.
    """

    __slots__ = ()

    TYPE: ClassVar[FrameType]
    #: (name, width, kind) per field, in wire order.
    _FIELDS: ClassVar[tuple[tuple[str, int, type], ...]]
    #: tag plus fields, in bits; and the encoded size in whole bytes.
    _BITS: ClassVar[int]
    _SIZE: ClassVar[int]
    #: (shift, mask) per field, reading the fields out of the tag-led
    #: ``_BITS``-bit integer.
    _UNPACK: ClassVar[tuple[tuple[int, int], ...]]
    #: (index, kind) of the fields whose kind is not a plain int.
    _TYPED: ClassVar[tuple[tuple[int, type], ...]]

    def __post_init__(self) -> None:
        for name, width, kind in self._FIELDS:
            value = getattr(self, name)
            if type(value) is not kind and (
                not isinstance(value, kind) or isinstance(value, bool)
            ):
                raise FieldRangeError(
                    f"{name} must be {kind.__name__}, got {value!r}"
                )
            if value < 0 or value >> width:
                raise FieldRangeError(
                    f"{name} = {value} does not fit in the {width}-bit "
                    f"field declared by the paper "
                    f"(range 0..{(1 << width) - 1})"
                )

    def encode(self) -> bytes:
        """Serialize: the tag, then each field MSB first, zero-padded."""
        value = self.TYPE
        for name, width, _ in self._FIELDS:
            value = value << width | getattr(self, name)
        size = self._SIZE
        return (value << 8 * size - self._BITS).to_bytes(size, "big")

    @classmethod
    def _decode(cls, data: bytes) -> "_Frame":
        """Read the fields after the tag that selected ``cls``."""
        spare = 8 * len(data) - cls._BITS
        if spare < 0:
            raise CodecError(
                f"frame truncated: a {cls.__name__} needs {cls._BITS} bits "
                f"but only {8 * len(data)} arrived"
            )
        value = int.from_bytes(data, "big")
        if value & ((1 << spare) - 1):
            raise CodecError(
                f"nonzero trailing padding ({spare} bits, value "
                f"{value & ((1 << spare) - 1):#x}); frame is corrupt or "
                f"misframed"
            )
        value >>= spare
        args = [value >> shift & mask for shift, mask in cls._UNPACK]
        for index, kind in cls._TYPED:
            try:
                args[index] = kind(args[index])
            except ValueError:
                raise CodecError(
                    f"unknown {kind.__name__} {args[index]:#04x}"
                ) from None
        return cls(*args)


@dataclass(frozen=True, slots=True)
class RequestFrame(_Frame):
    """Decoded form of the Figure 18.3 connection request.

    ``rt_channel_id`` is 0 (not yet valid) when the source emits the
    request; the switch overwrites it with the network-unique ID before
    forwarding the request to the destination (Section 18.2.2).
    """

    TYPE = FrameType.CONNECT

    connect_request_id: int = _bits(8)
    rt_channel_id: int = _bits(16)
    source_mac: int = _bits(48)
    destination_mac: int = _bits(48)
    source_ip: int = _bits(32)
    destination_ip: int = _bits(32)
    period: int = _bits(32)
    capacity: int = _bits(32)
    deadline: int = _bits(32)

    def with_channel_id(self, rt_channel_id: int) -> "RequestFrame":
        """The switch's rewrite before forwarding to the destination."""
        return replace(self, rt_channel_id=rt_channel_id)


@dataclass(frozen=True, slots=True)
class ResponseFrame(_Frame):
    """Decoded form of the Figure 18.4 connection response.

    Sent by the destination node to the switch (accept/decline), and by
    the switch to the source node (final verdict, also used for direct
    rejection when the feasibility test fails).
    """

    TYPE = FrameType.RESPONSE

    connect_request_id: int = _bits(8)
    rt_channel_id: int = _bits(16)
    switch_mac: int = _bits(48)
    ok: bool = _bits(1, bool)


@dataclass(frozen=True, slots=True)
class TeardownFrame(_Frame):
    """Release an active RT channel (extension frame, type 3)."""

    TYPE = FrameType.TEARDOWN

    connect_request_id: int = _bits(8)
    rt_channel_id: int = _bits(16)


@dataclass(frozen=True, slots=True)
class IntentFrame(_Frame):
    """One leg of the announce-wait-commit intent lock (type 4).

    ``intent_seq`` is the announcing switch's per-switch monotone
    sequence number; together with ``switch_mac`` it names the intent
    network-uniquely. ``priority`` and the ``(priority, switch_mac,
    intent_seq)`` triple give the deterministic conflict order (lower
    wins). ``ack_mac`` is the acknowledging switch on ACK legs (0
    otherwise). ``channel_id`` is the channel the intent is for -- the
    announcing switch pre-allocates it from its stride-partitioned ID
    space, so ANNOUNCE/COMMIT/ABORT legs of one intent all name the
    same channel and RELEASE needs no extra lookup.
    """

    TYPE = FrameType.INTENT

    kind: IntentKind = _bits(8, IntentKind)
    intent_seq: int = _bits(32)
    switch_mac: int = _bits(48)
    ack_mac: int = _bits(48)
    link_id: int = _bits(16)
    channel_id: int = _bits(16)
    priority: int = _bits(8)
    period: int = _bits(32)
    capacity: int = _bits(32)
    deadline: int = _bits(32)

    @property
    def precedence(self) -> tuple[int, int, int]:
        """Deterministic conflict order: lowest triple wins the link."""
        return (self.priority, self.switch_mac, self.intent_seq)


@dataclass(frozen=True, slots=True)
class GossipFrame(_Frame):
    """Per-link occupancy digest for view anti-entropy (type 5).

    ``version`` is the sending switch's per-link view version (bumped
    on every local commit/release affecting the link). A receiver whose
    own version for ``link_id`` is *newer* than the digest's treats the
    sender as behind and replays its committed intents (and recent
    releases) for the link back to it; a receiver that is level or
    behind does nothing. The reserved utilization travels as an exact
    fraction (numerator/denominator).
    """

    TYPE = FrameType.GOSSIP

    switch_mac: int = _bits(48)
    link_id: int = _bits(16)
    version: int = _bits(32)
    load: int = _bits(16)
    util_num: int = _bits(32)
    util_den: int = _bits(32)

    def __post_init__(self) -> None:
        _Frame.__post_init__(self)
        if self.util_den == 0:
            raise FieldRangeError("util_den must be non-zero")


def _dispatch_table(*classes: type[_Frame]) -> dict[int, type[_Frame]]:
    """Derive each class's layout from its declaration; key it by tag."""
    table = {}
    for cls in classes:
        cls._FIELDS = tuple(
            (f.name, f.metadata["bits"], f.metadata["kind"])
            for f in fields(cls)
        )
        cls._BITS = 8 + sum(width for _, width, _ in cls._FIELDS)
        cls._SIZE = (cls._BITS + 7) // 8
        unpack = []
        shift = cls._BITS - 8
        for _, width, _ in cls._FIELDS:
            shift -= width
            unpack.append((shift, (1 << width) - 1))
        cls._UNPACK = tuple(unpack)
        cls._TYPED = tuple(
            (index, kind)
            for index, (_, _, kind) in enumerate(cls._FIELDS)
            if kind is not int
        )
        table[cls.TYPE] = cls
    return table


_BY_TYPE = _dispatch_table(
    RequestFrame, ResponseFrame, TeardownFrame, IntentFrame, GossipFrame
)


def decode_signaling(
    data: bytes | bytearray | memoryview,
) -> RequestFrame | ResponseFrame | TeardownFrame | IntentFrame | GossipFrame:
    """Decode any signalling frame, dispatching on the 8-bit type tag."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise CodecError(
            f"signalling frames decode from bytes, got {type(data).__name__}"
        )
    if type(data) is not bytes:
        data = bytes(data)
    if not data:
        raise CodecError("frame truncated: no type tag in empty input")
    cls = _BY_TYPE.get(data[0])
    if cls is None:
        raise CodecError(f"unknown signalling frame type {data[0]:#04x}")
    return cls._decode(data)
