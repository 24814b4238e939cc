"""RT datagram header mangling (Section 18.2.2).

The RT layer in an end node rewrites the IP header of every outgoing
real-time datagram before handing it to the Ethernet layers:

* the **IP source address** (32 bits) and the **16 most significant
  bits of the IP destination address** together carry the frame's
  48-bit **absolute deadline**;
* the **16 least significant bits of the IP destination address** carry
  the **RT channel ID**;
* the **Type of Service** field is set to **255**, marking the datagram
  as real-time (other ToS values are reserved for future services).

The switch's RT layer recognizes RT datagrams by ToS = 255, reads the
absolute deadline straight out of the address fields for its EDF queue,
and uses the channel ID to route the frame to the destination recorded
at establishment time (the real destination address is no longer in the
header -- the channel *is* the addressing).

This module provides the pure encode/decode functions plus a validated
:class:`RTHeader` view. Deadlines are in simulator time units; 48 bits
of nanoseconds covers ~3.26 days of absolute time, which bounds how long
one simulation may run -- the codec refuses larger values rather than
wrapping silently.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CodecError, FieldRangeError

__all__ = [
    "RT_TOS",
    "MAX_ABSOLUTE_DEADLINE",
    "MAX_CHANNEL_ID",
    "RTHeader",
    "encode_rt_header",
    "decode_rt_header",
]

#: The Type-of-Service value that marks a datagram as real-time.
RT_TOS = 255

#: Largest encodable absolute deadline (48 bits).
MAX_ABSOLUTE_DEADLINE = (1 << 48) - 1

#: Largest encodable RT channel ID (16 bits).
MAX_CHANNEL_ID = (1 << 16) - 1


@dataclass(frozen=True, slots=True)
class RTHeader:
    """The three IP header fields the RT layer owns, as one value.

    Attributes
    ----------
    ip_source:
        The 32-bit IP source address field (upper 32 bits of the
        absolute deadline).
    ip_destination:
        The 32-bit IP destination address field (lower 16 bits of the
        deadline, then the 16-bit channel ID).
    tos:
        The Type-of-Service byte; 255 for every RT datagram.
    """

    ip_source: int
    ip_destination: int
    tos: int = RT_TOS

    def __post_init__(self) -> None:
        for name, value in (
            ("ip_source", self.ip_source),
            ("ip_destination", self.ip_destination),
        ):
            if not isinstance(value, int) or value < 0 or value >= (1 << 32):
                raise FieldRangeError(
                    f"{name} must fit in 32 bits, got {value!r}"
                )
        if not isinstance(self.tos, int) or self.tos < 0 or self.tos > 255:
            raise FieldRangeError(f"tos must be one byte, got {self.tos!r}")

    @property
    def is_realtime(self) -> bool:
        """True when the ToS marks this as an RT datagram."""
        return self.tos == RT_TOS

    @property
    def absolute_deadline(self) -> int:
        """The 48-bit absolute deadline (RT datagrams only)."""
        if self.tos != RT_TOS:
            raise CodecError(
                f"header with ToS {self.tos} is not an RT datagram; its "
                "address fields are real addresses, not a deadline"
            )
        return (self.ip_source << 16) | (self.ip_destination >> 16)

    @property
    def channel_id(self) -> int:
        """The 16-bit RT channel ID (RT datagrams only)."""
        if not self.is_realtime:
            raise CodecError(
                f"header with ToS {self.tos} is not an RT datagram"
            )
        return self.ip_destination & 0xFFFF


def encode_rt_header(absolute_deadline: int, channel_id: int) -> RTHeader:
    """Build the mangled IP header for an outgoing RT frame.

    Splits the 48-bit ``absolute_deadline`` across the IP source address
    (upper 32 bits) and the top half of the IP destination address
    (lower 16 bits), and stores ``channel_id`` in the bottom half of the
    destination address, exactly as Section 18.2.2 prescribes.
    """
    if not isinstance(absolute_deadline, int) or absolute_deadline < 0:
        raise FieldRangeError(
            f"absolute deadline must be a non-negative int, got "
            f"{absolute_deadline!r}"
        )
    if absolute_deadline > MAX_ABSOLUTE_DEADLINE:
        raise FieldRangeError(
            f"absolute deadline {absolute_deadline} exceeds the 48-bit "
            f"encoding limit {MAX_ABSOLUTE_DEADLINE}; the simulation clock "
            "has outrun the header format"
        )
    if (
        not isinstance(channel_id, int)
        or channel_id < 0
        or channel_id > MAX_CHANNEL_ID
    ):
        raise FieldRangeError(
            f"channel ID {channel_id!r} does not fit in 16 bits"
        )
    ip_source = absolute_deadline >> 16
    ip_destination = ((absolute_deadline & 0xFFFF) << 16) | channel_id
    return RTHeader(ip_source=ip_source, ip_destination=ip_destination)


def decode_rt_header(header: RTHeader) -> tuple[int, int]:
    """Extract ``(absolute_deadline, channel_id)`` from an RT header.

    Raises :class:`~repro.errors.CodecError` for non-RT headers (ToS
    other than 255) -- the switch must never EDF-schedule a best-effort
    datagram by misreading its real addresses as a deadline.
    """
    return header.absolute_deadline, header.channel_id
