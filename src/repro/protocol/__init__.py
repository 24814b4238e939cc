"""Wire-format layer: frame codecs and RT header mangling.

This subpackage implements the paper's on-the-wire artifacts:

* :mod:`~repro.protocol.frames` -- the RequestFrame and ResponseFrame of
  Figures 18.3/18.4 (plus the teardown, intent and gossip extensions),
  each declared once as a bit-exact field layout that its codec is
  derived from.
* :mod:`~repro.protocol.headers` -- the RT layer's repurposing of the IP
  source/destination address fields for the 48-bit absolute deadline and
  the 16-bit channel ID (Section 18.2.2, ToS = 255 convention).
* :mod:`~repro.protocol.ethernet` -- the logical Ethernet frame model the
  simulator transports, with exact wire-size accounting.
* :mod:`~repro.protocol.signaling` -- per-role state machines for the
  channel-establishment handshake.
"""

from .frames import (
    FrameType,
    RequestFrame,
    ResponseFrame,
    TeardownFrame,
    decode_signaling,
    REQUEST_FRAME_BYTES,
    RESPONSE_FRAME_BYTES,
)
from .headers import (
    RT_TOS,
    RTHeader,
    decode_rt_header,
    encode_rt_header,
    MAX_ABSOLUTE_DEADLINE,
    MAX_CHANNEL_ID,
)
from .ethernet import EthernetFrame, FrameKind, reset_frame_ids
from .signaling import (
    ConnectionRequestState,
    DestinationPolicy,
    PendingRequest,
    SourceSignaling,
    accept_all,
    destination_response,
)

__all__ = [
    "FrameType",
    "RequestFrame",
    "ResponseFrame",
    "TeardownFrame",
    "decode_signaling",
    "REQUEST_FRAME_BYTES",
    "RESPONSE_FRAME_BYTES",
    "RT_TOS",
    "RTHeader",
    "decode_rt_header",
    "encode_rt_header",
    "MAX_ABSOLUTE_DEADLINE",
    "MAX_CHANNEL_ID",
    "EthernetFrame",
    "FrameKind",
    "reset_frame_ids",
    "ConnectionRequestState",
    "DestinationPolicy",
    "PendingRequest",
    "SourceSignaling",
    "accept_all",
    "destination_response",
]
