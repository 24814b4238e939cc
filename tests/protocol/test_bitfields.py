"""MSB-first bit packing, checked through the signalling-frame codec.

The frames derive their codec from one declared layout each, so the
packing rules -- most significant bit first, fields crossing byte
boundaries, zero padding of the last byte, range checks -- are pinned
on real frames and their wire bytes. The standalone bit packer these
tests once covered is gone; the tests for its width argument and its
bit counters pin that it stays gone.
"""

from __future__ import annotations

import importlib

import pytest

import repro.protocol
from repro.errors import CodecError, FieldRangeError
from repro.protocol import frames
from repro.protocol.frames import (
    GossipFrame,
    IntentFrame,
    IntentKind,
    RequestFrame,
    ResponseFrame,
    TeardownFrame,
    decode_signaling,
)


def response(ok: bool = True, **overrides) -> ResponseFrame:
    fields = dict(
        connect_request_id=9, rt_channel_id=1234, switch_mac=0x02FF_FFFF_FFFF
    )
    fields.update(overrides)
    return ResponseFrame(ok=ok, **fields)


class TestBitPacker:
    def test_single_byte(self):
        # an 8-bit field is one whole byte, right after the tag
        assert TeardownFrame(0xAB, 0).encode() == b"\x03\xab\x00\x00"

    def test_msb_first_ordering(self):
        # the 16-bit channel ID goes high byte first
        assert TeardownFrame(0, 0x1234).encode()[2:] == b"\x12\x34"

    def test_cross_byte_field(self):
        # 1234 = 0x04d2 spans bytes 2 and 3 of the Figure 18.4 frame
        assert response().encode().hex() == "020904d202ffffffffff80"

    def test_zero_padding_on_partial_byte(self):
        # 81 bits: the flag is the top bit of byte 10, 7 zero bits follow
        assert response(ok=True).encode()[-1] == 0b1000_0000
        assert response(ok=False).encode()[-1] == 0

    def test_empty(self):
        # all-zero fields still put the tag and every field on the wire
        assert TeardownFrame(0, 0).encode() == b"\x03\x00\x00\x00"

    def test_bit_length(self):
        assert not hasattr(repro.protocol, "BitPacker")
        assert "BitPacker" not in repro.protocol.__all__

    def test_value_too_wide_rejected(self):
        with pytest.raises(FieldRangeError, match="8-bit"):
            TeardownFrame(256, 0)
        with pytest.raises(FieldRangeError, match="16-bit"):
            TeardownFrame(0, 0x10000)
        with pytest.raises(FieldRangeError, match="48-bit"):
            response(switch_mac=1 << 48)

    def test_negative_value_rejected(self):
        with pytest.raises(FieldRangeError):
            TeardownFrame(-1, 0)
        with pytest.raises(FieldRangeError):
            response(rt_channel_id=-1)

    def test_zero_width_rejected(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.protocol.bitfields")

    def test_48_bit_field(self):
        wire = response(switch_mac=0x0123456789AB).encode()
        assert wire[4:10] == bytes.fromhex("0123456789ab")


class TestBitUnpacker:
    def test_roundtrip_mixed_widths(self):
        # widths 8, 32, 48, 48, 16, 16, 8, 32, 32, 32 after the tag
        frame = IntentFrame(
            IntentKind.ABORT, 0xDEADBEEF, 0x0123456789AB, 0xBA9876543210,
            0xFFFF, 0x8001, 0x7F, 1, 0x8000_0000, 0xFFFF_FFFE,
        )
        assert decode_signaling(frame.encode()) == frame

    def test_truncated_input_raises(self):
        wire = response().encode()
        with pytest.raises(CodecError, match="truncated"):
            decode_signaling(wire[:-1])

    def test_remaining_bits(self):
        assert not hasattr(repro.protocol, "BitUnpacker")
        assert "BitUnpacker" not in repro.protocol.__all__

    def test_nonzero_padding_detected(self):
        wire = bytearray(response().encode())
        wire[-1] |= 0x01
        with pytest.raises(CodecError, match="padding"):
            decode_signaling(bytes(wire))

    def test_zero_padding_accepted(self):
        wire = bytes.fromhex("020904d202ffffffffff80")
        assert decode_signaling(wire) == response(ok=True)

    def test_padding_check_on_fully_consumed(self):
        # 32 bits fill the teardown frame exactly: an all-ones last
        # byte is data, not padding
        assert decode_signaling(b"\x03\x00\x00\xff") == TeardownFrame(0, 0xFF)

    def test_empty_input(self):
        with pytest.raises(CodecError):
            decode_signaling(b"")

    def test_non_bytes_rejected(self):
        with pytest.raises(CodecError):
            decode_signaling("not bytes")  # type: ignore[arg-type]

    def test_invalid_width(self):
        # the layouts are declared once; no per-frame codec remains
        for cls in (
            RequestFrame, ResponseFrame, TeardownFrame, IntentFrame,
            GossipFrame,
        ):
            assert not hasattr(cls, "decode_body")
        assert not hasattr(frames, "_check_width")
