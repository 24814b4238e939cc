"""Tests for the RequestFrame/ResponseFrame codecs (Figures 18.3/18.4)."""

from __future__ import annotations

import pytest

from repro.errors import CodecError, FieldRangeError
from repro.protocol.frames import (
    FrameType,
    RequestFrame,
    ResponseFrame,
    TeardownFrame,
    decode_signaling,
    REQUEST_FRAME_BYTES,
    RESPONSE_FRAME_BYTES,
    TEARDOWN_FRAME_BYTES,
)


def sample_request(**overrides) -> RequestFrame:
    kwargs = dict(
        connect_request_id=42,
        rt_channel_id=0,
        source_mac=0x0200_0000_0001,
        destination_mac=0x0200_0000_0002,
        source_ip=0x0A00_0001,
        destination_ip=0x0A00_0002,
        period=100,
        capacity=3,
        deadline=40,
    )
    kwargs.update(overrides)
    return RequestFrame(**kwargs)


#: Wire bytes of ``sample_request()``: the Figure 18.3 fields in order.
SAMPLE_REQUEST_HEX = (
    "01" "2a" "0000" "020000000001" "020000000002" "0a000001" "0a000002"
    "00000064" "00000003" "00000028"
)


class TestRequestFrame:
    def test_encoded_size_is_36_bytes(self):
        # 8+8+16+48+48+32+32+32+32+32 = 288 bits exactly.
        assert len(sample_request().encode()) == REQUEST_FRAME_BYTES

    def test_roundtrip(self):
        frame = sample_request()
        decoded = decode_signaling(frame.encode())
        assert decoded == frame

    def test_type_tag_leads(self):
        assert sample_request().encode()[0] == FrameType.CONNECT

    def test_golden_wire_bytes(self):
        assert sample_request().encode().hex() == SAMPLE_REQUEST_HEX

    def test_field_width_limits_paper_exact(self):
        # 16-bit channel ID
        sample_request(rt_channel_id=0xFFFF)
        with pytest.raises(FieldRangeError):
            sample_request(rt_channel_id=0x10000)
        # 8-bit request ID
        sample_request(connect_request_id=255)
        with pytest.raises(FieldRangeError):
            sample_request(connect_request_id=256)
        # 48-bit MACs
        sample_request(source_mac=(1 << 48) - 1)
        with pytest.raises(FieldRangeError):
            sample_request(source_mac=1 << 48)
        # 32-bit parameters
        sample_request(period=(1 << 32) - 1)
        with pytest.raises(FieldRangeError):
            sample_request(deadline=1 << 32)

    def test_negative_field_rejected(self):
        with pytest.raises(FieldRangeError):
            sample_request(capacity=-1)

    @pytest.mark.parametrize("value", [True, 1.0, "1"])
    def test_non_int_field_rejected(self, value):
        # a bool is an int to Python, but not a 32-bit wire field
        with pytest.raises(FieldRangeError, match="period"):
            sample_request(period=value)

    def test_with_channel_id_stamps_only_the_id(self):
        frame = sample_request()
        stamped = frame.with_channel_id(777)
        assert stamped.rt_channel_id == 777
        assert stamped.period == frame.period
        assert stamped.connect_request_id == frame.connect_request_id
        assert frame.rt_channel_id == 0  # original immutable
        assert stamped == sample_request(rt_channel_id=777)

    @pytest.mark.parametrize("channel_id", [0x10000, -1, True, 7.0])
    def test_with_channel_id_checks_the_new_id(self, channel_id):
        with pytest.raises(FieldRangeError, match="rt_channel_id"):
            sample_request().with_channel_id(channel_id)

    def test_max_values_roundtrip(self):
        frame = sample_request(
            connect_request_id=255,
            rt_channel_id=0xFFFF,
            source_mac=(1 << 48) - 1,
            destination_mac=(1 << 48) - 1,
            source_ip=(1 << 32) - 1,
            destination_ip=(1 << 32) - 1,
            period=(1 << 32) - 1,
            capacity=(1 << 32) - 1,
            deadline=(1 << 32) - 1,
        )
        assert decode_signaling(frame.encode()) == frame


class TestResponseFrame:
    def test_encoded_size_is_11_bytes(self):
        # 8+8+16+48+1 = 81 bits -> 11 bytes with padding.
        frame = ResponseFrame(
            connect_request_id=1, rt_channel_id=2, switch_mac=0xAB, ok=True
        )
        assert len(frame.encode()) == RESPONSE_FRAME_BYTES

    @pytest.mark.parametrize("ok", [True, False])
    def test_roundtrip(self, ok):
        frame = ResponseFrame(
            connect_request_id=9,
            rt_channel_id=1234,
            switch_mac=0x02FF_FFFF_FFFF,
            ok=ok,
        )
        assert decode_signaling(frame.encode()) == frame

    @pytest.mark.parametrize(
        "ok, last_byte", [(True, "80"), (False, "00")]
    )
    def test_golden_wire_bytes(self, ok, last_byte):
        # the 1-bit flag leads the last byte; 7 zero pad bits follow it
        frame = ResponseFrame(
            connect_request_id=9,
            rt_channel_id=1234,
            switch_mac=0x02FF_FFFF_FFFF,
            ok=ok,
        )
        assert frame.encode().hex() == "020904d202ffffffffff" + last_byte

    def test_ok_must_be_bool(self):
        with pytest.raises(FieldRangeError):
            ResponseFrame(
                connect_request_id=1, rt_channel_id=2, switch_mac=3, ok=1
            )  # type: ignore[arg-type]

    def test_type_tag(self):
        frame = ResponseFrame(
            connect_request_id=1, rt_channel_id=2, switch_mac=3, ok=False
        )
        assert frame.encode()[0] == FrameType.RESPONSE


class TestTeardownFrame:
    def test_roundtrip(self):
        frame = TeardownFrame(connect_request_id=3, rt_channel_id=77)
        assert len(frame.encode()) == TEARDOWN_FRAME_BYTES
        assert decode_signaling(frame.encode()) == frame

    def test_golden_wire_bytes(self):
        frame = TeardownFrame(connect_request_id=3, rt_channel_id=77)
        assert frame.encode().hex() == "0303004d"


class TestDecodeSignaling:
    def test_unknown_type_rejected(self):
        with pytest.raises(CodecError, match="unknown"):
            decode_signaling(b"\x7f" + b"\x00" * 10)

    def test_truncated_request_rejected(self):
        data = sample_request().encode()[:-1]
        with pytest.raises(CodecError):
            decode_signaling(data)

    def test_corrupt_padding_rejected(self):
        frame = ResponseFrame(
            connect_request_id=1, rt_channel_id=2, switch_mac=3, ok=True
        )
        data = bytearray(frame.encode())
        data[-1] |= 0x01  # flip a padding bit
        with pytest.raises(CodecError, match="padding"):
            decode_signaling(bytes(data))

    def test_empty_input_rejected(self):
        with pytest.raises(CodecError):
            decode_signaling(b"")

    def test_bytes_like_inputs_accepted(self):
        wire = sample_request().encode()
        assert decode_signaling(bytearray(wire)) == sample_request()
        assert decode_signaling(memoryview(wire)) == sample_request()
