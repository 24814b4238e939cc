"""Tests for the RT header mangling (Section 18.2.2)."""

from __future__ import annotations

import pytest

from repro.errors import CodecError, FieldRangeError
from repro.protocol.headers import (
    MAX_ABSOLUTE_DEADLINE,
    MAX_CHANNEL_ID,
    RT_TOS,
    RTHeader,
    decode_rt_header,
    encode_rt_header,
)


class TestEncodeDecode:
    def test_roundtrip_simple(self):
        header = encode_rt_header(absolute_deadline=123456789, channel_id=42)
        assert decode_rt_header(header) == (123456789, 42)

    def test_roundtrip_extremes(self):
        for deadline in (0, 1, 0xFFFF, 0x10000, MAX_ABSOLUTE_DEADLINE):
            for channel in (0, 1, MAX_CHANNEL_ID):
                header = encode_rt_header(deadline, channel)
                assert decode_rt_header(header) == (deadline, channel)

    def test_bit_layout_matches_paper(self):
        """IP source = deadline[47:16]; dest = deadline[15:0] | channel."""
        deadline = 0x1234_5678_9ABC
        header = encode_rt_header(deadline, channel_id=0xDEF0)
        assert header.ip_source == 0x1234_5678
        assert header.ip_destination == 0x9ABC_DEF0

    def test_tos_is_255(self):
        header = encode_rt_header(1, 1)
        assert header.tos == RT_TOS == 255
        assert header.is_realtime

    def test_deadline_too_large_rejected(self):
        with pytest.raises(FieldRangeError, match="48-bit"):
            encode_rt_header(MAX_ABSOLUTE_DEADLINE + 1, 0)

    def test_negative_deadline_rejected(self):
        with pytest.raises(FieldRangeError):
            encode_rt_header(-1, 0)

    def test_channel_id_out_of_range_rejected(self):
        with pytest.raises(FieldRangeError):
            encode_rt_header(0, MAX_CHANNEL_ID + 1)
        with pytest.raises(FieldRangeError):
            encode_rt_header(0, -1)

    @pytest.mark.parametrize("deadline", [0, 0xFFFF, 0x1_0000, 0x1234_5678_9ABC,
                                          MAX_ABSOLUTE_DEADLINE])
    @pytest.mark.parametrize("channel", [0, 1, 0xDEF0, MAX_CHANNEL_ID])
    def test_codec_header_equals_the_checked_one(self, deadline, channel):
        # encode_rt_header skips RTHeader's checks; its header must be
        # the very value the checking constructor builds.
        header = encode_rt_header(deadline, channel)
        checked = RTHeader(
            ip_source=deadline >> 16,
            ip_destination=(deadline & 0xFFFF) << 16 | channel,
        )
        assert header == checked and hash(header) == hash(checked)
        assert (header.ip_source, header.ip_destination, header.tos) == (
            checked.ip_source, checked.ip_destination, RT_TOS
        )


class TestRTHeader:
    def test_non_rt_header_refuses_deadline_reads(self):
        header = RTHeader(ip_source=0x0A000001, ip_destination=0x0A000002, tos=0)
        assert not header.is_realtime
        with pytest.raises(CodecError):
            _ = header.absolute_deadline
        with pytest.raises(CodecError):
            _ = header.channel_id

    def test_field_width_validation(self):
        with pytest.raises(FieldRangeError):
            RTHeader(ip_source=1 << 32, ip_destination=0)
        with pytest.raises(FieldRangeError):
            RTHeader(ip_source=0, ip_destination=-1)
        with pytest.raises(FieldRangeError):
            RTHeader(ip_source=0, ip_destination=0, tos=256)

    def test_48_bits_of_nanoseconds_covers_days(self):
        """Sanity: the paper's 48-bit field holds > 3 days of ns."""
        assert MAX_ABSOLUTE_DEADLINE > 3 * 24 * 3600 * 1_000_000_000
