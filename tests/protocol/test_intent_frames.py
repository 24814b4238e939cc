"""Wire codec tests for the intent-lock and gossip control frames."""

from __future__ import annotations

import pytest

from repro.errors import CodecError, FieldRangeError
from repro.protocol.frames import (
    GOSSIP_FRAME_BYTES,
    INTENT_FRAME_BYTES,
    GossipFrame,
    IntentFrame,
    IntentKind,
    decode_signaling,
)

MAC_A = 0x0200_0000_0000
MAC_B = 0x0200_0000_0001


def intent(kind: IntentKind, **overrides) -> IntentFrame:
    fields = dict(
        kind=kind,
        intent_seq=0xDEADBEEF,
        switch_mac=MAC_A,
        ack_mac=MAC_B if kind is IntentKind.ACK else 0,
        link_id=3,
        channel_id=0x1234,
        priority=6,
        period=100,
        capacity=3,
        deadline=40,
    )
    fields.update(overrides)
    return IntentFrame(**fields)


class TestIntentFrameCodec:
    @pytest.mark.parametrize("kind", list(IntentKind))
    def test_round_trip_every_kind(self, kind):
        frame = intent(kind)
        wire = frame.encode()
        assert len(wire) == INTENT_FRAME_BYTES
        assert decode_signaling(wire) == frame

    def test_golden_wire_bytes(self):
        assert intent(IntentKind.ACK).encode().hex() == (
            "04" "01" "deadbeef" "020000000000" "020000000001" "0003" "1234"
            "06" "00000064" "00000003" "00000028"
        )

    def test_extreme_field_values_survive(self):
        frame = intent(
            IntentKind.ANNOUNCE,
            intent_seq=0xFFFF_FFFF,
            switch_mac=0xFFFF_FFFF_FFFF,
            link_id=0xFFFF,
            channel_id=0xFFFF,
            priority=0xFF,
            period=0xFFFF_FFFF,
            capacity=0xFFFF_FFFF,
            deadline=0xFFFF_FFFF,
        )
        assert decode_signaling(frame.encode()) == frame

    def test_precedence_orders_priority_then_mac_then_seq(self):
        low_prio = intent(IntentKind.ANNOUNCE, priority=1)
        high_prio = intent(IntentKind.ANNOUNCE, priority=9)
        assert low_prio.precedence < high_prio.precedence
        a = intent(IntentKind.ANNOUNCE, switch_mac=MAC_A)
        b = intent(IntentKind.ANNOUNCE, switch_mac=MAC_B)
        assert a.precedence < b.precedence
        early = intent(IntentKind.ANNOUNCE, intent_seq=5)
        late = intent(IntentKind.ANNOUNCE, intent_seq=6)
        assert early.precedence < late.precedence

    def test_truncated_frame_raises(self):
        wire = intent(IntentKind.COMMIT).encode()
        with pytest.raises(CodecError):
            decode_signaling(wire[:-1])

    @pytest.mark.parametrize("kind", [1, True])
    def test_kind_must_be_an_intent_kind(self, kind):
        with pytest.raises(FieldRangeError, match="kind"):
            intent(kind)

    def test_unknown_kind_on_the_wire_rejected(self):
        wire = bytearray(intent(IntentKind.ANNOUNCE).encode())
        wire[1] = 0x09
        with pytest.raises(CodecError, match="unknown"):
            decode_signaling(bytes(wire))


class TestGossipFrameCodec:
    def test_round_trip(self):
        frame = GossipFrame(
            switch_mac=MAC_A,
            link_id=2,
            version=987654,
            load=17,
            util_num=3,
            util_den=10,
        )
        wire = frame.encode()
        assert len(wire) == GOSSIP_FRAME_BYTES
        assert decode_signaling(wire) == frame
        assert wire.hex() == (
            "05" "020000000000" "0002" "000f1206" "0011" "00000003"
            "0000000a"
        )

    def test_truncated_frame_raises(self):
        wire = GossipFrame(
            switch_mac=MAC_A,
            link_id=0,
            version=1,
            load=0,
            util_num=0,
            util_den=1,
        ).encode()
        with pytest.raises(CodecError):
            decode_signaling(wire[:-1])

    def test_zero_denominator_rejected(self):
        fields = dict(
            switch_mac=MAC_A, link_id=0, version=1, load=0, util_num=0
        )
        with pytest.raises(FieldRangeError, match="util_den"):
            GossipFrame(util_den=0, **fields)
        wire = GossipFrame(util_den=1, **fields).encode()
        with pytest.raises(FieldRangeError, match="util_den"):
            decode_signaling(wire[:-1] + b"\x00")
