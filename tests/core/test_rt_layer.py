"""Tests for the end-node RT layer (grants, segmentation, mangling)."""

from __future__ import annotations

import pytest

from dataclasses import fields

from repro.core.channel import ChannelSpec
from repro.core.rt_layer import ChannelGrant, RTLayer
from repro.errors import FieldRangeError, ProtocolError, UnknownChannelError
from repro.protocol.ethernet import EthernetFrame, FrameKind, reset_frame_ids
from repro.protocol.headers import MAX_ABSOLUTE_DEADLINE, encode_rt_header
from repro.units import ETH_MAX_PAYLOAD

SLOT = 123_040  # fast Ethernet


def make_grant(channel_id=1, d_iu=25, spec=None) -> ChannelGrant:
    return ChannelGrant(
        channel_id=channel_id,
        source="src",
        destination="dst",
        spec=spec or ChannelSpec(period=100, capacity=3, deadline=40),
        uplink_deadline_slots=d_iu,
    )


class TestChannelGrant:
    def test_invalid_id_rejected(self):
        with pytest.raises(ProtocolError):
            make_grant(channel_id=0)
        with pytest.raises(ProtocolError):
            make_grant(channel_id=-1)

    def test_uplink_deadline_bounds(self):
        with pytest.raises(ProtocolError):
            make_grant(d_iu=0)
        with pytest.raises(ProtocolError):
            make_grant(d_iu=40)  # must be strictly inside (0, d)
        make_grant(d_iu=39)


class TestRTLayer:
    def test_install_and_list(self):
        layer = RTLayer("src", SLOT)
        grant = make_grant()
        layer.install_grant(grant)
        assert layer.grants == {1: grant}

    def test_install_wrong_source_rejected(self):
        layer = RTLayer("other", SLOT)
        with pytest.raises(ProtocolError):
            layer.install_grant(make_grant())

    def test_duplicate_install_rejected(self):
        layer = RTLayer("src", SLOT)
        layer.install_grant(make_grant())
        with pytest.raises(ProtocolError):
            layer.install_grant(make_grant())

    def test_remove_grant(self):
        layer = RTLayer("src", SLOT)
        layer.install_grant(make_grant())
        layer.remove_grant(1)
        assert layer.grants == {}
        with pytest.raises(UnknownChannelError):
            layer.remove_grant(1)

    def test_invalid_slot_ns(self):
        with pytest.raises(ProtocolError):
            RTLayer("src", 0)


class TestEmitMessage:
    def test_segments_into_capacity_frames(self):
        layer = RTLayer("src", SLOT)
        layer.install_grant(make_grant())
        outgoing = layer.emit_message(1, release_ns=0)
        assert len(outgoing) == 3
        assert [o.frame.fragment_index for o in outgoing] == [0, 1, 2]
        assert all(o.frame.message_seq == 0 for o in outgoing)

    def test_frames_are_max_sized_rt_data(self):
        layer = RTLayer("src", SLOT)
        layer.install_grant(make_grant())
        frame = layer.emit_message(1, 0)[0].frame
        assert frame.kind is FrameKind.RT_DATA
        assert frame.payload_bytes == ETH_MAX_PAYLOAD
        assert frame.source == "src"
        assert frame.destination == "dst"
        assert frame.channel_id == 1

    def test_end_to_end_deadline_in_header(self):
        layer = RTLayer("src", SLOT)
        layer.install_grant(make_grant())
        release = 10 * SLOT
        frame = layer.emit_message(1, release)[0].frame
        assert frame.absolute_deadline == release + 40 * SLOT

    def test_uplink_deadline_uses_partition(self):
        layer = RTLayer("src", SLOT)
        layer.install_grant(make_grant(d_iu=25))
        release = 7 * SLOT
        outgoing = layer.emit_message(1, release)
        assert all(
            o.uplink_deadline_ns == release + 25 * SLOT for o in outgoing
        )

    def test_message_seq_increments(self):
        layer = RTLayer("src", SLOT)
        layer.install_grant(make_grant())
        layer.emit_message(1, 0)
        second = layer.emit_message(1, 100 * SLOT)
        assert all(o.frame.message_seq == 1 for o in second)
        assert layer.message_count(1) == 2

    def test_unknown_channel_raises(self):
        layer = RTLayer("src", SLOT)
        with pytest.raises(UnknownChannelError):
            layer.emit_message(99, 0)
        with pytest.raises(UnknownChannelError):
            layer.message_count(99)

    def test_created_at_matches_release(self):
        layer = RTLayer("src", SLOT)
        layer.install_grant(make_grant())
        release = 5 * SLOT
        assert all(
            o.frame.created_at == release
            for o in layer.emit_message(1, release)
        )

    def test_frames_equal_checked_frames_field_by_field(self):
        # emit_message checks the message once and skips EthernetFrame's
        # per-frame checks; each frame must equal, slot for slot, the one
        # the checked constructor builds, frame IDs drawn in order.
        layer = RTLayer("src", SLOT)
        layer.install_grant(make_grant(channel_id=0xFFFF, spec=ChannelSpec(
            period=100, capacity=4, deadline=40)))
        release = 9 * SLOT
        layer.emit_message(0xFFFF, 0)
        reset_frame_ids()
        emitted = [o.frame for o in layer.emit_message(0xFFFF, release)]
        reset_frame_ids()
        header = encode_rt_header(release + 40 * SLOT, 0xFFFF)
        checked = [
            EthernetFrame(
                kind=FrameKind.RT_DATA, source="src", destination="dst",
                payload_bytes=ETH_MAX_PAYLOAD, rt_header=header,
                channel_id=0xFFFF, message_seq=1, fragment_index=index,
                created_at=release,
            )
            for index in range(4)
        ]
        names = [f.name for f in fields(EthernetFrame)]
        assert [[getattr(f, n) for n in names] for f in emitted] == [
            [getattr(f, n) for n in names] for f in checked
        ]
        assert [f.frame_id for f in emitted] == [0, 1, 2, 3]
        assert all(f.rt_header is emitted[0].rt_header for f in emitted)

    def test_deadline_past_48_bits_still_raises(self):
        layer = RTLayer("src", SLOT)
        layer.install_grant(make_grant())
        with pytest.raises(FieldRangeError, match="48-bit"):
            layer.emit_message(1, MAX_ABSOLUTE_DEADLINE - 39 * SLOT)
        last = layer.emit_message(1, MAX_ABSOLUTE_DEADLINE - 40 * SLOT)
        assert last[0].frame.absolute_deadline == MAX_ABSOLUTE_DEADLINE
