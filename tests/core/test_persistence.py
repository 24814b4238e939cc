"""Tests for admission-state snapshot/restore."""

from __future__ import annotations

import json

import pytest

from repro.core.admission import AdmissionController, SystemState
from repro.core.channel import ChannelSpec, ChannelState
from repro.core.channel_manager import NodeDirectory, SwitchChannelManager
from repro.core.partitioning import AsymmetricDPS, SymmetricDPS
from repro.core.persistence import (
    dumps,
    loads,
    restore,
    restore_signalling,
    snapshot,
)
from repro.core.task import LinkRef
from repro.errors import ConfigurationError
from repro.protocol.frames import RequestFrame, ResponseFrame

SPEC = ChannelSpec(period=100, capacity=3, deadline=40)


def loaded_controller():
    ctrl = AdmissionController(
        SystemState(["m", "s0", "s1", "s2"]), AsymmetricDPS()
    )
    for dest in ("s0", "s1", "s2") * 4:
        ctrl.request("m", dest, SPEC)
    ctrl.request("m", "ghost", SPEC)  # one counted rejection
    ctrl.release(2)  # and one hole in the ID sequence
    return ctrl


class TestRoundTrip:
    def test_state_identical_after_restore(self):
        original = loaded_controller()
        restored = restore(snapshot(original), AsymmetricDPS())
        assert restored.state.nodes == original.state.nodes
        assert set(restored.state.channels) == set(original.state.channels)
        for link in original.state.occupied_links():
            assert restored.state.link_load(link) == original.state.link_load(
                link
            )
            assert restored.state.link_utilization(
                link
            ) == original.state.link_utilization(link)
        assert restored.accept_count == original.accept_count
        assert restored.reject_count == original.reject_count
        assert (
            restored.rejections_by_reason == original.rejections_by_reason
        )

    def test_partitions_preserved_exactly(self):
        original = loaded_controller()
        restored = restore(snapshot(original), AsymmetricDPS())
        for channel_id, channel in original.state.channels.items():
            twin = restored.state.channel(channel_id)
            assert twin.partition == channel.partition
            assert twin.spec == channel.spec

    def test_future_decisions_identical(self):
        """The restored controller decides exactly like the original."""
        original = loaded_controller()
        restored = restore(snapshot(original), AsymmetricDPS())
        for dest in ("s0", "s1", "s2") * 3:
            a = original.request("m", dest, SPEC)
            b = restored.request("m", dest, SPEC)
            assert a.accepted == b.accepted
            if a.accepted:
                assert (
                    a.channel.channel_id == b.channel.channel_id
                )
                assert a.partition == b.partition

    def test_channel_ids_never_reused_after_restore(self):
        original = loaded_controller()
        max_id = max(original.state.channels)
        restored = restore(snapshot(original), AsymmetricDPS())
        decision = restored.request("s0", "s1", SPEC)
        assert decision.accepted
        assert decision.channel.channel_id > max_id

    def test_json_round_trip(self):
        original = loaded_controller()
        text = dumps(original)
        restored = loads(text, AsymmetricDPS())
        assert snapshot(restored) == snapshot(original)

    def test_snapshot_does_not_mutate(self):
        original = loaded_controller()
        before = len(original.state)
        expected_next = snapshot(original)["next_channel_id"]
        snapshot(original)  # peeking twice must not consume IDs
        assert len(original.state) == before
        decision = original.request("s0", "s1", SPEC)
        assert decision.accepted
        assert decision.channel.channel_id == expected_next


class TestValidation:
    def test_scheme_mismatch_refused(self):
        original = loaded_controller()
        with pytest.raises(ConfigurationError, match="scheme swap"):
            restore(snapshot(original), SymmetricDPS())

    def test_bad_version_refused(self):
        data = snapshot(loaded_controller())
        data["version"] = 99
        with pytest.raises(ConfigurationError, match="version"):
            restore(data, AsymmetricDPS())

    def test_garbage_refused(self):
        with pytest.raises(ConfigurationError):
            restore({"no": "version"}, AsymmetricDPS())
        with pytest.raises(ConfigurationError, match="JSON"):
            loads("{broken", AsymmetricDPS())

    def test_empty_controller_round_trips(self):
        ctrl = AdmissionController(SystemState(["a", "b"]), SymmetricDPS())
        restored = restore(snapshot(ctrl), SymmetricDPS())
        assert len(restored.state) == 0
        assert restored.request("a", "b", SPEC).channel.channel_id == 1

    def test_version_1_refused_with_migration_message(self):
        data = snapshot(loaded_controller())
        data["version"] = 1
        with pytest.raises(ConfigurationError, match="version 1"):
            restore(data, AsymmetricDPS())

    def test_bad_channel_state_refused(self):
        data = snapshot(loaded_controller())
        data["channels"][0]["state"] = "torn_down"
        with pytest.raises(ConfigurationError, match="snapshot state"):
            restore(data, AsymmetricDPS())


SWITCH_MAC = 0xFF_EE_DD_CC_BB_AA
LEASE_NS = 5_000


def make_directory() -> NodeDirectory:
    directory = NodeDirectory()
    directory.register("a", mac=0x01, ip=0x0A000001)
    directory.register("b", mac=0x02, ip=0x0A000002)
    directory.register("c", mac=0x03, ip=0x0A000003)
    return directory


def make_manager(admission=None, lease_ns=LEASE_NS) -> SwitchChannelManager:
    if admission is None:
        admission = AdmissionController(
            SystemState(["a", "b", "c"]), SymmetricDPS()
        )
    return SwitchChannelManager(
        admission=admission,
        directory=make_directory(),
        switch_mac=SWITCH_MAC,
        lease_ns=lease_ns,
    )


def request_frame(req_id, src=0x01, dst=0x02):
    return RequestFrame(
        connect_request_id=req_id,
        rt_channel_id=0,
        source_mac=src,
        destination_mac=dst,
        source_ip=0x0A000001,
        destination_ip=0x0A000002,
        period=SPEC.period,
        capacity=SPEC.capacity,
        deadline=SPEC.deadline,
    )


def busy_manager() -> SwitchChannelManager:
    """A manager with established channels, pending offers and cached
    verdicts -- every kind of state the v2 schema must round-trip."""
    manager = make_manager()
    # Two established channels (leave completed verdicts with grants).
    for req_id in (1, 2):
        offered = manager.handle_request(request_frame(req_id), now=100)[0]
        manager.handle_response(
            ResponseFrame(
                connect_request_id=req_id,
                rt_channel_id=offered.frame.rt_channel_id,
                switch_mac=SWITCH_MAC,
                ok=True,
            ),
            now=200,
        )
    # One destination-declined request (verdict with ok=False).
    offered = manager.handle_request(request_frame(3, dst=0x03), now=300)[0]
    manager.handle_response(
        ResponseFrame(
            connect_request_id=3,
            rt_channel_id=offered.frame.rt_channel_id,
            switch_mac=SWITCH_MAC,
            ok=False,
        ),
        now=350,
    )
    # Two offers still awaiting the destination's verdict (leases live).
    manager.handle_request(request_frame(4, src=0x02, dst=0x03), now=400)
    manager.handle_request(request_frame(5, src=0x03, dst=0x01), now=450)
    return manager


def restored_twin(manager: SwitchChannelManager) -> SwitchChannelManager:
    """Snapshot ``manager``, JSON round-trip, restore into a fresh twin."""
    data = json.loads(
        dumps(manager.admission, manager=manager)
    )
    controller = restore(data, SymmetricDPS())
    twin = make_manager(admission=controller)
    restore_signalling(data, twin)
    return twin


class TestSignallingRoundTrip:
    def test_snapshot_records_offered_state(self):
        manager = busy_manager()
        data = snapshot(manager.admission, manager=manager)
        states = {c["id"]: c["state"] for c in data["channels"]}
        assert sorted(states.values()) == [
            "active", "active", "offered", "offered",
        ]

    def test_round_trip_is_byte_identical(self):
        manager = busy_manager()
        twin = restored_twin(manager)
        assert dumps(manager.admission, manager=manager) == dumps(
            twin.admission, manager=twin
        )

    def test_pending_offers_and_states_survive(self):
        manager = busy_manager()
        twin = restored_twin(manager)
        assert twin.pending_offers == manager.pending_offers == 2
        for channel_id, channel in manager.admission.state.channels.items():
            assert (
                twin.admission.state.channel(channel_id).state
                == channel.state
            )

    def test_duplicate_request_still_answered_from_cache(self):
        manager = busy_manager()
        twin = restored_twin(manager)
        before = twin.admission.accept_count
        actions = twin.handle_request(request_frame(1), now=500)
        # Re-answered from the restored verdict cache, not re-admitted.
        assert twin.duplicate_requests == manager.duplicate_requests + 1
        assert twin.admission.accept_count == before
        assert actions[0].grant is not None

    def test_pending_offer_completes_after_restore(self):
        manager = busy_manager()
        twin = restored_twin(manager)
        # Complete a still-pending offer on the twin exactly as the
        # original would: find it via the exported state.
        record = manager.export_signalling_state()["pending_offers"][0]
        actions = twin.handle_response(
            ResponseFrame(
                connect_request_id=record["request"]["connect_request_id"],
                rt_channel_id=record["channel_id"],
                switch_mac=SWITCH_MAC,
                ok=True,
            ),
            now=460,
        )
        assert actions[0].frame.ok
        assert actions[0].grant is not None
        assert (
            twin.admission.state.channel(record["channel_id"]).state
            is ChannelState.ACTIVE
        )

    def test_lease_expiry_survives_restore(self):
        manager = busy_manager()
        twin = restored_twin(manager)
        reclaimed = twin.reclaim_expired(now=400 + LEASE_NS)
        assert len(reclaimed) == 1  # offer stamped at 400 expired
        assert twin.lease_reclaims == manager.lease_reclaims + 1
        assert twin.reclaim_expired(now=450 + LEASE_NS) != ()

    def test_counters_survive(self):
        manager = busy_manager()
        manager.handle_request(request_frame(1), now=500)  # duplicate
        twin = restored_twin(manager)
        assert twin.duplicate_requests == manager.duplicate_requests
        assert twin.stale_frames == manager.stale_frames
        assert twin.lease_reclaims == manager.lease_reclaims

    def test_signalling_absent_raises(self):
        ctrl = AdmissionController(SystemState(["a", "b"]), SymmetricDPS())
        data = snapshot(ctrl)
        assert data["signalling"] is None
        restored = restore(data, SymmetricDPS())
        with pytest.raises(ConfigurationError, match="no signalling"):
            restore_signalling(data, make_manager(admission=restored))

    def test_config_mismatch_refused(self):
        manager = busy_manager()
        data = snapshot(manager.admission, manager=manager)
        controller = restore(data, SymmetricDPS())
        other = make_manager(admission=controller, lease_ns=LEASE_NS * 2)
        with pytest.raises(ConfigurationError, match="lease_ns"):
            restore_signalling(data, other)

    def test_import_into_dirty_manager_refused(self):
        manager = busy_manager()
        data = snapshot(manager.admission, manager=manager)
        with pytest.raises(ConfigurationError, match="fresh manager"):
            restore_signalling(data, manager)

    def test_verdict_without_fingerprint_refused(self):
        manager = busy_manager()
        data = json.loads(dumps(manager.admission, manager=manager))
        data["signalling"]["completed"][0]["fingerprint"] = None
        controller = restore(data, SymmetricDPS())
        with pytest.raises(ConfigurationError, match="'fingerprint'"):
            restore_signalling(data, make_manager(admission=controller))
        del data["signalling"]["completed"][0]["fingerprint"]
        controller = restore(data, SymmetricDPS())
        with pytest.raises(ConfigurationError, match="'fingerprint'"):
            restore_signalling(data, make_manager(admission=controller))
