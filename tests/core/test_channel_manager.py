"""Tests for the switch-side channel manager (pure protocol logic)."""

from __future__ import annotations

import pytest

from repro.core.admission import AdmissionController, SystemState
from repro.core.channel import ChannelSpec, ChannelState
from repro.core.channel_manager import (
    NodeDirectory,
    SwitchChannelManager,
)
from repro.core.partitioning import SymmetricDPS
from repro.core.task import LinkRef
from repro.errors import ProtocolError
from repro.protocol.frames import RequestFrame, ResponseFrame, TeardownFrame

SWITCH_MAC = 0xFF_EE_DD_CC_BB_AA


def make_directory() -> NodeDirectory:
    directory = NodeDirectory()
    directory.register("a", mac=0x01, ip=0x0A000001)
    directory.register("b", mac=0x02, ip=0x0A000002)
    directory.register("c", mac=0x03, ip=0x0A000003)
    return directory


def make_manager(dps=None):
    directory = make_directory()
    admission = AdmissionController(
        SystemState(["a", "b", "c"]), dps or SymmetricDPS()
    )
    return SwitchChannelManager(
        admission=admission, directory=directory, switch_mac=SWITCH_MAC
    )


def request_frame(req_id=5, src=0x01, dst=0x02, p=100, c=3, d=40):
    return RequestFrame(
        connect_request_id=req_id,
        rt_channel_id=0,
        source_mac=src,
        destination_mac=dst,
        source_ip=0x0A000001,
        destination_ip=0x0A000002,
        period=p,
        capacity=c,
        deadline=d,
    )


class TestNodeDirectory:
    def test_lookup_both_ways(self):
        directory = make_directory()
        assert directory.by_name("a").mac == 0x01
        assert directory.by_mac(0x02).name == "b"
        assert directory.names() == ("a", "b", "c")

    def test_duplicate_name_rejected(self):
        directory = make_directory()
        with pytest.raises(ProtocolError):
            directory.register("a", mac=0x99, ip=0x01)

    def test_duplicate_mac_rejected(self):
        directory = make_directory()
        with pytest.raises(ProtocolError):
            directory.register("d", mac=0x01, ip=0x01)

    def test_unknown_lookups_raise(self):
        directory = make_directory()
        with pytest.raises(ProtocolError):
            directory.by_name("ghost")
        with pytest.raises(ProtocolError):
            directory.by_mac(0x42)


class TestHandleRequest:
    def test_feasible_request_forwarded_to_destination(self):
        manager = make_manager()
        actions = manager.handle_request(request_frame())
        assert len(actions) == 1
        action = actions[0]
        assert action.target == "b"
        assert isinstance(action.frame, RequestFrame)
        assert action.frame.rt_channel_id == 1  # stamped
        assert action.grant is None
        assert manager.pending_offers == 1

    def test_channel_reserved_while_offered(self):
        manager = make_manager()
        manager.handle_request(request_frame())
        state = manager.admission.state
        assert state.link_load(LinkRef.uplink("a")) == 1
        channel = state.channel(1)
        assert channel.state is ChannelState.OFFERED

    def test_infeasible_request_answered_directly(self):
        manager = make_manager()
        bad = request_frame(d=5)  # d < 2C
        actions = manager.handle_request(bad)
        assert len(actions) == 1
        action = actions[0]
        assert action.target == "a"  # straight back to the source
        assert isinstance(action.frame, ResponseFrame)
        assert not action.frame.ok
        assert action.frame.rt_channel_id == 0
        assert manager.pending_offers == 0

    def test_saturated_link_rejection(self, paper_spec):
        manager = make_manager()
        for i in range(6):
            actions = manager.handle_request(request_frame(req_id=i))
            manager.handle_response(
                ResponseFrame(
                    connect_request_id=i,
                    rt_channel_id=actions[0].frame.rt_channel_id,
                    switch_mac=SWITCH_MAC,
                    ok=True,
                )
            )
        actions = manager.handle_request(request_frame(req_id=7))
        assert isinstance(actions[0].frame, ResponseFrame)
        assert not actions[0].frame.ok

    def test_unknown_mac_raises(self):
        manager = make_manager()
        with pytest.raises(ProtocolError):
            manager.handle_request(request_frame(src=0x77))


class TestHandleResponse:
    def test_accept_produces_grant(self):
        manager = make_manager()
        offered = manager.handle_request(request_frame())[0]
        actions = manager.handle_response(
            ResponseFrame(
                connect_request_id=5,
                rt_channel_id=offered.frame.rt_channel_id,
                switch_mac=SWITCH_MAC,
                ok=True,
            )
        )
        assert len(actions) == 1
        action = actions[0]
        assert action.target == "a"
        assert isinstance(action.frame, ResponseFrame)
        assert action.frame.ok
        assert action.grant is not None
        assert action.grant.channel_id == offered.frame.rt_channel_id
        assert action.grant.uplink_deadline_slots == 20  # SDPS of 40
        channel = manager.admission.state.channel(action.grant.channel_id)
        assert channel.state is ChannelState.ACTIVE
        assert manager.pending_offers == 0

    def test_decline_releases_reservation(self):
        manager = make_manager()
        offered = manager.handle_request(request_frame())[0]
        actions = manager.handle_response(
            ResponseFrame(
                connect_request_id=5,
                rt_channel_id=offered.frame.rt_channel_id,
                switch_mac=SWITCH_MAC,
                ok=False,
            )
        )
        assert not actions[0].frame.ok
        assert actions[0].grant is None
        state = manager.admission.state
        assert state.link_load(LinkRef.uplink("a")) == 0
        assert len(state) == 0

    def test_unexpected_response_absorbed(self):
        # A response for an unknown channel (already resolved or its
        # lease reclaimed) is expected network behaviour under loss with
        # retransmission: count it, emit nothing, never raise.
        manager = make_manager()
        actions = manager.handle_response(
            ResponseFrame(
                connect_request_id=1,
                rt_channel_id=9,
                switch_mac=SWITCH_MAC,
                ok=True,
            )
        )
        assert actions == []
        assert manager.stale_frames == 1

    def test_duplicate_response_absorbed(self):
        manager = make_manager()
        offered = manager.handle_request(request_frame())[0]
        response = ResponseFrame(
            connect_request_id=5,
            rt_channel_id=offered.frame.rt_channel_id,
            switch_mac=SWITCH_MAC,
            ok=True,
        )
        first = manager.handle_response(response)
        assert first[0].grant is not None
        duplicate = manager.handle_response(response)
        assert duplicate == []
        assert manager.stale_frames == 1
        # the channel stays ACTIVE; the duplicate released nothing
        channel = manager.admission.state.channel(
            offered.frame.rt_channel_id
        )
        assert channel.state is ChannelState.ACTIVE


class TestTeardown:
    def test_teardown_releases_and_confirms(self):
        manager = make_manager()
        offered = manager.handle_request(request_frame())[0]
        channel_id = offered.frame.rt_channel_id
        manager.handle_response(
            ResponseFrame(
                connect_request_id=5,
                rt_channel_id=channel_id,
                switch_mac=SWITCH_MAC,
                ok=True,
            )
        )
        actions = manager.handle_teardown(
            TeardownFrame(connect_request_id=6, rt_channel_id=channel_id)
        )
        assert actions == []  # fire-and-forget release
        assert len(manager.admission.state) == 0
        state = manager.admission.state
        assert state.link_load(LinkRef.uplink("a")) == 0

    def test_duplicate_teardown_absorbed(self):
        # Nodes repeat TeardownFrames on lossy wires; the second copy
        # must be a counted no-op, not a crash.
        manager = make_manager()
        offered = manager.handle_request(request_frame())[0]
        channel_id = offered.frame.rt_channel_id
        manager.handle_response(
            ResponseFrame(
                connect_request_id=5,
                rt_channel_id=channel_id,
                switch_mac=SWITCH_MAC,
                ok=True,
            )
        )
        teardown = TeardownFrame(connect_request_id=0, rt_channel_id=channel_id)
        assert manager.handle_teardown(teardown) == []
        assert manager.handle_teardown(teardown) == []
        assert manager.stale_frames == 1
        assert len(manager.admission.state) == 0

    def test_teardown_for_never_established_channel_absorbed(self):
        manager = make_manager()
        actions = manager.handle_teardown(
            TeardownFrame(connect_request_id=0, rt_channel_id=999)
        )
        assert actions == []
        assert manager.stale_frames == 1


def make_lease_manager(lease_ns=1000):
    directory = make_directory()
    admission = AdmissionController(
        SystemState(["a", "b", "c"]), SymmetricDPS()
    )
    return SwitchChannelManager(
        admission=admission,
        directory=directory,
        switch_mac=SWITCH_MAC,
        lease_ns=lease_ns,
    )


class TestReservationLeases:
    def test_expired_offer_reclaims_capacity(self):
        manager = make_lease_manager(lease_ns=1000)
        manager.handle_request(request_frame(), now=0)
        assert manager.pending_offers == 1
        assert manager.reclaim_expired(now=999) == ()
        assert manager.reclaim_expired(now=1000) == (1,)
        assert manager.pending_offers == 0
        assert manager.lease_reclaims == 1
        state = manager.admission.state
        assert len(state) == 0
        assert state.link_load(LinkRef.uplink("a")) == 0

    def test_late_response_after_reclaim_absorbed(self):
        manager = make_lease_manager(lease_ns=1000)
        offered = manager.handle_request(request_frame(), now=0)[0]
        manager.reclaim_expired(now=2000)
        actions = manager.handle_response(
            ResponseFrame(
                connect_request_id=5,
                rt_channel_id=offered.frame.rt_channel_id,
                switch_mac=SWITCH_MAC,
                ok=True,
            ),
            now=2000,
        )
        assert actions == []
        assert manager.stale_frames == 1

    def test_duplicate_request_reforwards_offer_and_refreshes_lease(self):
        manager = make_lease_manager(lease_ns=1000)
        first = manager.handle_request(request_frame(), now=0)
        again = manager.handle_request(request_frame(), now=500)
        # identical stamped offer re-forwarded, no second admission run
        assert again[0].frame == first[0].frame
        assert manager.last_decision is None
        assert manager.duplicate_requests == 1
        assert manager.pending_offers == 1
        # the lease was refreshed: expiry moved from 1000 to 1500
        assert manager.reclaim_expired(now=1000) == ()
        assert manager.reclaim_expired(now=1500) == (1,)

    def test_duplicate_request_after_verdict_reanswers(self):
        manager = make_lease_manager(lease_ns=1000)
        offered = manager.handle_request(request_frame(), now=0)[0]
        channel_id = offered.frame.rt_channel_id
        final = manager.handle_response(
            ResponseFrame(
                connect_request_id=5,
                rt_channel_id=channel_id,
                switch_mac=SWITCH_MAC,
                ok=True,
            ),
            now=100,
        )[0]
        # the final response was lost; the source retransmits
        replay = manager.handle_request(request_frame(), now=200)
        assert manager.last_decision is None  # no second admission run
        assert replay[0].target == "a"
        assert replay[0].frame.ok
        assert replay[0].frame.rt_channel_id == channel_id
        assert replay[0].grant == final.grant

    def test_duplicate_request_after_rejection_reanswers(self):
        manager = make_lease_manager(lease_ns=1000)
        bad = request_frame(d=5)  # d < 2C: rejected outright
        manager.handle_request(bad, now=0)
        assert not manager.last_decision.accepted
        replay = manager.handle_request(bad, now=100)
        assert manager.last_decision is None
        assert not replay[0].frame.ok
        assert replay[0].grant is None

    def test_teardown_purges_reanswer_cache(self):
        manager = make_lease_manager(lease_ns=1000)
        offered = manager.handle_request(request_frame(), now=0)[0]
        channel_id = offered.frame.rt_channel_id
        manager.handle_response(
            ResponseFrame(
                connect_request_id=5,
                rt_channel_id=channel_id,
                switch_mac=SWITCH_MAC,
                ok=True,
            ),
            now=100,
        )
        manager.handle_teardown(
            TeardownFrame(connect_request_id=0, rt_channel_id=channel_id)
        )
        # the channel is dead: a same-keyed request must be admitted
        # fresh, never answered with the stale grant.
        fresh = manager.handle_request(request_frame(), now=200)
        assert manager.last_decision.accepted
        assert isinstance(fresh[0].frame, RequestFrame)

    def test_verdict_cache_expires(self):
        manager = make_lease_manager(lease_ns=1000)
        bad = request_frame(d=5)
        manager.handle_request(bad, now=0)
        # past the response-cache TTL the key is treated as a new request
        from repro.core.channel_manager import DEFAULT_RESPONSE_CACHE_NS

        manager.handle_request(bad, now=DEFAULT_RESPONSE_CACHE_NS + 1)
        assert manager.last_decision is not None

    def test_no_lease_means_no_expiry(self):
        manager = make_manager()
        manager.handle_request(request_frame())
        assert manager.reclaim_expired(now=10**15) == ()
        assert manager.pending_offers == 1


class TestForwardingLookup:
    def test_destination_of(self):
        manager = make_manager()
        offered = manager.handle_request(request_frame())[0]
        channel_id = offered.frame.rt_channel_id
        manager.handle_response(
            ResponseFrame(
                connect_request_id=5,
                rt_channel_id=channel_id,
                switch_mac=SWITCH_MAC,
                ok=True,
            )
        )
        assert manager.destination_of(channel_id) == "b"
