"""Tests for the coordination-class fault plan and its checkpoint path."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.faults import (
    COORDINATION_CLASSES,
    SIGNALLING_CLASSES,
    FaultPlan,
)
from repro.faults.plan import class_of_tag
from repro.protocol.ethernet import EthernetFrame, FrameKind
from repro.protocol.frames import GossipFrame, IntentFrame, IntentKind


def intent_frame() -> EthernetFrame:
    payload = IntentFrame(
        kind=IntentKind.ANNOUNCE,
        intent_seq=1,
        switch_mac=0x0200_0000_0000,
        ack_mac=0,
        link_id=0,
        channel_id=7,
        priority=6,
        period=100,
        capacity=3,
        deadline=40,
    )
    return EthernetFrame(
        kind=FrameKind.SIGNALING,
        source="sw0",
        destination="sw1",
        payload_bytes=len(payload.encode()),
        payload_object=payload,
    )


def gossip_frame() -> EthernetFrame:
    payload = GossipFrame(
        switch_mac=0x0200_0000_0000,
        link_id=0,
        version=3,
        load=2,
        util_num=1,
        util_den=10,
    )
    return EthernetFrame(
        kind=FrameKind.SIGNALING,
        source="sw0",
        destination="sw1",
        payload_bytes=len(payload.encode()),
        payload_object=payload,
    )


class TestClassification:
    def test_intent_and_gossip_are_coordination_classes(self):
        assert COORDINATION_CLASSES == ("intent", "gossip")
        assert FaultPlan.classify(intent_frame()) == "intent"
        assert FaultPlan.classify(gossip_frame()) == "gossip"

    def test_wire_encoded_payloads_classify_too(self):
        # the star's links carry raw wire bytes, not structured objects
        # (the intent bus passes typed frames, named by class_of_tag)
        frame = intent_frame()
        wire = EthernetFrame(
            kind=FrameKind.SIGNALING,
            source="sw0",
            destination="sw1",
            payload_bytes=frame.payload_bytes,
            payload_object=frame.payload_object.encode(),
        )
        assert FaultPlan.classify(wire) == "intent"


class TestControlLoss:
    def test_covers_signalling_and_coordination(self):
        plan = FaultPlan.control_loss(0.5, seed=1)
        for name in SIGNALLING_CLASSES + COORDINATION_CLASSES:
            assert name in plan._bernoulli
            assert plan._bernoulli[name] == 0.5

    def test_zero_rate_drops_nothing(self):
        plan = FaultPlan.control_loss(0.0, seed=1)
        for _ in range(50):
            assert plan.should_drop("l", intent_frame(), 0) is False
        assert plan.total_drops == 0

    def test_drops_are_deterministic_in_seed(self):
        draws = []
        for _ in range(2):
            plan = FaultPlan.control_loss(0.3, seed=9)
            draws.append(
                [plan.should_drop("l", intent_frame(), t) for t in range(200)]
            )
        assert draws[0] == draws[1]
        assert any(draws[0])  # 30% over 200 frames drops something

    def test_rt_data_is_never_dropped(self):
        plan = FaultPlan.control_loss(0.99, seed=0)
        from repro.protocol.headers import RTHeader

        frame = EthernetFrame(
            kind=FrameKind.RT_DATA,
            source="a",
            destination="b",
            payload_bytes=100,
            rt_header=RTHeader(ip_source=0, ip_destination=1),
            channel_id=1,
        )
        assert plan.should_drop("l", frame, 0) is False


class TestClassLevelDecision:
    def test_named_class_reproduces_should_drop(self):
        # the intent bus names each frame's class from its type tag and
        # skips the EthernetFrame; the drops, counters and RNG positions
        # must be those of should_drop on the framed equivalent
        frames = [
            intent_frame() if k % 3 else gossip_frame() for k in range(300)
        ]
        links = [f"sw{k % 2}->sw{1 - k % 2}" for k in range(300)]
        framed = FaultPlan.control_loss(0.2, seed=11)
        named = FaultPlan.control_loss(0.2, seed=11)
        by_frame = [
            framed.should_drop(link, frame, t)
            for t, (link, frame) in enumerate(zip(links, frames))
        ]
        by_class = [
            named.should_drop_class(
                class_of_tag(frame.payload_object.TYPE), link, t
            )
            for t, (link, frame) in enumerate(zip(links, frames))
        ]
        assert by_class == by_frame
        assert any(by_frame) and not all(by_frame)
        assert named.seen == framed.seen
        assert named.seen["intent"] == 200 and named.seen["gossip"] == 100
        assert named.drops_by_class == framed.drops_by_class
        assert named.export_state() == framed.export_state()

    def test_class_of_tag_matches_classify(self):
        assert class_of_tag(IntentFrame.TYPE) == FaultPlan.classify(
            intent_frame()
        )
        assert class_of_tag(GossipFrame.TYPE) == FaultPlan.classify(
            gossip_frame()
        )
        with pytest.raises(ConfigurationError, match="unknown signalling"):
            class_of_tag(0x7F)


class TestStateRoundTrip:
    def test_resumed_plan_continues_the_drop_sequence(self):
        reference = FaultPlan.control_loss(0.3, seed=5)
        full = [
            reference.should_drop("l", intent_frame(), t) for t in range(120)
        ]

        victim = FaultPlan.control_loss(0.3, seed=5)
        head = [
            victim.should_drop("l", intent_frame(), t) for t in range(60)
        ]
        state = json.loads(json.dumps(victim.export_state()))
        resumed = FaultPlan.control_loss(0.3, seed=5)
        resumed.import_state(state)
        tail = [
            resumed.should_drop("l", intent_frame(), t)
            for t in range(60, 120)
        ]
        assert head + tail == full
        assert resumed.total_drops == reference.total_drops

    def test_counters_survive_the_round_trip(self):
        plan = FaultPlan.control_loss(0.5, seed=2)
        for t in range(40):
            plan.should_drop("l", gossip_frame(), t)
        state = plan.export_state()
        clone = FaultPlan.control_loss(0.5, seed=2)
        clone.import_state(state)
        assert clone.seen == plan.seen
        assert clone.drops_by_class == plan.drops_by_class

    def test_import_rejects_unknown_class(self):
        plan = FaultPlan.control_loss(0.5, seed=2)
        with pytest.raises(ConfigurationError):
            plan.import_state({"seen": {"no-such-class": 3}})

    def test_import_rejects_unconfigured_rng_stream(self):
        # a signalling-only plan cannot adopt a control-loss snapshot
        source = FaultPlan.control_loss(0.5, seed=2)
        source.should_drop("l", intent_frame(), 0)
        narrow = FaultPlan.signalling_loss(0.5, seed=2)
        with pytest.raises(ConfigurationError):
            narrow.import_state(source.export_state())
