"""Tests for the deterministic fault plan (frame classification + drops)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.faults import (
    FRAME_CLASSES,
    SIGNALLING_CLASSES,
    FaultPlan,
    LinkDownWindow,
)
from repro.protocol.ethernet import EthernetFrame, FrameKind
from repro.protocol.frames import RequestFrame, ResponseFrame, TeardownFrame
from repro.protocol.headers import RTHeader
from repro.sim.rng import RngRegistry

SWITCH_MAC = 0x02_FF_FF_FF_FF_FF


def rt_frame() -> EthernetFrame:
    return EthernetFrame(
        kind=FrameKind.RT_DATA,
        source="a",
        destination="b",
        payload_bytes=100,
        rt_header=RTHeader(ip_source=0, ip_destination=1),
        channel_id=1,
    )


def request_frame(channel_id: int = 0) -> RequestFrame:
    return RequestFrame(
        connect_request_id=1,
        rt_channel_id=channel_id,
        source_mac=0x02_00_00_00_00_01,
        destination_mac=0x02_00_00_00_00_02,
        source_ip=0x0A00_0001,
        destination_ip=0x0A00_0002,
        period=100,
        capacity=3,
        deadline=40,
    )


def signaling(source: str, payload: object) -> EthernetFrame:
    return EthernetFrame(
        kind=FrameKind.SIGNALING,
        source=source,
        destination="switch" if source != "switch" else "a",
        payload_bytes=36,
        payload_object=payload,
    )


class TestClassify:
    def test_request_vs_offer_by_direction(self):
        # the same CONNECT wire format is a request uphill, an offer
        # downhill -- direction disambiguates
        wire = request_frame().encode()
        assert FaultPlan.classify(signaling("a", wire)) == "request"
        assert FaultPlan.classify(signaling("switch", wire)) == "offer"

    def test_response_directions(self):
        wire = ResponseFrame(
            connect_request_id=1, rt_channel_id=5, switch_mac=SWITCH_MAC,
            ok=True,
        ).encode()
        assert FaultPlan.classify(signaling("b", wire)) == "dest-response"
        assert FaultPlan.classify(signaling("switch", wire)) == "final-response"

    def test_grant_tuple_is_final_response(self):
        response = ResponseFrame(
            connect_request_id=1, rt_channel_id=5, switch_mac=SWITCH_MAC,
            ok=True,
        )
        frame = signaling("switch", (response, object()))
        assert FaultPlan.classify(frame) == "final-response"

    def test_teardown(self):
        wire = TeardownFrame(connect_request_id=0, rt_channel_id=5).encode()
        assert FaultPlan.classify(signaling("a", wire)) == "teardown"

    def test_typed_payloads_accepted(self):
        # the switch decodes to typed frames before re-emitting; classify
        # must handle both representations
        assert FaultPlan.classify(signaling("a", request_frame())) == "request"
        assert (
            FaultPlan.classify(
                signaling("a", TeardownFrame(connect_request_id=0,
                                             rt_channel_id=1))
            )
            == "teardown"
        )

    def test_data_plane_classes(self):
        rt = rt_frame()
        be = EthernetFrame(
            kind=FrameKind.BEST_EFFORT, source="a", destination="b",
            payload_bytes=100,
        )
        assert FaultPlan.classify(rt) == "rt-data"
        assert FaultPlan.classify(be) == "best-effort"

    def test_unclassifiable_payload_rejected(self):
        # none of these carries a type tag
        for payload in (3.14, object(), {"TYPE": 1}, b""):
            with pytest.raises(ConfigurationError, match="classify"):
                FaultPlan.classify(signaling("a", payload))

    def test_unknown_wire_tag_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown signalling"):
            FaultPlan.classify(signaling("a", b"\x7f" + b"\x00" * 10))


class TestValidation:
    def test_unknown_class_rejected(self):
        with pytest.raises(ConfigurationError, match="frame class"):
            FaultPlan(bernoulli={"reqest": 0.1})
        with pytest.raises(ConfigurationError, match="frame class"):
            FaultPlan(drop_occurrences={"nope": [0]})

    def test_rate_bounds(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(bernoulli={"request": 1.0})
        with pytest.raises(ConfigurationError):
            FaultPlan(bernoulli={"request": -0.1})

    def test_negative_occurrence_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(drop_occurrences={"request": [-1]})

    def test_down_window_ordering(self):
        with pytest.raises(ConfigurationError):
            LinkDownWindow("*", 100, 100)
        with pytest.raises(ConfigurationError):
            LinkDownWindow("*", -1, 100)


class TestDropDecisions:
    def test_occurrence_drop_is_exact(self):
        plan = FaultPlan(drop_occurrences={"request": [1]})
        wire = request_frame().encode()
        fates = [
            plan.should_drop("a->switch", signaling("a", wire), now=0)
            for _ in range(4)
        ]
        assert fates == [False, True, False, False]
        assert plan.drops_by_class["request"] == 1
        assert plan.seen["request"] == 4

    def test_occurrences_counted_per_class(self):
        # dropping request #0 must not consume teardown occurrences
        plan = FaultPlan(drop_occurrences={"teardown": [0]})
        req = signaling("a", request_frame().encode())
        tdn = signaling(
            "a", TeardownFrame(connect_request_id=0, rt_channel_id=1).encode()
        )
        assert not plan.should_drop("a->switch", req, now=0)
        assert plan.should_drop("a->switch", tdn, now=0)

    def test_bernoulli_deterministic_per_seed(self):
        def fates(seed):
            plan = FaultPlan(seed=seed, bernoulli={"request": 0.5})
            wire = request_frame().encode()
            return [
                plan.should_drop("a->switch", signaling("a", wire), now=0)
                for _ in range(50)
            ]

        assert fates(3) == fates(3)
        assert fates(3) != fates(4)  # astronomically unlikely to collide
        assert any(fates(3)) and not all(fates(3))

    def test_bernoulli_streams_independent_across_classes(self):
        # draws for one class must not shift when another class also
        # sees traffic (independent named streams)
        wire = request_frame().encode()
        tdn = TeardownFrame(connect_request_id=0, rt_channel_id=1).encode()

        alone = FaultPlan(seed=5, bernoulli={"request": 0.5,
                                             "teardown": 0.5})
        fates_alone = [
            alone.should_drop("a->switch", signaling("a", wire), now=0)
            for _ in range(30)
        ]
        mixed = FaultPlan(seed=5, bernoulli={"request": 0.5,
                                             "teardown": 0.5})
        fates_mixed = []
        for _ in range(30):
            fates_mixed.append(
                mixed.should_drop("a->switch", signaling("a", wire), now=0)
            )
            mixed.should_drop("a->switch", signaling("a", tdn), now=0)
        assert fates_alone == fates_mixed

    def test_down_window_half_open_and_pattern(self):
        plan = FaultPlan(
            down_windows=[LinkDownWindow("m0->switch", 100, 200)]
        )
        frame = signaling("m0", request_frame().encode())
        assert not plan.should_drop("m0->switch", frame, now=99)
        assert plan.should_drop("m0->switch", frame, now=100)
        assert plan.should_drop("m0->switch", frame, now=199)
        assert not plan.should_drop("m0->switch", frame, now=200)
        # other links unaffected
        assert not plan.should_drop("m1->switch", frame, now=150)
        assert plan.window_drops == 2

    def test_down_window_glob(self):
        plan = FaultPlan(down_windows=[LinkDownWindow("switch->*", 0, 10)])
        offer = signaling("switch", request_frame(channel_id=3).encode())
        assert plan.should_drop("switch->m0", offer, now=5)
        assert not plan.should_drop("m0->switch", offer, now=5)

    def test_signalling_loss_covers_only_control_plane(self):
        plan = FaultPlan.signalling_loss(0.9, seed=1)
        rt = rt_frame()
        assert not any(
            plan.should_drop("a->switch", rt, now=0) for _ in range(100)
        )
        assert set(SIGNALLING_CLASSES) < set(FRAME_CLASSES)

    def test_stats_accumulate(self):
        plan = FaultPlan.signalling_loss(0.5, seed=9)
        wire = request_frame().encode()
        for _ in range(40):
            plan.should_drop("a->switch", signaling("a", wire), now=0)
        assert plan.total_drops == plan.drops_by_class["request"]
        assert plan.signalling_drops() == plan.total_drops
        assert 0 < plan.total_drops < 40


def mixed_arrivals() -> list[EthernetFrame]:
    """Requests, teardowns, RT data and best-effort frames, interleaved."""
    wire = request_frame().encode()
    tdn = TeardownFrame(connect_request_id=0, rt_channel_id=1).encode()
    be = EthernetFrame(
        kind=FrameKind.BEST_EFFORT, source="a", destination="b",
        payload_bytes=64,
    )
    kinds = (
        lambda: signaling("a", wire),
        rt_frame,
        lambda: signaling("a", tdn),
        lambda: be,
    )
    return [kinds[i % len(kinds)]() for i in range(200)]


class TestCorruption:
    def test_drops_match_a_reference_loop(self):
        plan = FaultPlan(seed=17, corruption=0.3)
        reference = RngRegistry(17).stream("link-loss")
        causes = [
            plan.drop_cause("a->switch", frame, now=0)
            for frame in mixed_arrivals()
        ]
        expected = [
            "corruption" if reference.random() < 0.3 else None
            for _ in range(200)
        ]
        assert causes == expected
        assert 0 < causes.count("corruption") < 200
        # corruption is the wire's draw, not a targeted rule's drop
        assert plan.total_drops == 0

    def test_rule_drops_take_no_corruption_draw(self):
        rules = dict(
            bernoulli={"request": 0.5}, drop_occurrences={"teardown": [1, 4]}
        )
        plan = FaultPlan(seed=23, corruption=0.25, **rules)
        ruled = FaultPlan(seed=23, **rules)
        reference = RngRegistry(23).stream("link-loss")
        expected = []
        for frame in mixed_arrivals():
            if ruled.should_drop("a->switch", frame, now=0):
                expected.append("fault-plan")
            elif reference.random() < 0.25:
                expected.append("corruption")
            else:
                expected.append(None)
        causes = [
            plan.drop_cause("a->switch", frame, now=0)
            for frame in mixed_arrivals()
        ]
        assert causes == expected
        assert causes.count("fault-plan") > 2  # Bernoulli drops too
        assert causes.count("corruption") > 0
        assert plan.drops_by_class == ruled.drops_by_class

    def test_state_round_trip_continues_the_draws(self):
        frames = mixed_arrivals()
        full = FaultPlan(seed=5, corruption=0.4)
        expected = [full.drop_cause("l", f, now=0) for f in frames]
        head = FaultPlan(seed=5, corruption=0.4)
        causes = [head.drop_cause("l", f, now=0) for f in frames[:77]]
        resumed = FaultPlan(seed=5, corruption=0.4)
        resumed.import_state(head.export_state())
        causes += [resumed.drop_cause("l", f, now=0) for f in frames[77:]]
        assert causes == expected

    def test_link_loss_position_exported_only_when_corrupting(self):
        assert set(FaultPlan(seed=5).export_state()) == {
            "seen", "drops_by_class", "window_drops", "rng_states",
        }
        corrupting = FaultPlan(seed=5, corruption=0.4).export_state()
        assert "link_loss_rng_state" in corrupting
        with pytest.raises(ConfigurationError, match="corrupts no frames"):
            FaultPlan(seed=5).import_state(corrupting)
