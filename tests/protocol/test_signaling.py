"""Tests for the end-node signalling state machines."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, FieldRangeError, ProtocolError
from repro.protocol.frames import RequestFrame, ResponseFrame
from repro.protocol.signaling import (
    EXPLICIT_TEARDOWN_ID,
    ConnectionRequestState,
    ResponseKind,
    RetryPolicy,
    SourceSignaling,
    accept_all,
    destination_response,
)
from repro.sim.rng import RngRegistry

NODE_MAC = 0x02_00_00_00_00_01
SWITCH_MAC = 0x02_FF_FF_FF_FF_FF
NODE_IP = 0x0A00_0001


def make_source() -> SourceSignaling:
    return SourceSignaling(
        node_mac=NODE_MAC, switch_mac=SWITCH_MAC, node_ip=NODE_IP
    )


def respond(request: RequestFrame, ok: bool, channel_id: int = 5):
    return ResponseFrame(
        connect_request_id=request.connect_request_id,
        rt_channel_id=channel_id,
        switch_mac=SWITCH_MAC,
        ok=ok,
    )


class TestSourceSignaling:
    def test_build_request_fields(self):
        source = make_source()
        request = source.build_request(
            destination="b",
            destination_mac=0x02,
            destination_ip=0x0A00_0002,
            period=100,
            capacity=3,
            deadline=40,
        )
        assert request.source_mac == NODE_MAC
        assert request.rt_channel_id == 0  # not valid yet, per the paper
        assert request.period == 100
        assert source.outstanding == 1

    def test_accept_flow(self):
        source = make_source()
        request = source.build_request("b", 2, 2, 100, 3, 40)
        kind, record = source.handle_response(
            respond(request, ok=True, channel_id=9)
        )
        assert kind is ResponseKind.COMPLETED
        assert record.state is ConnectionRequestState.ACCEPTED
        assert record.rt_channel_id == 9
        assert source.outstanding == 0

    def test_reject_flow(self):
        source = make_source()
        request = source.build_request("b", 2, 2, 100, 3, 40)
        kind, record = source.handle_response(respond(request, ok=False))
        assert kind is ResponseKind.COMPLETED
        assert record.state is ConnectionRequestState.REJECTED
        assert record.rt_channel_id == -1

    def test_unknown_response_is_stale(self):
        source = make_source()
        stray = ResponseFrame(
            connect_request_id=77, rt_channel_id=1, switch_mac=SWITCH_MAC,
            ok=True,
        )
        kind, record = source.handle_response(stray)
        assert kind is ResponseKind.STALE
        assert record is None

    def test_duplicate_response_recognized(self):
        source = make_source()
        request = source.build_request("b", 2, 2, 100, 3, 40)
        _, first = source.handle_response(respond(request, ok=True))
        kind, record = source.handle_response(respond(request, ok=True))
        assert kind is ResponseKind.DUPLICATE
        assert record is first

    def test_duplicate_of_rejection_recognized(self):
        source = make_source()
        request = source.build_request("b", 2, 2, 100, 3, 40)
        source.handle_response(respond(request, ok=False))
        kind, _ = source.handle_response(respond(request, ok=False))
        assert kind is ResponseKind.DUPLICATE

    def test_mismatched_duplicate_is_stale(self):
        # same ID but a different channel: not a repeat of our verdict.
        source = make_source()
        request = source.build_request("b", 2, 2, 100, 3, 40)
        source.handle_response(respond(request, ok=True, channel_id=9))
        kind, record = source.handle_response(
            respond(request, ok=True, channel_id=10)
        )
        assert kind is ResponseKind.STALE
        assert record is None

    def test_reallocated_id_forgets_old_verdict(self):
        source = make_source()
        first = source.build_request("b", 2, 2, 100, 3, 40)
        source.handle_response(respond(first, ok=True, channel_id=9))
        assert first.connect_request_id in source._completed_recent
        # the channel must be torn down before its ID can come around
        # again (live channels pin their request ID)
        source.channel_torn_down(9)
        # cycle through the whole space so the ID is reallocated
        for _ in range(SourceSignaling.MAX_OUTSTANDING):
            request = source.build_request("b", 2, 2, 100, 3, 40)
            if request.connect_request_id == first.connect_request_id:
                break
            source.handle_response(respond(request, ok=False))
        else:
            pytest.fail("ID was never reallocated")
        # the ID now names a NEW logical request: the old verdict must be
        # unmatchable (duplicate detection would replay a stale grant).
        assert first.connect_request_id not in source._completed_recent

    def test_id_zero_never_allocated(self):
        source = make_source()
        ids = set()
        for _ in range(SourceSignaling.MAX_OUTSTANDING):
            ids.add(source.build_request("b", 2, 2, 100, 3, 40).connect_request_id)
        assert EXPLICIT_TEARDOWN_ID not in ids
        assert len(ids) == SourceSignaling.MAX_OUTSTANDING

    def test_request_ids_distinct_while_outstanding(self):
        source = make_source()
        ids = {
            source.build_request("b", 2, 2, 100, 3, 40).connect_request_id
            for _ in range(100)
        }
        assert len(ids) == 100

    def test_id_space_exhaustion(self):
        source = make_source()
        requests = [
            source.build_request("b", 2, 2, 100, 3, 40) for _ in range(255)
        ]
        with pytest.raises(ProtocolError, match="255"):
            source.build_request("b", 2, 2, 100, 3, 40)
        # Completing one frees an ID.
        source.handle_response(respond(requests[0], ok=False))
        source.build_request("b", 2, 2, 100, 3, 40)

    def test_ids_reused_after_completion(self):
        source = make_source()
        first = source.build_request("b", 2, 2, 100, 3, 40)
        source.handle_response(respond(first, ok=True))
        source.channel_torn_down(5)
        # the freed ID eventually comes around again
        seen = set()
        for _ in range(255):
            request = source.build_request("b", 2, 2, 100, 3, 40)
            seen.add(request.connect_request_id)
            source.handle_response(respond(request, ok=True))
            source.channel_torn_down(5)
        assert first.connect_request_id in seen

    def test_live_channel_pins_request_id(self):
        # An established channel's request ID must NOT be reallocated:
        # the switch's verdict cache is keyed (source MAC, request ID)
        # and could re-answer a new request with the old verdict.
        source = make_source()
        first = source.build_request("b", 2, 2, 100, 3, 40)
        source.handle_response(respond(first, ok=True, channel_id=9))
        ids = {
            source.build_request("b", 2, 2, 100, 3, 40).connect_request_id
            for _ in range(SourceSignaling.MAX_OUTSTANDING - 1)
        }
        assert first.connect_request_id not in ids
        # with 1 live + 254 pending, the space is exhausted
        with pytest.raises(ProtocolError, match="established"):
            source.build_request("b", 2, 2, 100, 3, 40)
        # teardown frees the pinned ID again
        source.channel_torn_down(9)
        request = source.build_request("b", 2, 2, 100, 3, 40)
        assert request.connect_request_id == first.connect_request_id

    def test_is_pending(self):
        source = make_source()
        request = source.build_request("b", 2, 2, 100, 3, 40)
        assert source.is_pending(request.connect_request_id)
        source.handle_response(respond(request, ok=True))
        assert not source.is_pending(request.connect_request_id)

    def test_unencodable_request_reserves_no_id(self):
        # the frame is built before its record: a field the wire cannot
        # carry leaves no pending request holding an ID
        source = make_source()
        with pytest.raises(FieldRangeError):
            source.build_request("b", 2, 2, 2**32, 3, 40)
        assert source.outstanding == 0

    def test_late_response_then_duplicate(self):
        source = make_source()
        request = source.build_request("b", 2, 2, 100, 3, 40)
        source.timeout_request(request.connect_request_id)
        kind, record = source.handle_response(
            respond(request, ok=True, channel_id=9)
        )
        assert kind is ResponseKind.LATE
        assert record.state is ConnectionRequestState.TIMED_OUT
        assert record.rt_channel_id == 9
        # the switch may answer a retransmission too: absorbed as duplicate
        kind, _ = source.handle_response(
            respond(request, ok=True, channel_id=9)
        )
        assert kind is ResponseKind.DUPLICATE


class TestRetryPolicy:
    def test_deterministic_backoff(self):
        policy = RetryPolicy(timeout_ns=1000, max_retries=3, backoff=2.0)
        assert [policy.delay_ns(k) for k in range(4)] == [
            1000, 2000, 4000, 8000,
        ]

    def test_cap(self):
        policy = RetryPolicy(
            timeout_ns=1000, max_retries=5, backoff=4.0, max_timeout_ns=5000
        )
        assert policy.delay_ns(3) == 5000

    def test_jitter_bounds_and_determinism(self):
        policy = RetryPolicy(
            timeout_ns=10_000, max_retries=3, backoff=2.0, jitter=0.25
        )
        draws_a = [
            policy.delay_ns(k, RngRegistry(7).stream("jitter"))
            for k in range(4)
        ]
        draws_b = [
            policy.delay_ns(k, RngRegistry(7).stream("jitter"))
            for k in range(4)
        ]
        assert draws_a == draws_b  # same seed, same schedule
        for k, delay in enumerate(draws_a):
            base = 10_000 * 2.0 ** k
            assert 0.75 * base <= delay <= 1.25 * base

    def test_jitter_requires_rng(self):
        policy = RetryPolicy(timeout_ns=1000, jitter=0.5)
        with pytest.raises(ConfigurationError, match="rng"):
            policy.delay_ns(0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(timeout_ns=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(timeout_ns=100, max_retries=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(timeout_ns=100, backoff=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(timeout_ns=100, jitter=1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(timeout_ns=100, max_timeout_ns=50)


class TestDestinationResponse:
    def make_offer(self, channel_id=5) -> RequestFrame:
        return RequestFrame(
            connect_request_id=1,
            rt_channel_id=channel_id,
            source_mac=NODE_MAC,
            destination_mac=0x02,
            source_ip=NODE_IP,
            destination_ip=0x0A00_0002,
            period=100,
            capacity=3,
            deadline=40,
        )

    def test_accept_all_policy(self):
        response = destination_response(
            self.make_offer(), SWITCH_MAC, accept_all
        )
        assert response.ok
        assert response.rt_channel_id == 5
        assert response.switch_mac == SWITCH_MAC

    def test_declining_policy(self):
        response = destination_response(
            self.make_offer(), SWITCH_MAC, lambda req: False
        )
        assert not response.ok

    def test_policy_sees_the_request(self):
        seen = []

        def policy(request):
            seen.append(request.period)
            return True

        destination_response(self.make_offer(), SWITCH_MAC, policy)
        assert seen == [100]

    def test_unstamped_offer_rejected(self):
        with pytest.raises(ProtocolError, match="stamp"):
            destination_response(
                self.make_offer(channel_id=0), SWITCH_MAC, accept_all
            )
