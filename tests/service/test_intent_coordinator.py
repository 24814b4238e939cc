"""Unit tests for the intent-lock state machine (one switch's view)."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.protocol.frames import IntentFrame, IntentKind
from repro.service.intent import IntentCoordinator

MAC_A = 0x0200_0000_0000
MAC_B = 0x0200_0000_0001
MAC_C = 0x0200_0000_0002

SPEC = (100, 3, 40)  # (period, capacity, deadline) on the trunk


def pair() -> tuple[IntentCoordinator, IntentCoordinator]:
    return (
        IntentCoordinator(MAC_A, (0,)),
        IntentCoordinator(MAC_B, (0,)),
    )


class TestHandshake:
    def test_announce_ack_opens_hold(self):
        a, b = pair()
        announce = a.begin_intent(1, 0, 7, 6, SPEC, peers=(MAC_B,))
        assert announce.kind is IntentKind.ANNOUNCE
        assert announce.channel_id == 7
        ack = b.record_announce(announce, now_ns=0)
        assert ack.kind is IntentKind.ACK
        assert ack.switch_mac == MAC_A  # echoes the intent's origin
        assert ack.ack_mac == MAC_B
        assert (MAC_A, 1) in b.foreign
        assert a.pending[1]["state"] == "announce"
        assert a.record_ack(ack) is True  # single peer -> hold opens
        assert a.pending[1]["state"] == "hold"

    def test_hold_opens_only_on_the_last_ack(self):
        a = IntentCoordinator(MAC_A, (0,))
        announce = a.begin_intent(1, 0, 7, 6, SPEC, peers=(MAC_C, MAC_B))
        b_ack = IntentCoordinator(MAC_B, (0,)).ack_frame(announce)
        c_ack = IntentCoordinator(MAC_C, (0,)).ack_frame(announce)
        assert a.record_ack(c_ack) is False
        assert a.pending[1]["state"] == "announce"
        assert a.record_ack(b_ack) is True
        assert a.pending[1]["acked"] == [MAC_B, MAC_C]
        assert a.pending[1]["state"] == "hold"

    def test_duplicate_ack_is_idempotent(self):
        a, b = pair()
        announce = a.begin_intent(1, 0, 7, 6, SPEC, peers=(MAC_B,))
        ack = b.record_announce(announce, now_ns=0)
        assert a.record_ack(ack) is True
        # a retransmitted ACK after the hold opened changes nothing
        assert a.record_ack(ack) is False
        assert a.pending[1]["acked"] == [MAC_B]

    def test_the_record_carries_the_callers_fields(self):
        a, _ = pair()
        a.begin_intent(
            1, 0, 7, 6, SPEC, peers=(MAC_B,),
            holding=5_000, src="n0_1", dst="n1_2", owner=0,
        )
        record = a.pending[1]
        assert [record[k] for k in ("holding", "src", "dst", "owner")] == [
            5_000, "n0_1", "n1_2", 0,
        ]

    def test_commit_applies_once(self):
        a, b = pair()
        a.begin_intent(1, 0, 7, 6, SPEC, peers=(MAC_B,))
        commit, record = a.resolve(1, IntentKind.COMMIT)
        assert commit.kind is IntentKind.COMMIT
        assert 1 not in a.pending  # resolve pops the record
        assert record["channel_id"] == 7
        assert b.apply_commit(commit) is True
        assert b.apply_commit(commit) is False  # idempotent
        assert b.committed[0][7] == [MAC_A, 100, 3, 40, 1]
        assert b.version[0] == 1

    def test_abort_clears_foreign(self):
        a, b = pair()
        announce = a.begin_intent(1, 0, 7, 6, SPEC, peers=(MAC_B,))
        b.record_announce(announce, now_ns=0)
        abort, _ = a.resolve(1, IntentKind.ABORT)
        assert abort.kind is IntentKind.ABORT
        assert a.pending == {}
        b.apply_abort(abort)
        assert (MAC_A, 1) not in b.foreign
        assert 7 not in b.committed[0]

    def test_release_is_idempotent_and_logged(self):
        a, b = pair()
        a.begin_intent(1, 0, 7, 6, SPEC, peers=(MAC_B,))
        b.apply_commit(a.resolve(1, IntentKind.COMMIT)[0])
        a.apply_commit(
            IntentFrame(
                kind=IntentKind.COMMIT,
                intent_seq=1,
                switch_mac=MAC_A,
                ack_mac=0,
                link_id=0,
                channel_id=7,
                priority=6,
                period=100,
                capacity=3,
                deadline=40,
            )
        )
        release = a.release_frame(2, 0, 7)
        assert b.apply_release(release) is True
        assert b.apply_release(release) is False
        assert 7 not in b.committed[0]
        assert b.release_log[0] == [[7, 2]]


class TestHoldAndTimeout:
    def hold(self, a: IntentCoordinator, seq: int, channel_id: int, spec):
        announce = a.begin_intent(seq, 0, channel_id, 6, spec, peers=(MAC_B,))
        assert a.record_ack(IntentCoordinator(MAC_B, (0,)).ack_frame(announce))

    def test_close_hold_ignores_an_intent_that_is_not_holding(self):
        a, _ = pair()
        a.begin_intent(1, 0, 7, 6, SPEC, peers=(MAC_B,))
        assert a.close_hold(1, 0, 10**9, max_defers=4) is None
        assert a.close_hold(2, 0, 10**9, max_defers=4) is None

    def test_close_hold_defers_then_reports_the_conflict(self):
        a, _ = pair()
        self.hold(a, 2, 8, SPEC)
        a.record_announce(_announce_raw(MAC_B, 1, 0, 9, 0), now_ns=0)
        outcomes = [a.close_hold(2, 0, 10**9, max_defers=2) for _ in range(3)]
        assert outcomes == ["defer", "defer", "conflict"]
        assert a.pending[2]["defers"] == 2

    def test_close_hold_commits_or_reports_an_infeasible_trunk(self):
        a, _ = pair()
        for cid, seq in ((1, 10), (2, 11)):
            a.apply_commit(_commit_raw(MAC_B, seq, 0, cid, 10, 3, 8))
        self.hold(a, 5, 9, (10, 3, 8))
        self.hold(a, 6, 10, (100, 3, 90))
        # intent 5 precedes 6 (same priority, lower seq): decide it first
        assert a.close_hold(5, 0, 10**9, max_defers=4) == "trunk-infeasible"
        a.resolve(5, IntentKind.ABORT)
        assert a.close_hold(6, 0, 10**9, max_defers=4) == "commit"

    def test_abandon_pops_only_an_announcing_intent(self):
        a, _ = pair()
        a.begin_intent(1, 0, 7, 6, SPEC, peers=(MAC_B,))
        self.hold(a, 2, 8, SPEC)
        assert a.abandon(2) is None
        assert a.abandon(3) is None
        record = a.abandon(1)
        assert record["channel_id"] == 7
        assert sorted(a.pending) == [2]
        assert a.reserved_channel_ids() == [8]


class TestArbitration:
    def test_lower_priority_tuple_wins(self):
        a, b = pair()
        a.begin_intent(1, 0, 7, priority=3, spec_on_link=SPEC, peers=(MAC_B,))
        b.begin_intent(1, 0, 8, priority=5, spec_on_link=SPEC, peers=(MAC_A,))
        # each hears the other's announce
        b.record_announce(_announce(a, 1), now_ns=0)
        a.record_announce(_announce(b, 1), now_ns=0)
        # a (priority 3) precedes b (priority 5): b is blocked, a is not
        assert a.blockers(1, now_ns=0, ttl_ns=10**9) == 0
        assert b.blockers(1, now_ns=0, ttl_ns=10**9) == 1

    def test_mac_breaks_priority_ties(self):
        a, b = pair()
        a.begin_intent(1, 0, 7, priority=4, spec_on_link=SPEC, peers=(MAC_B,))
        b.begin_intent(1, 0, 8, priority=4, spec_on_link=SPEC, peers=(MAC_A,))
        b.record_announce(_announce(a, 1), now_ns=0)
        a.record_announce(_announce(b, 1), now_ns=0)
        # equal priority, equal seq: the lower MAC (switch a) wins
        assert a.blockers(1, now_ns=0, ttl_ns=10**9) == 0
        assert b.blockers(1, now_ns=0, ttl_ns=10**9) == 1

    def test_stale_foreign_intent_expires(self):
        a, b = pair()
        b.begin_intent(1, 0, 8, priority=5, spec_on_link=SPEC, peers=(MAC_A,))
        b.record_announce(_announce_raw(MAC_A, 1, 0, 7, 3), now_ns=0)
        assert b.blockers(1, now_ns=100, ttl_ns=10_000) == 1
        # past the TTL the dead peer's intent stops blocking (and is
        # pruned from the table entirely)
        assert b.blockers(1, now_ns=20_000, ttl_ns=10_000) == 0
        assert (MAC_A, 1) not in b.foreign

    def test_trunk_feasibility_gates_commit(self):
        a, _ = pair()
        # two committed channels demanding 6 slots by deadline 8
        for cid, seq in ((1, 10), (2, 11)):
            a.apply_commit(_commit_raw(MAC_B, seq, 0, cid, 10, 3, 8))
        # a third identical channel pushes demand to 9 slots by t=8
        a.begin_intent(5, 0, 9, 1, (10, 3, 8), peers=(MAC_B,))
        assert a.trunk_feasible(5) is False
        # a light, loose-deadline channel still fits
        a.begin_intent(6, 0, 10, 1, (100, 3, 90), peers=(MAC_B,))
        assert a.trunk_feasible(6) is True


class TestReconciliation:
    def test_replay_brings_a_blank_peer_up_to_date(self):
        a, b = pair()
        for cid, seq in ((1, 10), (2, 11)):
            a.apply_commit(_commit_raw(MAC_A, seq, 0, cid, 100, 3, 40))
        a.apply_release(
            IntentFrame(
                kind=IntentKind.RELEASE,
                intent_seq=12,
                switch_mac=MAC_A,
                ack_mac=0,
                link_id=0,
                channel_id=1,
                priority=0,
                period=100,
                capacity=3,
                deadline=40,
            )
        )
        for frame in a.reconciliation_frames(0):
            if frame.kind is IntentKind.COMMIT:
                b.apply_commit(frame)
            else:
                b.apply_release(frame)
        assert b.committed[0] == a.committed[0]

    def test_release_log_is_bounded(self):
        a, _ = pair()
        for i in range(100):
            a.apply_commit(_commit_raw(MAC_A, 2 * i, 0, i, 100, 1, 50))
            a.apply_release(
                IntentFrame(
                    kind=IntentKind.RELEASE,
                    intent_seq=2 * i + 1,
                    switch_mac=MAC_A,
                    ack_mac=0,
                    link_id=0,
                    channel_id=i,
                    priority=0,
                    period=100,
                    capacity=1,
                    deadline=50,
                )
            )
        assert len(a.release_log[0]) == 64


class TestStateRoundTrip:
    def test_export_import_is_lossless(self):
        a, b = pair()
        announce = a.begin_intent(1, 0, 7, 6, SPEC, peers=(MAC_B,))
        b.record_announce(announce, now_ns=123)
        a.record_ack(
            IntentFrame(
                kind=IntentKind.ACK,
                intent_seq=1,
                switch_mac=MAC_A,
                ack_mac=MAC_B,
                link_id=0,
                channel_id=7,
                priority=6,
                period=100,
                capacity=3,
                deadline=40,
            )
        )
        a.apply_commit(_commit_raw(MAC_B, 9, 0, 3, 100, 2, 30))
        for original in (a, b):
            state = json.loads(json.dumps(original.export_state()))
            clone = IntentCoordinator(original.mac, original.link_ids)
            clone.import_state(state)
            assert clone.export_state() == original.export_state()

    def test_import_rejects_foreign_mac(self):
        a, b = pair()
        with pytest.raises(ConfigurationError):
            b.import_state(a.export_state())


def _announce(coordinator: IntentCoordinator, seq: int) -> IntentFrame:
    record = coordinator.pending[seq]
    return IntentFrame(
        kind=IntentKind.ANNOUNCE,
        intent_seq=seq,
        switch_mac=coordinator.mac,
        ack_mac=0,
        link_id=record["link_id"],
        channel_id=record["channel_id"],
        priority=record["priority"],
        period=record["period"],
        capacity=record["capacity"],
        deadline=record["deadline"],
    )


def _announce_raw(
    mac: int, seq: int, link_id: int, channel_id: int, priority: int
) -> IntentFrame:
    return IntentFrame(
        kind=IntentKind.ANNOUNCE,
        intent_seq=seq,
        switch_mac=mac,
        ack_mac=0,
        link_id=link_id,
        channel_id=channel_id,
        priority=priority,
        period=100,
        capacity=3,
        deadline=40,
    )


def _commit_raw(
    mac: int,
    seq: int,
    link_id: int,
    channel_id: int,
    period: int,
    capacity: int,
    deadline: int,
) -> IntentFrame:
    return IntentFrame(
        kind=IntentKind.COMMIT,
        intent_seq=seq,
        switch_mac=mac,
        ack_mac=0,
        link_id=link_id,
        channel_id=channel_id,
        priority=0,
        period=period,
        capacity=capacity,
        deadline=deadline,
    )
