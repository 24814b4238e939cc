"""Tests for the discrete-event kernel."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.obs.probes import ProbeSet
from repro.obs.registry import MetricsRegistry
from repro.sim.events import Slot
from repro.sim.kernel import Simulator


class TestScheduling:
    def test_time_ordering(self):
        sim = Simulator()
        seen = []
        sim.schedule(300, lambda: seen.append("c"))
        sim.schedule(100, lambda: seen.append("a"))
        sim.schedule(200, lambda: seen.append("b"))
        sim.run()
        assert seen == ["a", "b", "c"]
        assert sim.now == 300

    def test_fifo_at_same_instant(self):
        sim = Simulator()
        seen = []
        for i in range(5):
            sim.schedule(50, lambda i=i: seen.append(i))
        sim.run()
        assert seen == [0, 1, 2, 3, 4]

    def test_zero_delay_runs_after_current_event(self):
        sim = Simulator()
        seen = []

        def outer():
            sim.schedule(0, lambda: seen.append("inner"))
            seen.append("outer")

        sim.schedule(10, outer)
        sim.run()
        assert seen == ["outer", "inner"]
        assert sim.now == 10

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(100, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(50, lambda: None)

    def test_non_callable_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(1, "not callable")  # type: ignore[arg-type]


class TestRun:
    def test_run_until_horizon(self):
        sim = Simulator()
        seen = []
        sim.schedule(10, lambda: seen.append(10))
        sim.schedule(20, lambda: seen.append(20))
        sim.schedule(30, lambda: seen.append(30))
        fired = sim.run(until=20)
        assert fired == 2
        assert seen == [10, 20]
        assert sim.now == 20
        sim.run()
        assert seen == [10, 20, 30]

    def test_run_advances_clock_to_horizon_when_idle(self):
        sim = Simulator()
        sim.run(until=500)
        assert sim.now == 500

    def test_run_past_horizon_rejected(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.run(until=5)

    def test_reentrant_run_rejected(self):
        sim = Simulator()
        errors = []

        def recurse():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(1, recurse)
        sim.run()
        assert len(errors) == 1

    def test_events_scheduled_during_run_are_dispatched(self):
        sim = Simulator()
        seen = []

        def chain(n):
            seen.append(n)
            if n < 5:
                sim.schedule(10, lambda: chain(n + 1))

        sim.schedule(0, lambda: chain(0))
        sim.run()
        assert seen == [0, 1, 2, 3, 4, 5]
        assert sim.now == 50

    def test_dispatched_counter(self):
        sim = Simulator()
        for i in range(7):
            sim.schedule(i, lambda: None)
        sim.run()
        assert sim.dispatched_events == 7


class TestStep:
    def test_step_one_event(self):
        sim = Simulator()
        seen = []
        sim.schedule(5, lambda: seen.append(1))
        sim.schedule(10, lambda: seen.append(2))
        assert sim.step()
        assert seen == [1]
        assert sim.now == 5
        assert sim.step()
        assert not sim.step()

    def test_peek_time(self):
        sim = Simulator()
        assert sim.peek_time() is None
        sim.schedule(42, lambda: None)
        assert sim.peek_time() == 42

    def test_weak_observer_does_not_keep_step_alive(self):
        # A probe ticking every 10 ns used to keep step() returning True
        # forever; weak events never keep the simulation alive.
        def probed():
            sim = Simulator()
            ProbeSet(sim, MetricsRegistry(), cadence_ns=10).start()
            sim.schedule(25, lambda: None)
            return sim

        by_run = probed()
        assert by_run.run() == 3
        by_step = probed()
        steps = 0
        while by_step.step():
            steps += 1
            assert steps <= 3
        assert steps == 3
        assert by_step.now == by_run.now == 25
        assert by_step.dispatched_events == 3
        # the leftover weak tick stays queued, as it does after run()
        assert by_step.pending_events == by_run.pending_events == 1
        assert not by_step.step()


class TestReservedSlots:
    def test_reserve_takes_the_seq_schedule_at_would(self):
        sim, slot = Simulator(), Slot()
        before = sim.schedule(5, lambda: None)
        sim.reserve(slot, 7)
        after = sim.schedule(5, lambda: None)
        assert slot.seq == before.seq + 1 == after.seq - 1
        event = sim.schedule_reserved(slot, lambda: None, label="slot")
        assert (event.time, event.seq, event.label) == (7, before.seq + 1,
                                                         "slot")

    def test_queued_slot_fires_in_its_reserved_place(self):
        # Same-time events scheduled before the reservation fire first,
        # those scheduled after it fire later -- even though the slot is
        # queued after all of them.
        sim, slot = Simulator(), Slot()
        seen = []
        sim.schedule(10, lambda: seen.append("scheduled before"))
        sim.reserve(slot, 10)
        sim.schedule(10, lambda: seen.append("scheduled after"))
        sim.schedule(
            5,
            lambda: sim.schedule_reserved(slot, lambda: seen.append("slot")),
        )
        sim.run()
        assert seen == ["scheduled before", "slot", "scheduled after"]

    def test_slot_without_reservation_rejected(self):
        sim, slot = Simulator(), Slot()
        with pytest.raises(SimulationError, match="no reservation"):
            sim.schedule_reserved(slot, lambda: None)  # never reserved
        sim.reserve(slot, 5)
        sim.schedule_reserved(slot, lambda: None)
        with pytest.raises(SimulationError, match="no reservation"):
            sim.schedule_reserved(slot, lambda: None)  # already queued

    def test_past_place_and_bad_action_rejected(self):
        sim, slot = Simulator(), Slot()
        sim.reserve(slot, 50)
        with pytest.raises(SimulationError, match="callable"):
            sim.schedule_reserved(slot, "not callable")  # type: ignore[arg-type]
        sim.schedule(100, lambda: None)
        sim.run()
        with pytest.raises(SimulationError, match="already at 100"):
            sim.schedule_reserved(slot, lambda: None)
        with pytest.raises(SimulationError, match="already at 100"):
            sim.reserve(slot, 99)

    def test_reserving_again_abandons_the_unqueued_place(self):
        sim, slot = Simulator(), Slot()
        seen = []
        sim.reserve(slot, 10)
        sim.schedule(10, lambda: seen.append("event"))
        sim.reserve(slot, 10)
        sim.schedule_reserved(slot, lambda: seen.append("slot"))
        sim.run()
        assert seen == ["event", "slot"]
        assert sim.dispatched_events == 2

    def test_unqueued_reservation_does_not_keep_run_alive(self):
        sim, slot = Simulator(), Slot()
        sim.reserve(slot, 1_000)
        sim.schedule(10, lambda: None)
        assert sim.run() == 1
        assert sim.now == 10
        assert sim.pending_events == 0
        assert not sim.step()

    def test_compact_keeps_a_queued_slot_in_place(self):
        sim, slot = Simulator(), Slot()
        seen = []
        sim.reserve(slot, 20)
        sim.schedule(20, lambda: seen.append("after"))
        for _ in range(10):
            sim.schedule(20, lambda: seen.append("cancelled")).cancel()
        sim.schedule_reserved(slot, lambda: seen.append("slot"))
        assert sim.compact() == 10
        sim.run()
        assert seen == ["slot", "after"]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        seen = []
        handle = sim.schedule(10, lambda: seen.append("x"))
        assert handle.pending
        assert handle.cancel()
        sim.run()
        assert seen == []
        assert handle.cancelled

    def test_cancel_after_fire_returns_false(self):
        sim = Simulator()
        handle = sim.schedule(10, lambda: None)
        sim.run()
        assert not handle.cancel()

    def test_peek_skips_cancelled(self):
        sim = Simulator()
        first = sim.schedule(1, lambda: None)
        sim.schedule(2, lambda: None)
        first.cancel()
        assert sim.peek_time() == 2

    def test_handle_metadata(self):
        sim = Simulator()
        handle = sim.schedule(10, lambda: None, label="hello")
        assert handle.time == 10
        assert handle.label == "hello"


class TestHandlelessEntries:
    """``call_at``/``call_reserved``: entries with no Event handle."""

    def test_checks_and_messages_match_schedule_at(self):
        def message(enqueue, *args):
            with pytest.raises(SimulationError) as info:
                enqueue(*args)
            return str(info.value)

        sim = Simulator()
        sim.schedule(100, lambda: None)
        sim.run()
        for time, action in ((50, lambda: None), (150, "not callable")):
            assert message(sim.call_at, time, action) == message(
                sim.schedule_at, time, action
            )
        slot = Slot()
        assert "no reservation" in message(
            sim.call_reserved, slot, lambda: None
        )
        assert message(sim.call_reserved, slot, lambda: None) == message(
            sim.schedule_reserved, slot, lambda: None
        )
        sim.reserve(slot, 100)
        assert message(sim.call_reserved, slot, "not callable") == message(
            sim.schedule_reserved, slot, "not callable"
        )
        sim.schedule(5, lambda: None)
        sim.run()
        assert "already at 105" in message(
            sim.call_reserved, slot, lambda: None
        )

    def test_rejected_entry_leaves_no_trace(self):
        sim, slot = Simulator(), Slot()
        with pytest.raises(SimulationError):
            sim.call_at(-1, lambda: None)
        sim.reserve(slot, 5)
        with pytest.raises(SimulationError):
            sim.call_reserved(slot, 42)  # type: ignore[arg-type]
        assert slot.seq >= 0  # the reservation is still there
        assert sim.pending_events == 0
        assert sim.run() == 0

    def test_return_nothing_and_keep_the_run_alive(self):
        sim, slot = Simulator(), Slot()
        seen = []
        sim.reserve(slot, 30)
        assert sim.call_at(20, lambda: seen.append(sim.now)) is None
        assert sim.call_reserved(slot, lambda: seen.append(sim.now)) is None
        assert sim.run() == 2
        assert seen == [20, 30]

    def test_both_entries_fire_in_call_order_at_one_instant(self):
        sim, slot = Simulator(), Slot()
        seen = []
        sim.call_at(10, lambda: seen.append("call 0"))
        sim.schedule_at(10, lambda: seen.append("schedule 1"))
        sim.reserve(slot, 10)
        sim.call_at(10, lambda: seen.append("call 3"))
        sim.schedule(10, lambda: seen.append("schedule 4"))
        sim.call_at(10, lambda: seen.append("call 5"))
        sim.call_reserved(slot, lambda: seen.append("reserved 2"))
        sim.run()
        assert seen == [
            "call 0", "schedule 1", "reserved 2", "call 3", "schedule 4",
            "call 5",
        ]

    def test_cancelled_handle_between_plain_entries_never_moves_the_clock(
        self,
    ):
        sim = Simulator()
        clocks = []
        sim.call_at(10, lambda: clocks.append(sim.now))
        sim.schedule_at(20, lambda: clocks.append("cancelled")).cancel()
        assert sim.run() == 1
        assert clocks == [10] and sim.now == 10  # not 20
        sim.schedule_at(20, lambda: clocks.append("cancelled")).cancel()
        sim.call_at(30, lambda: clocks.append(sim.now))
        assert sim.step()
        assert clocks == [10, 30] and sim.now == 30
        assert sim.dispatched_events == 2

    def test_mixed_heap_bookkeeping_with_a_weak_handle(self):
        sim = Simulator()
        seen = []
        weak = sim.schedule(5, lambda: seen.append("weak"), weak=True)
        sim.call_at(10, lambda: seen.append("plain"))
        strong = sim.schedule_at(10, lambda: seen.append("handle"))
        doomed = sim.schedule_at(15, lambda: seen.append("cancelled"))
        sim.call_at(20, lambda: seen.append("plain 2"))
        assert doomed.cancel()
        assert sim.max_heap_depth == sim.pending_events == 5
        assert sim.live_pending_events == 4
        assert sim.compact() == 1
        assert sim.pending_events == sim.live_pending_events == 4
        assert sim.max_heap_depth == 5
        assert sim.peek_time() == 5  # the weak event is live
        assert sim.run() == 4
        assert seen == ["weak", "plain", "handle", "plain 2"]
        assert not weak.pending and not strong.pending
        assert not strong.cancel()
        assert sim.compact() == 0
        assert sim.pending_events == sim.live_pending_events == 0

    def test_compact_keeps_weak_entries_from_keeping_the_run_alive(self):
        sim = Simulator()
        sim.schedule(50, lambda: None, weak=True)
        sim.call_at(10, lambda: None)
        sim.schedule(20, lambda: None).cancel()
        assert sim.compact() == 1
        assert sim.run() == 1
        assert sim.now == 10
        assert sim.pending_events == sim.live_pending_events == 1

    def test_a_weak_handle_never_keeps_plain_entries_company(self):
        # Once the plain entries are gone only the weak one is left: the
        # run stops there, as with weak handles among handle events.
        sim = Simulator()
        sim.call_at(10, lambda: None)
        weak = sim.schedule(50, lambda: None, weak=True)
        assert sim.run() == 1
        assert sim.now == 10
        assert weak.pending
        assert sim.live_pending_events == 1


class TestPeekTime:
    def test_none_once_only_weak_events_remain(self):
        # peek_time follows run()'s termination rule: a lone weak event
        # will never fire, so nothing is next.
        sim = Simulator()
        sim.schedule(5, lambda: None, weak=True)
        assert not sim.step()
        assert sim.run() == 0
        assert sim.peek_time() is None
        sim.call_at(9, lambda: None)
        assert sim.peek_time() == 5  # with a strong event, the weak is next
        assert sim.run() == 2
        assert sim.peek_time() is None

    def test_drops_cancelled_heads_on_the_way(self):
        sim = Simulator()
        sim.schedule(1, lambda: None).cancel()
        sim.schedule(2, lambda: None, weak=True).cancel()
        sim.call_at(3, lambda: None)
        assert sim.pending_events == 3
        assert sim.peek_time() == 3
        assert sim.pending_events == sim.live_pending_events == 1
