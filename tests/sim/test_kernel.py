"""Tests for the discrete-event kernel."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.events import Slot
from repro.sim.kernel import Simulator


class TestScheduling:
    def test_time_ordering(self):
        sim = Simulator()
        seen = []
        sim.call_at(300, lambda: seen.append("c"))
        sim.call_at(100, lambda: seen.append("a"))
        sim.call_at(200, lambda: seen.append("b"))
        sim.run()
        assert seen == ["a", "b", "c"]
        assert sim.now == 300

    def test_fifo_at_same_instant(self):
        sim = Simulator()
        seen = []
        for i in range(5):
            sim.call_at(50, lambda i=i: seen.append(i))
        sim.run()
        assert seen == [0, 1, 2, 3, 4]

    def test_zero_delay_runs_after_current_event(self):
        sim = Simulator()
        seen = []

        def outer():
            sim.call_at(sim.now, lambda: seen.append("inner"))
            seen.append("outer")

        sim.call_at(10, outer)
        sim.run()
        assert seen == ["outer", "inner"]
        assert sim.now == 10

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="already at 0 ns"):
            sim.call_at(sim.now - 1, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.call_at(100, lambda: None)
        sim.run()
        with pytest.raises(
            SimulationError,
            match="cannot schedule at 50 ns; the clock is already at 100 ns",
        ):
            sim.call_at(50, lambda: None)

    def test_non_callable_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="must be callable, got str"):
            sim.call_at(1, "not callable")  # type: ignore[arg-type]


class TestRun:
    def test_run_until_horizon(self):
        sim = Simulator()
        seen = []
        sim.call_at(10, lambda: seen.append(10))
        sim.call_at(20, lambda: seen.append(20))
        sim.call_at(30, lambda: seen.append(30))
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
        sim.call_at(10, lambda: None)
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

        sim.call_at(1, recurse)
        sim.run()
        assert len(errors) == 1

    def test_events_scheduled_during_run_are_dispatched(self):
        sim = Simulator()
        seen = []

        def chain(n):
            seen.append(n)
            if n < 5:
                sim.call_at(sim.now + 10, lambda: chain(n + 1))

        sim.call_at(0, lambda: chain(0))
        sim.run()
        assert seen == [0, 1, 2, 3, 4, 5]
        assert sim.now == 50

    def test_dispatched_counter(self):
        sim = Simulator()
        for i in range(7):
            sim.call_at(i, lambda: None)
        sim.run()
        assert sim.dispatched_events == 7


class TestReservedSlots:
    def test_reserve_takes_the_seq_schedule_at_would(self):
        sim, slot = Simulator(), Slot()
        before = sim.call_at(5, lambda: None)
        sim.reserve(slot, 7)
        after = sim.call_at(5, lambda: None)
        assert slot.seq == before[1] + 1 == after[1] - 1
        seen = []
        assert sim.call_reserved(slot, lambda: seen.append(sim.now)) is None
        assert sim.run() == 3
        assert seen == [7]

    def test_queued_slot_fires_in_its_reserved_place(self):
        # Same-time events queued before the reservation fire first,
        # those queued after it fire later -- even though the slot is
        # queued after all of them.
        sim, slot = Simulator(), Slot()
        seen = []
        sim.call_at(10, lambda: seen.append("scheduled before"))
        sim.reserve(slot, 10)
        sim.call_at(10, lambda: seen.append("scheduled after"))
        sim.call_at(
            5,
            lambda: sim.call_reserved(slot, lambda: seen.append("slot")),
        )
        sim.run()
        assert seen == ["scheduled before", "slot", "scheduled after"]

    def test_slot_without_reservation_rejected(self):
        sim, slot = Simulator(), Slot()
        with pytest.raises(SimulationError, match="no reservation"):
            sim.call_reserved(slot, lambda: None)  # never reserved
        sim.reserve(slot, 5)
        sim.call_reserved(slot, lambda: None)
        with pytest.raises(SimulationError, match="no reservation"):
            sim.call_reserved(slot, lambda: None)  # already queued

    def test_past_place_and_bad_action_rejected(self):
        sim, slot = Simulator(), Slot()
        sim.reserve(slot, 50)
        with pytest.raises(SimulationError, match="callable"):
            sim.call_reserved(slot, "not callable")  # type: ignore[arg-type]
        sim.call_at(100, lambda: None)
        sim.run()
        with pytest.raises(SimulationError, match="already at 100"):
            sim.call_reserved(slot, lambda: None)
        with pytest.raises(SimulationError, match="already at 100"):
            sim.reserve(slot, 99)

    def test_reserving_again_abandons_the_unqueued_place(self):
        sim, slot = Simulator(), Slot()
        seen = []
        sim.reserve(slot, 10)
        sim.call_at(10, lambda: seen.append("event"))
        sim.reserve(slot, 10)
        sim.call_reserved(slot, lambda: seen.append("slot"))
        sim.run()
        assert seen == ["event", "slot"]
        assert sim.dispatched_events == 2

    def test_unqueued_reservation_does_not_keep_run_alive(self):
        sim, slot = Simulator(), Slot()
        sim.reserve(slot, 1_000)
        sim.call_at(10, lambda: None)
        assert sim.run() == 1
        assert sim.now == 10
        assert sim.pending_events == 0
        assert sim.run() == 0

    def test_compact_keeps_a_queued_slot_in_place(self):
        # Cancelling re-heapifies the queue at once (the compaction the
        # kernel once deferred); a queued slot keeps its reserved place.
        sim, slot = Simulator(), Slot()
        seen = []
        sim.reserve(slot, 20)
        sim.call_at(20, lambda: seen.append("after"))
        doomed = [
            sim.call_at(20, lambda: seen.append("cancelled"))
            for _ in range(10)
        ]
        sim.call_reserved(slot, lambda: seen.append("slot"))
        assert all(sim.cancel(entry) for entry in doomed)
        assert sim.pending_events == 2
        sim.run()
        assert seen == ["slot", "after"]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        # Cancelled before it fires: True, it never fires, and the clock
        # never moves to its time.
        sim = Simulator()
        seen = []
        sim.call_at(10, lambda: seen.append(sim.now))
        entry = sim.call_at(20, lambda: seen.append("x"))
        assert sim.cancel(entry)
        assert sim.run() == 1
        assert seen == [10]
        assert sim.now == 10

    def test_cancel_after_fire_returns_false(self):
        sim = Simulator()
        entry = sim.call_at(10, lambda: None)
        sim.run()
        assert not sim.cancel(entry)
        assert sim.dispatched_events == 1

    def test_cancel_twice_returns_false_the_second_time(self):
        sim = Simulator()
        entry = sim.call_at(10, lambda: None)
        assert sim.cancel(entry)
        assert not sim.cancel(entry)
        assert sim.run() == 0

    def test_event_cancelling_itself_while_it_runs_fails(self):
        sim = Simulator()
        results = []
        entry = sim.call_at(10, lambda: results.append(sim.cancel(entry)))
        assert sim.run() == 1
        assert results == [False]

    def test_pending_events_drops_as_soon_as_cancel_returns(self):
        sim = Simulator()
        entries = [sim.call_at(t, lambda: None) for t in (30, 10, 20)]
        assert sim.pending_events == 3
        assert sim.cancel(entries[1])
        assert sim.pending_events == 2
        assert sim.cancel(entries[0])
        assert sim.pending_events == 1
        assert sim.max_heap_depth == 3
        assert sim.run() == 1
        assert sim.now == 20

    def test_cancel_just_past_a_horizon(self):
        sim = Simulator()
        seen = []
        sim.call_at(10, lambda: seen.append(sim.now))
        doomed = sim.call_at(21, lambda: seen.append("cancelled"))
        sim.call_at(30, lambda: seen.append(sim.now))
        assert sim.run(until=20) == 1
        assert sim.now == 20 and sim.pending_events == 2
        assert sim.cancel(doomed)
        assert sim.run(until=25) == 0
        assert sim.now == 25
        assert sim.run() == 1
        assert seen == [10, 30]

    def test_handle_metadata(self):
        # The token ``call_at`` returns is its queue entry.
        sim = Simulator()
        sim.call_at(5, lambda: None)
        assert sim.call_at(10, print, "hello") == (10, 1, print, "hello")


class TestHandlelessEntries:
    """``call_at``/``call_reserved`` entries: plain tuples, no object."""

    def test_call_at_and_call_reserved_share_checks_and_messages(self):
        def message(enqueue, *args):
            with pytest.raises(SimulationError) as info:
                enqueue(*args)
            return str(info.value)

        sim, slot = Simulator(), Slot()
        sim.reserve(slot, 100)
        assert message(sim.call_reserved, slot, "not callable") == message(
            sim.call_at, 150, "not callable"
        )
        sim.call_at(105, lambda: None)
        sim.run()
        assert message(sim.call_reserved, slot, lambda: None) == message(
            sim.call_at, 100, lambda: None
        ) == "cannot schedule at 100 ns; the clock is already at 105 ns"
        sim.reserve(slot, 200)
        sim.call_reserved(slot, lambda: None)
        assert "no reservation" in message(
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
        # call_reserved returns nothing; call_at returns the entry that
        # cancel takes. Both are strong.
        sim, slot = Simulator(), Slot()
        seen = []
        sim.reserve(slot, 30)
        sim.call_at(20, lambda: seen.append(sim.now))
        assert sim.call_reserved(slot, lambda: seen.append(sim.now)) is None
        assert sim.run() == 2
        assert seen == [20, 30]

    def test_both_entries_fire_in_call_order_at_one_instant(self):
        sim, slot = Simulator(), Slot()
        seen = []
        sim.call_at(10, lambda: seen.append("call 0"))
        sim.call_at(10, lambda: seen.append("call 1"), weak=True)
        sim.reserve(slot, 10)
        sim.call_at(10, lambda: seen.append("call 3"))
        sim.call_at(10, lambda: seen.append("call 4"))
        sim.call_at(10, lambda: seen.append("call 5"))
        sim.call_reserved(slot, lambda: seen.append("reserved 2"))
        sim.run()
        assert seen == [
            "call 0", "call 1", "reserved 2", "call 3", "call 4", "call 5",
        ]

    def test_cancelled_handle_between_plain_entries_never_moves_the_clock(
        self,
    ):
        sim = Simulator()
        clocks = []
        sim.call_at(10, lambda: clocks.append(sim.now))
        sim.cancel(sim.call_at(20, lambda: clocks.append("cancelled")))
        assert sim.run() == 1
        assert clocks == [10] and sim.now == 10  # not 20
        sim.cancel(sim.call_at(20, lambda: clocks.append("cancelled")))
        sim.call_at(30, lambda: clocks.append(sim.now))
        assert sim.run() == 1
        assert clocks == [10, 30] and sim.now == 30
        assert sim.dispatched_events == 2

    def test_mixed_heap_bookkeeping_with_a_weak_handle(self):
        sim = Simulator()
        seen = []
        weak = sim.call_at(5, lambda: seen.append("weak"), weak=True)
        sim.call_at(10, lambda: seen.append("plain"))
        strong = sim.call_at(10, lambda: seen.append("strong"))
        doomed = sim.call_at(15, lambda: seen.append("cancelled"))
        sim.call_at(20, lambda: seen.append("plain 2"))
        assert sim.max_heap_depth == sim.pending_events == 5
        assert sim.cancel(doomed)
        assert sim.pending_events == 4
        assert sim.max_heap_depth == 5
        assert sim.run() == 4
        assert seen == ["weak", "plain", "strong", "plain 2"]
        assert not sim.cancel(weak) and not sim.cancel(strong)
        assert sim.pending_events == 0

    def test_compact_keeps_weak_entries_from_keeping_the_run_alive(self):
        # Once the one strong entry left is cancelled (and leaves the
        # queue at once), the weak entry cannot keep the run going.
        sim = Simulator()
        sim.call_at(50, lambda: None, weak=True)
        sim.call_at(10, lambda: None)
        sim.cancel(sim.call_at(20, lambda: None))
        assert sim.run() == 1
        assert sim.now == 10
        assert sim.pending_events == 1

    def test_a_weak_handle_never_keeps_plain_entries_company(self):
        # Once the strong entries are gone only the weak one is left:
        # the run stops there and the weak entry stays queued.
        sim = Simulator()
        sim.call_at(10, lambda: None)
        weak = sim.call_at(50, lambda: None, weak=True)
        assert sim.run() == 1
        assert sim.now == 10
        assert sim.pending_events == 1
        assert sim.cancel(weak)
        assert sim.pending_events == 0
