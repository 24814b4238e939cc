"""Direct tests for Event semantics: record, sort key and handle."""

from __future__ import annotations

import pytest

from repro.sim.events import Event
from repro.sim.kernel import Simulator


class TestEvent:
    def test_sort_key_orders_time_then_seq(self):
        early = Event(time=10, seq=0, action=lambda: None)
        later = Event(time=10, seq=1, action=lambda: None)
        other = Event(time=5, seq=9, action=lambda: None)
        assert other.sort_key() < early.sort_key() < later.sort_key()


class TestEventHandle:
    """The event ``schedule`` returns is the caller's handle."""

    def test_schedule_returns_the_queued_event(self):
        sim = Simulator()
        event = sim.schedule(10, lambda: None, label="x")
        assert isinstance(event, Event)
        assert (event.time, event.label) == (10, "x")
        assert sim.schedule_at(25, lambda: None).sort_key() == (25, 1)

    def test_pending_lifecycle(self):
        sim = Simulator()
        handle = sim.schedule(10, lambda: None, label="x")
        assert handle.pending
        assert not handle.cancelled
        sim.run()
        assert not handle.pending
        assert not handle.cancelled

    def test_cancel_before_fire(self):
        sim = Simulator()
        handle = sim.schedule(10, lambda: None)
        assert handle.cancel()
        assert handle.cancelled
        assert not handle.pending
        sim.run()
        assert sim.dispatched_events == 0

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(10, lambda: None)
        assert handle.cancel()
        assert handle.cancel()  # still reports success pre-fire

    def test_cancel_after_fire_fails(self):
        sim = Simulator()
        handle = sim.schedule(10, lambda: None)
        sim.run()
        assert not handle.cancel()

    def test_fired_event_never_redispatched(self):
        """The sentinel guards against double dispatch even under heap
        corruption scenarios (defence in depth)."""
        from repro.sim.events import _fired

        with pytest.raises(AssertionError):
            _fired()

    def test_cancel_from_within_another_event(self):
        """An event may cancel a later event at the same instant."""
        sim = Simulator()
        fired = []
        second = None

        def first():
            assert second is not None
            assert second.cancel()
            fired.append("first")

        sim.schedule(5, first)
        second = sim.schedule(5, lambda: fired.append("second"))
        sim.run()
        assert fired == ["first"]

    def test_self_rescheduling_event(self):
        sim = Simulator()
        count = 0

        def tick():
            nonlocal count
            count += 1
            if count < 4:
                sim.schedule(10, tick)

        sim.schedule(0, tick)
        sim.run()
        assert count == 4
        assert sim.now == 30

    def test_cancel_weak_event_leaves_strong_count(self):
        """A weak observer's cancellation must not release the keep-alive
        count of a strong event: the run still reaches the strong one."""
        sim = Simulator()
        fired = []
        weak = sim.schedule(5, lambda: fired.append("weak"), weak=True)
        sim.schedule(20, lambda: fired.append("strong"))
        assert weak.cancel()
        assert sim.run() == 1
        assert fired == ["strong"]
        assert sim.now == 20


class TestCompact:
    def test_compact_after_cancellations_preserves_pop_order(self):
        sim = Simulator()
        fired = []
        events = [
            sim.schedule_at(t, lambda i=i: fired.append(i))
            for i, t in enumerate((40, 10, 10, 30, 20, 10, 40, 30))
        ]
        for index in (1, 4, 6):
            events[index].cancel()
        expected = [
            i for _, i in sorted(
                (e.sort_key(), i) for i, e in enumerate(events)
                if not e.cancelled
            )
        ]
        assert sim.compact() == 3
        assert sim.pending_events == sim.live_pending_events == 5
        sim.run()
        assert fired == expected == [2, 5, 3, 7, 0]
