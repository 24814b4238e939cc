"""Direct tests for queue entries: their order, lifecycle and cancel."""

from __future__ import annotations

from repro.sim.kernel import Simulator


class TestEvent:
    def test_sort_key_orders_time_then_seq(self):
        sim = Simulator()
        early = sim.call_at(10, lambda: None)
        later = sim.call_at(10, lambda: None)
        other = sim.call_at(5, lambda: None)
        assert other[:2] < early[:2] < later[:2]
        assert (other[:2], early[:2], later[:2]) == ((5, 2), (10, 0), (10, 1))


class TestEventHandle:
    """The entry ``call_at`` returns is what ``cancel`` takes."""

    def test_schedule_returns_the_queued_event(self):
        sim = Simulator()
        entry = sim.call_at(10, lambda: None, "x")
        assert (entry[0], entry[3]) == (10, "x")
        assert sim.call_at(25, lambda: None)[:2] == (25, 1)
        assert sim.pending_events == 2

    def test_pending_lifecycle(self):
        sim = Simulator()
        entry = sim.call_at(10, lambda: None, "x")
        assert sim.pending_events == 1
        sim.run()
        assert sim.pending_events == 0
        assert not sim.cancel(entry)

    def test_cancel_before_fire(self):
        sim = Simulator()
        entry = sim.call_at(10, lambda: None)
        assert sim.cancel(entry)
        assert sim.pending_events == 0
        sim.run()
        assert sim.dispatched_events == 0
        assert sim.now == 0

    def test_cancel_is_idempotent(self):
        # The second cancel finds nothing queued and changes nothing.
        sim = Simulator()
        entry = sim.call_at(10, lambda: None)
        keep = sim.call_at(10, lambda: None)
        assert sim.cancel(entry)
        assert not sim.cancel(entry)
        assert sim.pending_events == 1
        assert sim.run() == 1
        assert not sim.cancel(keep)

    def test_cancel_after_fire_fails(self):
        sim = Simulator()
        entry = sim.call_at(10, lambda: None)
        sim.run()
        assert not sim.cancel(entry)

    def test_cancel_from_within_another_event(self):
        """An event may cancel a later event at the same instant."""
        sim = Simulator()
        fired = []
        second = None

        def first():
            assert second is not None
            assert sim.cancel(second)
            fired.append("first")

        sim.call_at(5, first)
        second = sim.call_at(5, lambda: fired.append("second"))
        sim.run()
        assert fired == ["first"]
        assert sim.dispatched_events == 1

    def test_self_rescheduling_event(self):
        sim = Simulator()
        count = 0

        def tick():
            nonlocal count
            count += 1
            if count < 4:
                sim.call_at(sim.now + 10, tick)

        sim.call_at(0, tick)
        sim.run()
        assert count == 4
        assert sim.now == 30

    def test_cancel_weak_event_leaves_strong_count(self):
        """A weak observer's cancellation must not release the keep-alive
        count of a strong event: the run still reaches the strong one."""
        sim = Simulator()
        fired = []
        weak = sim.call_at(5, lambda: fired.append("weak"), weak=True)
        sim.call_at(20, lambda: fired.append("strong"))
        assert sim.cancel(weak)
        assert sim.run() == 1
        assert fired == ["strong"]
        assert sim.now == 20


class TestCompact:
    def test_compact_after_cancellations_preserves_pop_order(self):
        # Each cancel removes its entry and re-heapifies at once; the
        # entries left still fire in (time, seq) order.
        sim = Simulator()
        fired = []
        entries = [
            sim.call_at(t, lambda i=i: fired.append(i))
            for i, t in enumerate((40, 10, 10, 30, 20, 10, 40, 30))
        ]
        for index in (1, 4, 6):
            assert sim.cancel(entries[index])
        expected = [
            i for _, i in sorted(
                (entry[:2], i) for i, entry in enumerate(entries)
                if i not in (1, 4, 6)
            )
        ]
        assert sim.pending_events == 5
        sim.run()
        assert fired == expected == [2, 5, 3, 7, 0]
