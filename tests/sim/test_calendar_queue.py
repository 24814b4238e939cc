"""Differential tests: the kernel's dispatch order against a reference.

These cases began as a heap-vs-calendar differential, when the kernel
had a second, calendar-queue pending set. That queue is deleted (on
CPython the C ``heapq`` beat it at every population, EXPERIMENTS.md
EXP-P7), and the test names are kept so their history stays readable.
Each case now replays a randomized event program -- mixed delays with
heavy same-instant collisions, weak observers, mid-run scheduling,
cancellations, reserved slots (queued later, reserved again or never
queued), horizon runs and compaction -- on the one heap kernel
and on :class:`_ReferenceSimulator`, a naive model that scans a plain
list for its ``(time, seq)`` minimum, and requires identical fired
streams, clocks and dispatch counts. :func:`replay_mixed` does the same
with the kernel's two kinds of entry interleaved: with a handle
(``schedule``, ``schedule_reserved``) and without (``call_at``,
``call_reserved``).
"""

from __future__ import annotations

import inspect
import random

import pytest

from repro.network.topology import build_star
from repro.sim.events import Slot
from repro.sim.kernel import Simulator


class _ReferenceEvent:
    __slots__ = ("time", "seq", "action", "weak", "cancelled", "fired")

    def __init__(self, time, seq, action, weak):
        self.time, self.seq, self.action, self.weak = time, seq, action, weak
        self.cancelled = self.fired = False

    def cancel(self) -> bool:
        if self.fired:
            return False
        self.cancelled = True
        return True


class _ReferenceSimulator:
    """The kernel's contract, spelled out with no data structure at all.

    Fire the live event with the smallest ``(time, seq)`` while a live
    strong event remains and the head is within the horizon; then
    advance the clock to the horizon.
    """

    def __init__(self):
        self.now = 0
        self.dispatched_events = 0
        self._events: list[_ReferenceEvent] = []

    def schedule(self, delay, action, weak=False):
        event = _ReferenceEvent(
            self.now + delay, len(self._events), action, weak
        )
        self._events.append(event)
        return event

    def reserve(self, slot, time):
        # The place takes its seq now but is no event until queued;
        # ``cancelled`` stands for "not queued yet".
        place = _ReferenceEvent(time, len(self._events), None, False)
        place.cancelled = True
        self._events.append(place)
        slot.time, slot.seq = time, place.seq

    def schedule_reserved(self, slot, action):
        place = self._events[slot.seq]
        place.action, place.cancelled = action, False
        slot.seq = -1
        return place

    def call_at(self, time, action):
        self.schedule(time - self.now, action)

    def call_reserved(self, slot, action):
        self.schedule_reserved(slot, action)

    def compact(self):
        return 0

    def run(self, until=None):
        while True:
            live = [
                e for e in self._events if not (e.cancelled or e.fired)
            ]
            if not any(not e.weak for e in live):
                break
            head = min(live, key=lambda e: (e.time, e.seq))
            if until is not None and head.time > until:
                break
            head.fired = True
            self.now = head.time
            head.action()
            self.dispatched_events += 1
        if until is not None and self.now < until:
            self.now = until


def replay(make_sim, program, horizon=None):
    """Run one randomized program; return (fired, now, dispatched)."""
    rng = random.Random(program)
    sim = make_sim()
    fired: list[tuple[int, int]] = []
    handles = []
    #: slots holding a reservation not queued yet; some never are.
    slots: list[Slot] = []

    def reserve():
        # Sometimes reserve a pending slot again, abandoning its place.
        if slots and rng.random() < 0.25:
            slot = slots.pop(rng.randrange(len(slots)))
        else:
            slot = Slot()
        sim.reserve(slot, sim.now + rng.choice((0, 1, 7, 7, 64, 512)))
        slots.append(slot)

    def make(tag):
        def action():
            fired.append((sim.now, tag))
            # Mid-run scheduling: events spawn more events.
            if rng.random() < 0.35 and len(fired) < 400:
                sim.schedule(rng.randrange(0, 50), make(tag + 1000))
            # Mid-run cancellation of a random live handle.
            if handles and rng.random() < 0.2:
                handles[rng.randrange(len(handles))].cancel()
            # Queue a reserved slot later, unless its time has passed.
            if slots and rng.random() < 0.3:
                slot = slots.pop(rng.randrange(len(slots)))
                if slot.time >= sim.now:
                    handles.append(
                        sim.schedule_reserved(slot, make(tag + 2000))
                    )
            if rng.random() < 0.1 and len(fired) < 400:
                reserve()

        return action

    for tag in range(120):
        delay = rng.choice((0, 1, 1, 7, 7, 7, 64, 512, 4096))
        handles.append(
            sim.schedule(delay, make(tag), weak=rng.random() < 0.1)
        )
        if rng.random() < 0.15:
            reserve()
    if rng.random() < 0.5:
        sim.compact()
    sim.run(until=horizon)
    return fired, sim.now, sim.dispatched_events


@pytest.mark.parametrize("program", range(15))
def test_calendar_replays_heap_exactly(program):
    assert replay(Simulator, program) == replay(_ReferenceSimulator, program)


@pytest.mark.parametrize("program", range(15, 25))
def test_calendar_replays_heap_exactly_with_horizon(program):
    horizon = 300 + 77 * program
    assert replay(Simulator, program, horizon) == replay(
        _ReferenceSimulator, program, horizon
    )


def replay_mixed(make_sim, program, horizon=None):
    """A randomized program mixing entries with and without handles.

    Only entries with a handle can be cancelled or weak; plain entries
    are strong, like the data plane's arrivals and wakeups. Returns
    (fired, now, dispatched).
    """
    rng = random.Random(10_000 + program)
    sim = make_sim()
    fired: list[tuple[int, int]] = []
    handles = []
    slots: list[Slot] = []

    def enqueue(delay, tag):
        if rng.random() < 0.5:
            sim.call_at(sim.now + delay, make(tag))
        else:
            handles.append(
                sim.schedule(delay, make(tag), weak=rng.random() < 0.1)
            )

    def make(tag):
        def action():
            fired.append((sim.now, tag))
            if rng.random() < 0.4 and len(fired) < 400:
                enqueue(rng.choice((0, 0, 1, 7, 30)), tag + 1000)
            if handles and rng.random() < 0.25:
                handles[rng.randrange(len(handles))].cancel()
            if slots and rng.random() < 0.3:
                slot = slots.pop(rng.randrange(len(slots)))
                if slot.time >= sim.now:
                    if rng.random() < 0.5:
                        sim.call_reserved(slot, make(tag + 2000))
                    else:
                        handles.append(
                            sim.schedule_reserved(slot, make(tag + 2000))
                        )
            if rng.random() < 0.15 and len(fired) < 400:
                slot = Slot()
                sim.reserve(slot, sim.now + rng.choice((0, 1, 7, 64)))
                slots.append(slot)

        return action

    for tag in range(120):
        enqueue(rng.choice((0, 1, 1, 7, 7, 64, 512)), tag)
        if rng.random() < 0.15:
            slot = Slot()
            sim.reserve(slot, sim.now + rng.choice((0, 7, 512)))
            slots.append(slot)
        if handles and rng.random() < 0.1:
            handles[rng.randrange(len(handles))].cancel()
    if rng.random() < 0.5:
        sim.compact()
    sim.run(until=horizon)
    return fired, sim.now, sim.dispatched_events


@pytest.mark.parametrize("program", range(20))
def test_mixed_entries_replay_the_reference(program):
    horizon = None if program % 2 else 200 + 53 * program
    assert replay_mixed(Simulator, program, horizon) == replay_mixed(
        _ReferenceSimulator, program, horizon
    )


class TestCalendarQueueKernel:
    def test_unknown_queue_rejected(self):
        # There is one pending set; the old ``queue=`` option is gone.
        with pytest.raises(TypeError):
            Simulator(queue="calendar")

    def test_queue_kind_reported(self):
        assert not hasattr(Simulator(), "queue_kind")
        assert "queue" not in inspect.signature(build_star).parameters

    def test_fifo_at_same_instant(self):
        sim = Simulator()
        seen = []
        for i in range(50):
            sim.schedule(7, lambda i=i: seen.append(i))
        sim.run()
        assert seen == list(range(50))

    def test_sparse_far_future_events_fire_in_order(self):
        sim = Simulator()
        seen = []
        for t in (10**9, 3, 10**6, 44, 10**12, 500):
            sim.schedule(t, lambda t=t: seen.append(t))
        sim.run()
        assert seen == sorted(seen)
        assert sim.now == 10**12

    def test_resize_churn_keeps_order(self):
        # Fill, drain to a horizon, refill: order holds across rounds.
        sim = Simulator()
        seen = []
        for round_base in (0, 100_000):
            for i in range(300):
                sim.schedule_at(
                    round_base + (i * 37) % 991,
                    lambda i=i, t=round_base + (i * 37) % 991: seen.append(
                        (t, i)
                    ),
                )
            sim.run(until=round_base + 2_000)
        assert len(seen) == 600
        assert seen == sorted(seen)

    def test_step_and_peek_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(5, lambda: seen.append("a"))
        sim.schedule(9, lambda: seen.append("b"))
        assert sim.peek_time() == 5
        assert sim.step()
        assert seen == ["a"]
        assert sim.peek_time() == 9

    def test_compact_drops_cancelled_entries(self):
        sim = Simulator()
        keep = sim.schedule(10, lambda: None)
        for _ in range(20):
            sim.schedule(20, lambda: None).cancel()
        assert sim.pending_events == 21
        removed = sim.compact()
        assert removed == 20
        assert sim.pending_events == 1
        assert sim.live_pending_events == 1
        keep.cancel()
