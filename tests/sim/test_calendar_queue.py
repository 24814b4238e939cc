"""Differential tests: the kernel's dispatch order against a reference.

These cases began as a heap-vs-calendar differential, when the kernel
had a second, calendar-queue pending set. That queue is deleted (on
CPython the C ``heapq`` beat it at every population, EXPERIMENTS.md
EXP-P7), and the test names are kept so their history stays readable.
Each case now replays a randomized event program -- mixed delays with
heavy same-instant collisions, weak observers, mid-run queueing,
cancellations (of pending, fired and running entries), reserved slots
(queued later, reserved again or never queued) and horizon runs -- on
the one heap kernel and on :class:`_ReferenceSimulator`, a naive model
that scans a plain list for its ``(time, seq)`` minimum, and requires
identical fired streams, clocks and dispatch counts.
:func:`replay_mixed` does the same with a second program shape:
zero-delay chains, and cancellations before the run.
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


class _ReferenceSimulator:
    """The kernel's contract, spelled out with no data structure at all.

    Fire the live event with the smallest ``(time, seq)`` while a live
    strong event remains and the head is within the horizon; then
    advance the clock to the horizon. An event is live once queued and
    until it fires or is cancelled.
    """

    def __init__(self):
        self.now = 0
        self.dispatched_events = 0
        self._events: list[_ReferenceEvent] = []

    def call_at(self, time, action, weak=False):
        event = _ReferenceEvent(time, len(self._events), action, weak)
        self._events.append(event)
        return event

    def cancel(self, event) -> bool:
        if event.fired or event.cancelled:
            return False
        event.cancelled = True
        return True

    def reserve(self, slot, time):
        # The place takes its seq now but is no event until queued (an
        # event with no action).
        place = self.call_at(time, None)
        slot.time, slot.seq = time, place.seq

    def call_reserved(self, slot, action):
        self._events[slot.seq].action = action
        slot.seq = -1

    def run(self, until=None):
        while True:
            live = [
                e for e in self._events
                if e.action is not None and not (e.cancelled or e.fired)
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


def _finish(sim, rng, handles, cancels, horizon):
    """Run to ``horizon``; past one, cancel a few entries and drain.

    Returns the clock and dispatch count at the horizon, then at the end.
    """
    sim.run(until=horizon)
    stop = (sim.now, sim.dispatched_events)
    if horizon is not None:
        for _ in range(3):
            cancels.append(sim.cancel(rng.choice(handles)))
        sim.run()
    return stop, sim.now, sim.dispatched_events


def replay(make_sim, program, horizon=None):
    """Run one randomized program; return what it fired and cancelled
    and the clock and dispatch counts (see :func:`_finish`)."""
    rng = random.Random(program)
    sim = make_sim()
    fired: list[tuple[int, int]] = []
    cancels: list[bool] = []
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
                handles.append(sim.call_at(
                    sim.now + rng.randrange(0, 50), make(tag + 1000)
                ))
            # Mid-run cancellation of a random entry: queued, fired,
            # cancelled before or this very one.
            if handles and rng.random() < 0.2:
                cancels.append(
                    sim.cancel(handles[rng.randrange(len(handles))])
                )
            # Queue a reserved slot later, unless its time has passed.
            if slots and rng.random() < 0.3:
                slot = slots.pop(rng.randrange(len(slots)))
                if slot.time >= sim.now:
                    sim.call_reserved(slot, make(tag + 2000))
            if rng.random() < 0.1 and len(fired) < 400:
                reserve()

        return action

    for tag in range(120):
        delay = rng.choice((0, 1, 1, 7, 7, 7, 64, 512, 4096))
        handles.append(
            sim.call_at(delay, make(tag), weak=rng.random() < 0.1)
        )
        if rng.random() < 0.15:
            reserve()
    return fired, cancels, _finish(sim, rng, handles, cancels, horizon)


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
    """A randomized program of zero-delay chains and early cancels.

    Returns what :func:`replay` returns.
    """
    rng = random.Random(10_000 + program)
    sim = make_sim()
    fired: list[tuple[int, int]] = []
    cancels: list[bool] = []
    handles = []
    slots: list[Slot] = []

    def enqueue(delay, tag):
        handles.append(sim.call_at(
            sim.now + delay, make(tag), weak=rng.random() < 0.05
        ))

    def make(tag):
        def action():
            fired.append((sim.now, tag))
            if rng.random() < 0.4 and len(fired) < 400:
                enqueue(rng.choice((0, 0, 1, 7, 30)), tag + 1000)
            if handles and rng.random() < 0.25:
                cancels.append(
                    sim.cancel(handles[rng.randrange(len(handles))])
                )
            if slots and rng.random() < 0.3:
                slot = slots.pop(rng.randrange(len(slots)))
                if slot.time >= sim.now:
                    sim.call_reserved(slot, make(tag + 2000))
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
            cancels.append(sim.cancel(handles[rng.randrange(len(handles))]))
    return fired, cancels, _finish(sim, rng, handles, cancels, horizon)


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
            sim.call_at(7, lambda i=i: seen.append(i))
        sim.run()
        assert seen == list(range(50))

    def test_sparse_far_future_events_fire_in_order(self):
        sim = Simulator()
        seen = []
        for t in (10**9, 3, 10**6, 44, 10**12, 500):
            sim.call_at(t, lambda t=t: seen.append(t))
        sim.run()
        assert seen == sorted(seen)
        assert sim.now == 10**12

    def test_resize_churn_keeps_order(self):
        # Fill, drain to a horizon, refill: order holds across rounds.
        sim = Simulator()
        seen = []
        for round_base in (0, 100_000):
            for i in range(300):
                sim.call_at(
                    round_base + (i * 37) % 991,
                    lambda i=i, t=round_base + (i * 37) % 991: seen.append(
                        (t, i)
                    ),
                )
            sim.run(until=round_base + 2_000)
        assert len(seen) == 600
        assert seen == sorted(seen)

    def test_compact_drops_cancelled_entries(self):
        # Cancelling compacts the queue at once: no dead entry stays.
        sim = Simulator()
        keep = sim.call_at(10, lambda: None)
        for _ in range(20):
            assert sim.cancel(sim.call_at(20, lambda: None))
        assert sim.pending_events == 1
        assert sim.max_heap_depth == 2
        assert sim.cancel(keep)
        assert sim.pending_events == 0
        assert sim.run() == 0 and sim.now == 0
