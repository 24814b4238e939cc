"""Differential tests: the kernel's dispatch order against a reference.

These cases began as a heap-vs-calendar differential, when the kernel
had a second, calendar-queue pending set. That queue is deleted (on
CPython the C ``heapq`` beat it at every population, EXPERIMENTS.md
EXP-P7), and the test names are kept so their history stays readable.
Each case now replays a randomized event program -- mixed delays with
heavy same-instant collisions, weak observers, mid-run queueing,
cancellations (of pending, fired and running entries), reserved slots
(queued later, reserved again or never queued) and horizon runs -- on
the kernel and on :class:`_ReferenceSimulator`, a naive model that
scans a plain list for its ``(time, seq)`` minimum, and requires
identical fired streams, clocks, dispatch counts, pending counts and
high-water marks after every run. :func:`replay_mixed` does the same
with a second program shape: zero-delay chains, and cancellations
before the run. :class:`TestOneInstantAgainstTheReference` replays
fixed programs aimed at the kernel's per-instant batches: reserved
places older than entries already queued on their instant (the one
being drained included), cancels inside the instant being drained, a
tail of weak entries inside one instant, and an exception raised
mid-instant.
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
        self.max_heap_depth = 0
        self._events: list[_ReferenceEvent] = []

    @property
    def pending_events(self):
        return sum(
            e.action is not None and not (e.cancelled or e.fired)
            for e in self._events
        )

    def call_at(self, time, action, weak=False):
        event = _ReferenceEvent(time, len(self._events), action, weak)
        self._events.append(event)
        self.max_heap_depth = max(self.max_heap_depth, self.pending_events)
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
        self.max_heap_depth = max(self.max_heap_depth, self.pending_events)

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


def _counts(sim):
    """What a run leaves that the reference must match."""
    return (sim.now, sim.dispatched_events, sim.pending_events,
            sim.max_heap_depth)


def _finish(sim, rng, handles, cancels, horizon):
    """Run to ``horizon``; past one, cancel a few entries and drain.

    Returns :func:`_counts` at the horizon, then at the end.
    """
    sim.run(until=horizon)
    stop = _counts(sim)
    if horizon is not None:
        for _ in range(3):
            cancels.append(sim.cancel(rng.choice(handles)))
        sim.run()
    return stop, _counts(sim)


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


class _Boom(Exception):
    pass


def _replay_fixed(make_sim, program):
    """Queue ``program(sim, fire)``'s events, then take its steps: a
    horizon (or None) is one ``run``, a callable is called between runs.
    Return what fired, and each run's outcome with :func:`_counts`."""
    sim = make_sim()
    fired: list[tuple[int, str]] = []

    def fire(tag, then=None):
        def action():
            fired.append((sim.now, tag))
            if then is not None:
                then()

        return action

    outcomes = []
    for step in program(sim, fire):
        if callable(step):
            step()
            continue
        try:
            sim.run(until=step)
            outcomes.append(("ok", _counts(sim)))
        except _Boom:
            outcomes.append(("raised", _counts(sim)))
    return fired, outcomes


def _reserved_older_than_its_instant(sim, fire):
    # A place reserved before entries queued on its instant fires
    # before them, whether it is queued before the instant drains or
    # while it drains; and one older than an entry that already fired
    # fires next.
    early, draining, lone, past = Slot(), Slot(), Slot(), Slot()
    sim.reserve(early, 10)
    sim.call_at(10, fire("a0"))
    sim.call_at(10, fire("a1"))
    sim.call_reserved(early, fire("early"))
    sim.call_at(20, fire("b0", lambda: sim.call_reserved(
        draining, fire("draining"))))
    sim.reserve(draining, 20)
    sim.call_at(20, fire("b1"))
    sim.call_at(20, fire("b2"))
    sim.reserve(lone, 30)
    sim.call_at(30, fire("c0"))
    sim.call_at(25, fire("d", lambda: sim.call_reserved(lone, fire("lone"))))
    sim.reserve(past, 40)
    sim.call_at(40, fire("e0", lambda: sim.call_reserved(
        past, fire("past"))))
    sim.call_at(40, fire("e1"))
    return [None]


def _cancel_inside_the_draining_instant(sim, fire):
    # Cancel queued entries of the instant being drained -- one in the
    # middle, the firing entry itself, then every entry left, after
    # which an entry queued for the same instant still fires.
    handles = {}

    def first():
        assert not sim.cancel(handles["a0"])  # firing now
        assert sim.cancel(handles["a2"])

    handles["a0"] = sim.call_at(10, fire("a0", first))
    handles["a1"] = sim.call_at(10, fire("a1"))
    handles["a2"] = sim.call_at(10, fire("a2"))
    handles["a3"] = sim.call_at(10, fire("a3"))

    def empty_the_instant():
        assert sim.cancel(handles["b1"]) and sim.cancel(handles["b2"])
        sim.call_at(20, fire("b3"))

    handles["b0"] = sim.call_at(20, fire("b0", empty_the_instant))
    handles["b1"] = sim.call_at(20, fire("b1"))
    handles["b2"] = sim.call_at(20, fire("b2"))
    sim.call_at(30, fire("c0"))
    return [None]


def _weak_tail_inside_one_instant(sim, fire):
    # Weak entries before the instant's last strong one fire; the weak
    # tail after it is left queued until a strong event follows.
    sim.call_at(10, fire("w0"), weak=True)
    sim.call_at(10, fire("s0"))
    sim.call_at(10, fire("w1"), weak=True)
    sim.call_at(10, fire("w2"), weak=True)
    return [None, 10, None]


def _weak_tail_then_strong_later(sim, fire):
    steps = _weak_tail_inside_one_instant(sim, fire)
    return [*steps, lambda: sim.call_at(15, fire("s1")), None]


def _raise_mid_instant(sim, fire):
    # The second entry of an instant raises: the run stops there, and
    # the next run fires the rest of the instant in order. The last
    # entry of another instant raises too, with the queue then empty,
    # and a horizon run and a later event follow.
    def boom():
        raise _Boom

    sim.call_at(10, fire("a0"))
    sim.call_at(10, fire("a1", boom))
    sim.call_at(10, fire("a2"))
    sim.call_at(10, fire("a3", lambda: sim.call_at(10, fire("a4"))))
    sim.call_at(20, fire("b0"))
    sim.call_at(30, fire("c0"))
    sim.call_at(30, fire("c1", boom))
    sim.call_at(30, fire("c2", boom))
    return [None, None, None, 50, lambda: sim.call_at(60, fire("d0")), None]


_FIXED_PROGRAMS = [
    _reserved_older_than_its_instant,
    _cancel_inside_the_draining_instant,
    _weak_tail_inside_one_instant,
    _weak_tail_then_strong_later,
    _raise_mid_instant,
]


class TestOneInstantAgainstTheReference:
    @pytest.mark.parametrize(
        "program", _FIXED_PROGRAMS, ids=lambda p: p.__name__.strip("_")
    )
    def test_fixed_program_replays_the_reference(self, program):
        assert _replay_fixed(Simulator, program) == _replay_fixed(
            _ReferenceSimulator, program
        )

    def test_reserved_places_fire_in_seq_order(self):
        fired, _ = _replay_fixed(Simulator, _reserved_older_than_its_instant)
        assert [tag for _, tag in fired] == [
            "early", "a0", "a1", "b0", "draining", "b1", "b2", "d",
            "lone", "c0", "e0", "past", "e1",
        ]

    def test_cancels_inside_the_draining_instant(self):
        fired, _ = _replay_fixed(
            Simulator, _cancel_inside_the_draining_instant
        )
        assert [tag for _, tag in fired] == [
            "a0", "a1", "a3", "b0", "b3", "c0",
        ]

    def test_weak_tail_is_left_queued(self):
        fired, outcomes = _replay_fixed(
            Simulator, _weak_tail_inside_one_instant
        )
        assert fired == [(10, "w0"), (10, "s0")]
        # (now, dispatched, pending, max depth) after each run
        assert [counts for _, counts in outcomes] == [
            (10, 2, 2, 4), (10, 2, 2, 4), (10, 2, 2, 4),
        ]
        fired, _ = _replay_fixed(Simulator, _weak_tail_then_strong_later)
        assert [tag for _, tag in fired] == ["w0", "s0", "w1", "w2", "s1"]

    def test_exception_mid_instant_resumes_in_order(self):
        crashes = []

        def program(sim, fire):
            sim.on_crash = crashes.append
            return _raise_mid_instant(sim, fire)

        fired, outcomes = _replay_fixed(Simulator, program)
        assert [tag for _, tag in fired] == [
            "a0", "a1", "a2", "a3", "a4", "b0", "c0", "c1", "c2", "d0",
        ]
        assert [kind for kind, _ in outcomes] == [
            "raised", "raised", "raised", "ok", "ok",
        ]
        # on_crash fires once per escaping exception
        assert len(crashes) == 3 and all(
            isinstance(exc, _Boom) for exc in crashes
        )
        # The horizon run moves the clock to 50, and the event queued
        # at 60 fires there.
        assert outcomes[3][1][0] == 50 and outcomes[4][1][0] == 60


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
