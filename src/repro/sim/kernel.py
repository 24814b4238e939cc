"""The discrete-event simulator core.

A minimal, deterministic event loop in integer nanoseconds:

* :meth:`Simulator.call_at` / :meth:`Simulator.call_reserved` queue a
  callback and return nothing: the per-frame entry points, which no
  caller ever cancels.
* :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` queue a
  callback and return its :class:`~repro.sim.events.Event`, the
  caller's cancellation handle; same-time events fire in scheduling
  (FIFO) order, whichever entry point queued them.
* :meth:`Simulator.reserve` stamps a :class:`~repro.sim.events.Slot`
  with the ``(time, seq)`` place an event scheduled now would get, and
  :meth:`Simulator.call_reserved` (or :meth:`Simulator.schedule_reserved`,
  with a handle) queues an event there later -- or never. A link
  reserves its wire-free wakeup at every transmission and its port
  queues it only when a frame waits (:mod:`repro.network.link`); an
  unqueued reservation is not an event and never keeps the simulation
  alive.
* :meth:`Simulator.run` drains the queue, optionally up to a horizon;
  :meth:`Simulator.step` dispatches one event under the same
  termination rule.
* cancellation is lazy and O(1) (see :mod:`repro.sim.events`).
* :attr:`Simulator.now` is a plain attribute for speed; only the
  kernel assigns it.

The kernel is callback-based rather than coroutine-based: the network
models (links, ports, sources) are naturally event-driven state
machines, and callbacks keep the hot loop free of generator overhead --
one simulated second of a loaded 100 Mbps link is ~8k frame events, and
the validation experiments simulate many hyperperiods.

The pending set
---------------
One binary heap: a plain list of ``(time, seq, action, label)`` entries
that every method drives with :mod:`heapq` directly. ``(time, seq)`` is
unique, so entries never compare by action and the dispatch order is
the total order ``(time, seq)`` -- same-time FIFO included. (A calendar
queue was tried and deleted: on CPython the C ``heapq`` beat it on
every population measured, EXPERIMENTS.md EXP-P7.)

An entry is no object of its own. A caller that asks for a handle gets
an :class:`~repro.sim.events.Event` that the kernel also files in a
side table keyed by the entry's seq, until the entry is popped. The
dispatch loop looks at that table only while it holds a handle:

* a **cancelled** handle's entry is dropped before the clock moves;
  nothing fires and nothing is counted;
* a **fired** handle is marked, so it reads as not ``pending`` and
  cancelling it fails;
* a **weak** handle (below) is what makes its entry weak.

Entries queued without a handle are always strong and never cancelled.
Keep-alive is counted backwards: ``_inert`` counts the queued entries
that cannot keep the run alive (weak ones, and cancelled strong ones),
so a strong live event remains exactly while the heap is longer than
``_inert`` -- and queueing or popping a plain entry touches no counter.

Observability hooks
-------------------
Two features exist purely for the telemetry layer and cost nothing when
unused:

* **weak events** (``schedule(..., weak=True)``): observer callbacks
  that never keep the simulation alive. ``run()`` returns as soon as no
  *strong* (normal) events remain, without firing leftover weak events,
  so periodic probes cannot extend the final clock or perturb results.
  ``step()`` and ``peek_time()`` follow the same rule: once no strong
  event remains, ``step()`` reports idle (False) and ``peek_time()``
  reports None, and the weak ones stay queued.
* **profiler** (:attr:`Simulator.profiler`): when set to an object with
  an ``account(label, wall_ns)`` method, ``run()`` times each dispatch
  with ``perf_counter_ns`` and reports it under the entry's label.
  ``None`` (the default) keeps the dispatch loop free of timing calls.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from time import perf_counter_ns
from typing import Callable

from ..errors import SimulationError
from .events import Event, Slot
from .events import _fired  # type: ignore[attr-defined]

__all__ = ["Simulator"]


class Simulator:
    """Deterministic discrete-event loop with an integer-ns clock.

    Example
    -------
    >>> sim = Simulator()
    >>> seen = []
    >>> _ = sim.schedule(100, lambda: seen.append(sim.now))
    >>> sim.call_at(50, lambda: seen.append(sim.now))
    >>> sim.run()
    >>> seen
    [50, 100]
    """

    def __init__(self) -> None:
        #: Current simulation time in nanoseconds. A plain attribute
        #: (the hot paths read it per frame); only the kernel assigns it.
        self.now = 0
        self._seq = 0
        #: the pending set: a heap of ``(time, seq, action, label)``.
        self._heap: list[tuple[int, int, Callable[[], None], str]] = []
        #: the handle of every queued entry that has one, by seq.
        self._handles: dict[int, Event] = {}
        #: queued entries that cannot keep the run alive: weak ones and
        #: cancelled strong ones (see the module docstring).
        self._inert = 0
        self._running = False
        self._dispatched = 0
        self._max_heap_depth = 0
        self.profiler = None
        #: optional callback ``(exc)`` fired when an exception escapes
        #: the dispatch loop, before it propagates -- the flight
        #: recorder's crash-dump hook. ``None`` (default) keeps the
        #: loop's failure path identical to an uninstrumented kernel.
        self.on_crash = None

    @property
    def pending_events(self) -> int:
        """Events still in the queue (including lazily cancelled ones)."""
        return len(self._heap)

    @property
    def live_pending_events(self) -> int:
        """Events still in the queue that will actually fire.

        Unlike :attr:`pending_events` this excludes lazily-cancelled
        entries, so telemetry probes report true queue depth.
        O(handles).
        """
        cancelled = sum(
            1 for event in self._handles.values() if event.cancelled
        )
        return len(self._heap) - cancelled

    @property
    def dispatched_events(self) -> int:
        """Lifetime count of events that actually fired."""
        return self._dispatched

    @property
    def max_heap_depth(self) -> int:
        """High-water mark of the event queue (includes cancelled)."""
        return self._max_heap_depth

    # -- scheduling ---------------------------------------------------------

    def call_at(
        self, time: int, action: Callable[[], None], label: str = ""
    ) -> None:
        """Queue ``action`` at absolute time ``time`` (ns), with no handle.

        The checks and the place in the order are those of
        :meth:`schedule_at`; the event is strong and cannot be
        cancelled.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} ns; the clock is already at "
                f"{self.now} ns"
            )
        if not callable(action):
            raise SimulationError(
                f"event action must be callable, got {type(action).__name__}"
            )
        seq = self._seq
        self._seq = seq + 1
        heap = self._heap
        heappush(heap, (time, seq, action, label))
        if len(heap) > self._max_heap_depth:
            self._max_heap_depth = len(heap)

    def schedule(
        self,
        delay: int,
        action: Callable[[], None],
        label: str = "",
        *,
        weak: bool = False,
    ) -> Event:
        """Schedule ``action`` to fire ``delay`` ns from now.

        ``delay`` must be non-negative; zero-delay events fire later in
        the *current* instant, after all previously scheduled events for
        this time (FIFO), never immediately re-entering the caller.

        ``weak=True`` marks an observer event that never keeps the
        simulation alive (see the module docstring).
        """
        if delay < 0:
            raise SimulationError(
                f"cannot schedule into the past (delay {delay} ns)"
            )
        return self.schedule_at(self.now + delay, action, label, weak=weak)

    def schedule_at(
        self,
        time: int,
        action: Callable[[], None],
        label: str = "",
        *,
        weak: bool = False,
    ) -> Event:
        """Schedule ``action`` at absolute simulation time ``time`` (ns)."""
        seq = self._seq
        self.call_at(time, action, label)
        return self._file_handle(time, seq, action, label, weak)

    def reserve(self, slot: Slot, time: int) -> None:
        """Stamp ``slot`` with the place ``(time, seq)`` for a later event.

        Takes the seq that :meth:`schedule_at` would take now. An event
        that :meth:`call_reserved` queues into the slot fires exactly
        where one scheduled now would have: after every same-time event
        scheduled before this call, before every one scheduled after
        it. A place the slot held but never queued is abandoned.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot reserve at {time} ns; the clock is already at "
                f"{self.now} ns"
            )
        slot.time = time
        seq = self._seq
        slot.seq = seq
        self._seq = seq + 1

    def call_reserved(
        self, slot: Slot, action: Callable[[], None], label: str = ""
    ) -> None:
        """Queue ``action`` into the place :meth:`reserve` stamped on ``slot``.

        The checks of :meth:`schedule_at` apply: the place's time may
        not have passed and ``action`` must be callable. A slot that
        holds no reservation (never reserved, or already queued) is
        rejected. Like :meth:`call_at` it returns no handle.
        """
        seq = slot.seq
        if seq < 0:
            raise SimulationError(
                "the slot holds no reservation (never reserved, or "
                "already queued)"
            )
        time = slot.time
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} ns; the clock is already at "
                f"{self.now} ns"
            )
        if not callable(action):
            raise SimulationError(
                f"event action must be callable, got {type(action).__name__}"
            )
        slot.seq = -1
        heap = self._heap
        heappush(heap, (time, seq, action, label))
        if len(heap) > self._max_heap_depth:
            self._max_heap_depth = len(heap)

    def schedule_reserved(
        self, slot: Slot, action: Callable[[], None], label: str = ""
    ) -> Event:
        """:meth:`call_reserved`, returning the event's handle."""
        seq = slot.seq
        self.call_reserved(slot, action, label)
        return self._file_handle(slot.time, seq, action, label, False)

    def _file_handle(
        self,
        time: int,
        seq: int,
        action: Callable[[], None],
        label: str,
        weak: bool,
    ) -> Event:
        """Make the handle of the entry just queued at ``(time, seq)``."""
        event = Event(time, seq, action, label, weak, self)
        self._handles[seq] = event
        if weak:
            self._inert += 1
        return event

    def _note_cancelled(self) -> None:
        """Strong-event cancellation hook (called by Event.cancel)."""
        self._inert += 1

    def _claim(self, seq: int) -> bool:
        """Settle the handle of the entry at ``seq``, just popped.

        Returns False when the handle was cancelled (the entry must not
        fire); otherwise marks the handle fired. A cancelled or weak
        entry was inert, so ``_inert`` drops with it.
        """
        event = self._handles.pop(seq)
        if event.cancelled:
            self._inert -= 1
            return False
        if event.weak:
            self._inert -= 1
        event.action = _fired
        return True

    # -- execution -----------------------------------------------------------

    def run(self, until: int | None = None) -> int:
        """Dispatch events in time order.

        Parameters
        ----------
        until:
            Inclusive horizon in ns. Events scheduled after ``until``
            stay queued and the clock is advanced to exactly ``until``
            when the queue outlives the horizon. ``None`` drains the
            whole queue.

        Returns the number of events dispatched by this call. Re-entrant
        calls (``run`` from inside an event) are an error.

        Termination counts only *strong* events: once none remain, the
        loop exits without firing leftover weak observer events, so the
        final clock equals what an uninstrumented run would report.
        """
        if self._running:
            raise SimulationError("Simulator.run is not re-entrant")
        if until is not None and until < self.now:
            raise SimulationError(
                f"horizon {until} ns is in the past (now {self.now} ns)"
            )
        self._running = True
        profiler = self.profiler
        heap = self._heap
        handles = self._handles
        before = self._dispatched
        try:
            while len(heap) > self._inert:
                entry = heappop(heap)
                time, seq, action, label = entry
                if until is not None and time > until:
                    heappush(heap, entry)
                    break
                if handles and seq in handles and not self._claim(seq):
                    continue
                self.now = time
                if profiler is None:
                    action()
                else:
                    start = perf_counter_ns()
                    action()
                    profiler.account(label, perf_counter_ns() - start)
                self._dispatched += 1
        except BaseException as exc:
            if self.on_crash is not None:
                self.on_crash(exc)
            raise
        finally:
            self._running = False
        if until is not None and self.now < until:
            self.now = until
            # The horizon path is where runs abandon in-flight work, so
            # lazily-cancelled entries would otherwise linger forever.
            self.compact()
        return self._dispatched - before

    def step(self) -> bool:
        """Dispatch a single (non-cancelled) event. Returns False if idle.

        Idle means what it means to :meth:`run`: no strong event
        remains. Leftover weak events stay queued and never fire.
        """
        if self._running:
            raise SimulationError("Simulator.step is not re-entrant")
        heap = self._heap
        handles = self._handles
        while len(heap) > self._inert:
            time, seq, action, _ = heappop(heap)
            if handles and seq in handles and not self._claim(seq):
                continue
            self.now = time
            self._running = True
            try:
                action()
            finally:
                self._running = False
            self._dispatched += 1
            return True
        return False

    def peek_time(self) -> int | None:
        """Firing time of the next live event, or None when idle.

        Idle means what it means to :meth:`run`: no strong event
        remains (leftover weak events never fire). Otherwise the next
        live event may be a weak one. Cancelled entries at the head are
        dropped on the way.
        """
        heap = self._heap
        handles = self._handles
        while len(heap) > self._inert:
            time, seq = heap[0][0], heap[0][1]
            event = handles.get(seq)
            if event is None or not event.cancelled:
                return time
            heappop(heap)
            del handles[seq]
            self._inert -= 1
        return None

    # -- maintenance ---------------------------------------------------------

    def compact(self) -> int:
        """Drop lazily-cancelled events from the queue.

        Cancellation is O(1) by leaving the queue entry in place; a run
        stopped at a horizon can therefore accumulate dead entries
        indefinitely. Rebuilding without them is safe because queue keys
        ``(time, seq)`` are unique, so the rebuilt heap preserves pop
        order exactly. Returns the number of entries removed.
        """
        if self._running:
            raise SimulationError("cannot compact while running")
        handles = self._handles
        dead = {seq for seq, event in handles.items() if event.cancelled}
        if not dead:
            return 0
        live = [entry for entry in self._heap if entry[1] not in dead]
        heapify(live)
        self._heap = live
        for seq in dead:
            del handles[seq]
        self._inert = sum(1 for event in handles.values() if event.weak)
        return len(dead)
