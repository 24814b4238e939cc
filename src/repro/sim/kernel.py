"""The discrete-event simulator core.

A minimal, deterministic event loop in integer nanoseconds:

* :meth:`Simulator.call_at` queues a callback at an absolute time and
  returns its queue entry; same-time events fire in queueing (FIFO)
  order. It is the one way to queue an event, except into a place
  reserved earlier (next item).
* :meth:`Simulator.reserve` stamps a :class:`~repro.sim.events.Slot`
  with the ``(time, seq)`` place an event queued now would get, and
  :meth:`Simulator.call_reserved` queues an event there later -- or
  never. A link reserves its wire-free wakeup at every transmission and
  its port queues it only when a frame waits
  (:mod:`repro.network.link`); an unqueued reservation is not an event
  and never keeps the simulation alive.
* :meth:`Simulator.cancel` takes an entry :meth:`~Simulator.call_at`
  returned and removes it from the queue at once.
* :meth:`Simulator.run` drains the queue, optionally up to a horizon.
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

Cancelling removes an entry from the heap at once:
:meth:`Simulator.cancel` finds it (its ``(time, seq)`` is unique), puts
the heap's last entry in its place and re-heapifies. That costs time
linear in the queue length; the one caller, a switch's lease timers,
cancels while the queue is short (the handshake phase). A cancelled
entry never fires, never moves the clock and is not counted, and no
dead entry stays queued: :attr:`Simulator.pending_events` counts only
events still to fire, plus weak ones a finished run left behind.

Observability hooks
-------------------
Two features exist purely for the telemetry layer and cost nothing when
unused:

* **weak events** (``call_at(..., weak=True)``): observer callbacks
  that never keep the simulation alive. ``run()`` returns as soon as no
  *strong* (normal) events remain, without firing leftover weak events,
  so periodic probes cannot extend the final clock or perturb results.
  The queued weak entries' seqs are kept in one set, so a strong event
  remains exactly while the heap is longer than that set.
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
from .events import Slot

__all__ = ["Simulator"]

#: One queued event: ``(time, seq, action, label)``.
Entry = tuple[int, int, Callable[[], None], str]


class Simulator:
    """Deterministic discrete-event loop with an integer-ns clock.

    Example
    -------
    >>> sim = Simulator()
    >>> seen = []
    >>> doomed = sim.call_at(100, lambda: seen.append("cancelled"))
    >>> _ = sim.call_at(50, lambda: seen.append(sim.now))
    >>> sim.cancel(doomed)
    True
    >>> sim.run()
    1
    >>> seen, sim.now
    ([50], 50)
    """

    def __init__(self) -> None:
        #: Current simulation time in nanoseconds. A plain attribute
        #: (the hot paths read it per frame); only the kernel assigns it.
        self.now = 0
        self._seq = 0
        #: the pending set: a heap of ``(time, seq, action, label)``.
        self._heap: list[Entry] = []
        #: the seqs of the queued weak entries.
        self._weak: set[int] = set()
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
        """Events still queued (weak ones included)."""
        return len(self._heap)

    @property
    def dispatched_events(self) -> int:
        """Lifetime count of events that actually fired."""
        return self._dispatched

    @property
    def max_heap_depth(self) -> int:
        """High-water mark of the event queue."""
        return self._max_heap_depth

    # -- scheduling ---------------------------------------------------------

    def call_at(
        self,
        time: int,
        action: Callable[[], None],
        label: str = "",
        weak: bool = False,
    ) -> Entry:
        """Queue ``action`` at absolute time ``time`` (ns); return its entry.

        An event queued for the current instant fires later in it, after
        every event already queued for this time (FIFO), never
        re-entering the caller. The returned entry is the token
        :meth:`cancel` takes.

        ``weak=True`` marks an observer event that never keeps the
        simulation alive (see the module docstring). Weak actions must
        not mutate model state or queue strong events. (``weak`` is not
        keyword-only: CPython 3.11 does not specialize calls to a
        function with keyword-only parameters, and every simulated
        frame calls this one.)
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
        entry = (time, seq, action, label)
        heap = self._heap
        heappush(heap, entry)
        if len(heap) > self._max_heap_depth:
            self._max_heap_depth = len(heap)
        if weak:
            self._weak.add(seq)
        return entry

    def reserve(self, slot: Slot, time: int) -> None:
        """Stamp ``slot`` with the place ``(time, seq)`` for a later event.

        Takes the seq that :meth:`call_at` would take now. An event that
        :meth:`call_reserved` queues into the slot fires exactly where
        one queued now would have: after every same-time event queued
        before this call, before every one queued after it. A place the
        slot held but never queued is abandoned.
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

        The checks of :meth:`call_at` apply: the place's time may not
        have passed and ``action`` must be callable. A slot that holds
        no reservation (never reserved, or already queued) is rejected.
        The event is strong and no caller cancels it, so nothing is
        returned.
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

    def cancel(self, entry: Entry) -> bool:
        """Remove ``entry`` (from :meth:`call_at`) from the queue.

        Returns False when it is no longer queued: it already fired, is
        firing now, or was cancelled before. Linear in the queue length.
        """
        heap = self._heap
        try:
            index = heap.index(entry)
        except ValueError:
            return False
        last = heap.pop()
        if index < len(heap):
            heap[index] = last
            heapify(heap)
        self._weak.discard(entry[1])
        return True

    # -- execution -----------------------------------------------------------

    def run(self, until: int | None = None) -> int:
        """Dispatch events in time order.

        Parameters
        ----------
        until:
            Inclusive horizon in ns. Events queued after ``until`` stay
            queued and the clock is advanced to exactly ``until`` when
            the queue outlives the horizon. ``None`` drains the whole
            queue.

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
        weak = self._weak
        before = self._dispatched
        try:
            # Without weak entries (no probes), a non-empty heap is the
            # whole test, one len() per event cheaper.
            while len(heap) > len(weak) if weak else heap:
                entry = heappop(heap)
                time, seq, action, label = entry
                if until is not None and time > until:
                    heappush(heap, entry)
                    break
                if weak:
                    weak.discard(seq)
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
        return self._dispatched - before
