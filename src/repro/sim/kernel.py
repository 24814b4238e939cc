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
Every queued event is a plain ``(time, seq, action, label)`` entry, and
``(time, seq)`` is unique, so the dispatch order is the total order
``(time, seq)`` -- same-time FIFO included. The entries are grouped by
their exact instant:

* a binary heap of the distinct pending instants (plain ints, driven
  with :mod:`heapq` directly);
* a dict from each instant to its entries in ``seq`` order: a lone
  entry is stored bare, two or more go in a :class:`~collections.deque`.

:meth:`Simulator.call_at` takes the largest seq yet, so it appends to
its instant; :meth:`Simulator.call_reserved` inserts in ``seq`` order.
:meth:`Simulator.run` takes the earliest instant and drains its deque
in place, so an event queued for the instant being drained joins it.
The star and the fat tree release maximum-size frames at the critical
instant, so their wires run on a slot grid: a data-plane instant holds
11 to 16 events on average, and one heap operation serves them all.

A calendar queue was tried and deleted (EXP-P7/P8). It grouped events
into fixed-width time buckets: each bucket was itself a small
``(time, seq)`` heap, and finding the next one was a scan in
interpreted bytecode, so on the hold model (every event at a distinct
instant) the C ``heapq`` beat it. Grouping by exact instant orders a
group by queueing alone, with no comparison, and costs one heap of
ints when every event is alone on its instant (EXP-P26).

Cancelling removes an entry from the queue at once:
:meth:`Simulator.cancel` finds it in its instant's entries (its
``(time, seq)`` is unique), which costs time linear in that instant's
entries; an instant it empties leaves the heap too, linear in the
pending instants. The one caller, a switch's lease timers, cancels
while the queue is short (the handshake phase). A cancelled entry
never fires, never moves the clock and is not counted, and no dead
entry stays queued: :attr:`Simulator.pending_events` counts only events
still to fire, plus weak ones a finished run left behind.

Observability hooks
-------------------
Two features exist purely for the telemetry layer and cost nothing when
unused:

* **weak events** (``call_at(..., weak=True)``): observer callbacks
  that never keep the simulation alive. ``run()`` returns as soon as no
  *strong* (normal) events remain, without firing leftover weak events,
  so periodic probes cannot extend the final clock or perturb results.
  The queued weak entries' seqs are kept in one set, so a strong event
  remains exactly while more entries are pending than that set holds.
* **profiler** (:attr:`Simulator.profiler`): when set to an object with
  an ``account(label, wall_ns)`` method, ``run()`` times each dispatch
  with ``perf_counter_ns`` and reports it under the entry's label.
  ``None`` (the default) keeps the dispatch loop free of timing calls.
"""

from __future__ import annotations

from collections import deque
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
        #: the pending set: a heap of the distinct pending instants, and
        #: each instant's entry (lone) or deque of entries (seq order).
        self._times: list[int] = []
        self._at: dict[int, Entry | deque[Entry]] = {}
        #: queued entries, weak ones included.
        self._pending = 0
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
        return self._pending

    @property
    def dispatched_events(self) -> int:
        """Lifetime count of events that actually fired."""
        return self._dispatched

    @property
    def max_heap_depth(self) -> int:
        """High-water mark of :attr:`pending_events`."""
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
        at = self._at
        queued = at.get(time)
        if queued is None:
            at[time] = entry
            heappush(self._times, time)
        elif queued.__class__ is deque:
            queued.append(entry)
        else:
            at[time] = deque((queued, entry))
        pending = self._pending + 1
        self._pending = pending
        if pending > self._max_heap_depth:
            self._max_heap_depth = pending
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
        returned. Entries queued since the reservation may share its
        instant (the instant being drained included), so the entry goes
        in ``seq`` order among them.
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
        entry = (time, seq, action, label)
        at = self._at
        queued = at.get(time)
        if queued is None:
            at[time] = entry
            heappush(self._times, time)
        elif queued.__class__ is deque:
            index = len(queued)
            while index and queued[index - 1][1] > seq:
                index -= 1
            queued.insert(index, entry)
        elif queued[1] < seq:
            at[time] = deque((queued, entry))
        else:
            at[time] = deque((entry, queued))
        pending = self._pending + 1
        self._pending = pending
        if pending > self._max_heap_depth:
            self._max_heap_depth = pending

    def cancel(self, entry: Entry) -> bool:
        """Remove ``entry`` (from :meth:`call_at`) from the queue.

        Returns False when it is no longer queued: it already fired, is
        firing now, or was cancelled before. Linear in the entries of
        its instant, and in the pending instants when it empties one.
        """
        time = entry[0]
        at = self._at
        queued = at.get(time)
        if queued is None:
            return False
        if queued.__class__ is deque:
            try:
                queued.remove(entry)
            except ValueError:
                return False
            emptied = not queued
        elif queued == entry:
            emptied = True
        else:
            return False
        if emptied:
            # ``run`` finishes an instant only while it is still here.
            del at[time]
            times = self._times
            times.remove(time)
            heapify(times)
        self._pending -= 1
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
        times = self._times
        at = self._at
        weak = self._weak
        before = self._dispatched
        try:
            # Without weak entries (no probes), a pending entry is the
            # whole test, one len() per instant cheaper.
            while self._pending > len(weak) if weak else self._pending:
                time = times[0]
                if until is not None and time > until:
                    break
                queued = at[time]
                if queued.__class__ is not deque:
                    # A lone entry leaves the pending set before it fires.
                    heappop(times)
                    del at[time]
                    self._pending -= 1
                    if weak:
                        weak.discard(queued[1])
                    self.now = time
                    if profiler is None:
                        queued[2]()
                    else:
                        start = perf_counter_ns()
                        queued[2]()
                        profiler.account(
                            queued[3], perf_counter_ns() - start
                        )
                    self._dispatched += 1
                    continue
                # Drain the instant in place: an event queued for it
                # while it drains joins the deque in seq order. (It is
                # empty only when its last event raised in a past run.)
                if queued:
                    self.now = time
                    popleft = queued.popleft
                    while queued:
                        if weak and self._pending <= len(weak):
                            break
                        _, seq, action, label = popleft()
                        self._pending -= 1
                        if weak:
                            weak.discard(seq)
                        if profiler is None:
                            action()
                        else:
                            start = perf_counter_ns()
                            action()
                            profiler.account(
                                label, perf_counter_ns() - start
                            )
                        self._dispatched += 1
                    if queued:
                        break  # only weak entries remain
                if at.get(time) is queued:
                    # Still queued: no cancel emptied and removed it.
                    heappop(times)
                    del at[time]
        except BaseException as exc:
            if self.on_crash is not None:
                self.on_crash(exc)
            raise
        finally:
            self._running = False
        if until is not None and self.now < until:
            self.now = until
        return self._dispatched - before
