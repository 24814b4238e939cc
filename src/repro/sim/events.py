"""Event handles and reservation slots for the discrete-event kernel.

A queued event is a plain ``(time, seq, action, label)`` heap entry in
the kernel (:mod:`repro.sim.kernel`). Determinism rule: events scheduled
for the same instant fire in the order they were scheduled (FIFO),
enforced by a monotone sequence number in the heap key. This makes
every simulation run bit-for-bit reproducible for a given seed, which
the validation experiments rely on.

An :class:`Event` is the handle of one entry, made only for a caller
that asks for it: :meth:`Simulator.schedule` returns the :class:`Event`
of the entry it queued, and callers cancel through it. The per-frame
sites (arrivals, wire-free wakeups, switch processing, source periods)
queue through :meth:`Simulator.call_at` and get none, so a simulated
frame allocates no event object. Cancellation is lazy (the heap entry
stays but is skipped on pop), which keeps cancel O(1).
"""

from __future__ import annotations

from typing import Callable

__all__ = ["Event", "Slot"]


class Event:
    """The caller's handle on one scheduled callback.

    The kernel files it by ``seq`` next to the entry's heap tuple and
    marks it when the entry fires (:attr:`pending` turns False, and
    :meth:`cancel` then fails).

    ``weak`` marks observer events (telemetry probes): the simulator
    stops once only weak events remain, so probes never extend a run
    nor change its final clock. Weak actions must not mutate model
    state or schedule strong events.

    The owning simulator is held so that cancelling a strong event
    immediately releases its keep-alive count (the simulator must not
    idle-wait on an event that will never fire).
    """

    __slots__ = ("time", "seq", "action", "label", "cancelled", "weak", "_sim")

    def __init__(
        self,
        time: int,
        seq: int,
        action: Callable[[], None],
        label: str = "",
        weak: bool = False,
        sim=None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.action = action
        self.label = label
        self.cancelled = False
        self.weak = weak
        self._sim = sim

    def sort_key(self) -> tuple[int, int]:
        return (self.time, self.seq)

    @property
    def pending(self) -> bool:
        """True until the event has fired or been cancelled."""
        return not self.cancelled and self.action is not _fired

    def cancel(self) -> bool:
        """Prevent the event from firing. Returns False if already fired."""
        if self.action is _fired:
            return False
        if not self.cancelled:
            self.cancelled = True
            if self._sim is not None and not self.weak:
                self._sim._note_cancelled()
        return True


class Slot:
    """A reusable reservation of one ``(time, seq)`` place in the order.

    :meth:`Simulator.reserve` stamps it and
    :meth:`Simulator.call_reserved` queues an event into it.
    Reserving again abandons a place never queued, so an owner with one
    reservation at a time (a link's wire-free wakeup) keeps one slot,
    and an unqueued reservation is stored nowhere else. ``seq`` is -1
    while the slot holds no reservation.
    """

    __slots__ = ("time", "seq")

    def __init__(self) -> None:
        self.time = 0
        self.seq = -1


def _fired() -> None:  # sentinel assigned after dispatch
    raise AssertionError("a fired event must never be re-dispatched")
