"""Reservation slots for the discrete-event kernel.

A queued event is a plain ``(time, seq, action, label)`` entry in the
kernel (:mod:`repro.sim.kernel`), kept in ``seq`` order with the other
entries of its instant. Determinism rule: events queued for the same
instant fire in the order they were queued (FIFO), enforced by a
monotone sequence number. This makes every simulation run bit-for-bit
reproducible for a given seed, which the validation experiments rely
on.

A :class:`Slot` holds one such ``(time, seq)`` place taken now for an
event that may be queued into it later.
"""

from __future__ import annotations

__all__ = ["Slot"]


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
