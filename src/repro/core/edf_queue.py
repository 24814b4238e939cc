"""Frame-level output queues: deadline-sorted (EDF) and FCFS.

Figure 18.2 of the paper gives every transmitter -- each end node's
uplink and each switch port's downlink -- **two** output queues:

* a *deadline-sorted* queue for real-time frames, served in Earliest
  Deadline First order, and
* a *FCFS* queue for best-effort (TCP-style) frames.

The RT queue has strict priority: a best-effort frame is only started
when the RT queue is empty. Service is non-preemptive at frame
granularity (Ethernet cannot abort a frame mid-wire); the resulting
one-frame blocking is absorbed by the paper's ``T_latency`` term in
Eq. 18.1 rather than by the per-link deadlines.

:class:`EDFQueue` breaks deadline ties in FIFO order of insertion, which
makes simulation runs fully deterministic and matches the natural
behaviour of an insertion-sorted hardware queue.

Every enqueued frame allocates one :class:`QueuedFrame`, so it is a plain
mutable ``__slots__`` record with identity equality; the heap orders on
``(absolute_deadline, seq)`` and never compares two records.

Both queues expose their container as :attr:`EDFQueue.entries` /
:attr:`FCFSQueue.entries`, one list or deque for the queue's lifetime,
so an output port tests and measures a queue per frame with C-level
``bool``/``len`` rather than a Python ``__bool__``/``__len__`` call.
Only the queue mutates it.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Generic, Iterator, TypeVar

from ..errors import SchedulingError

__all__ = ["QueuedFrame", "EDFQueue", "FCFSQueue"]

PayloadT = TypeVar("PayloadT")


@dataclass(slots=True, eq=False)
class QueuedFrame(Generic[PayloadT]):
    """One frame waiting in an output queue.

    Attributes
    ----------
    payload:
        The frame object itself (opaque to the queue).
    absolute_deadline:
        Per-link absolute EDF deadline, in simulator time units. This is
        the value the RT layer writes into the (repurposed) IP address
        fields of the datagram -- see :mod:`repro.protocol.headers`.
    enqueued_at:
        Time the frame entered the queue; used for queueing-delay
        statistics.
    channel_id:
        Originating RT channel (``-1`` for best-effort frames).
    """

    payload: PayloadT
    absolute_deadline: int
    enqueued_at: int
    channel_id: int = -1
    #: Per-frame completion allowance beyond the deadline (cumulative
    #: non-preemption blocking + propagation for this frame's hop depth);
    #: -1 means "use the port's default" (a first-hop allowance).
    allowance_ns: int = -1


class EDFQueue(Generic[PayloadT]):
    """Deadline-sorted queue with deterministic FIFO tie-breaking.

    Implemented as a binary heap keyed on ``(absolute_deadline, seq)``
    where ``seq`` is a monotone insertion counter, giving O(log n) push
    and pop with total, reproducible order.
    """

    def __init__(self) -> None:
        #: the heap of ``(absolute_deadline, seq, frame)`` entries:
        #: read-only outside the queue, never rebound.
        self.entries: list[tuple[int, int, QueuedFrame[PayloadT]]] = []
        self._seq = itertools.count()
        self._pushed = 0
        self._popped = 0
        self._max_depth = 0

    def push(self, frame: QueuedFrame[PayloadT]) -> None:
        """Insert a frame; O(log n)."""
        heapq.heappush(
            self.entries, (frame.absolute_deadline, next(self._seq), frame)
        )
        self._pushed += 1
        if len(self.entries) > self._max_depth:
            self._max_depth = len(self.entries)

    def pop(self) -> QueuedFrame[PayloadT]:
        """Remove and return the earliest-deadline frame; O(log n)."""
        if not self.entries:
            raise SchedulingError("pop from an empty EDF queue")
        _, _, frame = heapq.heappop(self.entries)
        self._popped += 1
        return frame

    def peek(self) -> QueuedFrame[PayloadT]:
        """Return (without removing) the earliest-deadline frame."""
        if not self.entries:
            raise SchedulingError("peek into an empty EDF queue")
        return self.entries[0][2]

    def __len__(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __iter__(self) -> Iterator[QueuedFrame[PayloadT]]:
        """Iterate frames in EDF order without disturbing the queue."""
        return (entry[2] for entry in sorted(self.entries))

    @property
    def total_pushed(self) -> int:
        """Lifetime number of frames inserted (for statistics)."""
        return self._pushed

    @property
    def total_popped(self) -> int:
        """Lifetime number of frames served (for statistics)."""
        return self._popped

    @property
    def max_depth(self) -> int:
        """High-watermark of simultaneous queued frames (for statistics)."""
        return self._max_depth

    def clear(self) -> None:
        self.entries.clear()


class FCFSQueue(Generic[PayloadT]):
    """Plain first-come-first-served queue for best-effort frames.

    A bounded capacity may be supplied to model finite switch buffers;
    when full, :meth:`push` reports the drop by returning ``False``
    (best-effort traffic is droppable -- RT frames never enter this
    queue, so an RT frame can never be lost to buffer pressure here).
    """

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity <= 0:
            raise SchedulingError(
                f"FCFS queue capacity must be positive or None, got {capacity}"
            )
        #: the queued frames, oldest first: read-only outside the
        #: queue, never rebound.
        self.entries: deque[QueuedFrame[PayloadT]] = deque()
        self._capacity = capacity
        self._pushed = 0
        self._popped = 0
        self._dropped = 0

    def push(self, frame: QueuedFrame[PayloadT]) -> bool:
        """Append a frame. Returns ``False`` (and drops) when full."""
        if self._capacity is not None and len(self.entries) >= self._capacity:
            self._dropped += 1
            return False
        self.entries.append(frame)
        self._pushed += 1
        return True

    def pop(self) -> QueuedFrame[PayloadT]:
        """Remove and return the oldest frame."""
        if not self.entries:
            raise SchedulingError("pop from an empty FCFS queue")
        self._popped += 1
        return self.entries.popleft()

    def peek(self) -> QueuedFrame[PayloadT]:
        if not self.entries:
            raise SchedulingError("peek into an empty FCFS queue")
        return self.entries[0]

    def __len__(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __iter__(self) -> Iterator[QueuedFrame[PayloadT]]:
        return iter(self.entries)

    @property
    def total_pushed(self) -> int:
        return self._pushed

    @property
    def total_popped(self) -> int:
        return self._popped

    @property
    def total_dropped(self) -> int:
        """Frames refused because the buffer was full."""
        return self._dropped

    def clear(self) -> None:
        self.entries.clear()
