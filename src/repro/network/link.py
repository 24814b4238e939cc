"""A unidirectional wire with exact Ethernet timing.

Full-duplex Ethernet means each physical cable is two independent
simplex channels; the analysis treats them as two independent
"processors" (Section 18.3.2) and the simulator mirrors that exactly:
a :class:`HalfLink` carries frames one way, the reverse direction is a
different ``HalfLink`` instance.

Timing model per frame::

    t0                 = transmission start
    t0 + tx(frame)     = wire free again (IFG included in tx), owner's
                         ``on_idle`` fires when armed -- next frame may
                         start
    t0 + tx + prop     = frame fully received, ``deliver`` fires

The wire-free wakeup is armed, not automatic. :meth:`HalfLink.transmit`
reserves its place in the kernel's order, in the link's one
:class:`~repro.sim.events.Slot`, and :meth:`HalfLink.wake_when_free`
queues it there; the output port arms it only while a frame waits
behind the one on the wire. An armed wakeup fires in the ``(time,
seq)`` place an event scheduled at transmission start would have, so
no frame submitted at the instant the wire frees can overtake the queue
head; an unarmed one costs no event. Tracing queues nothing more: a
``link.idle`` record marks each wakeup that fires, so a traced run
dispatches the same events as an untraced one.

The link never queues: :meth:`transmit` on a busy link is a programming
error (:class:`~repro.errors.SimulationError`) -- queueing is the output
port's job, and keeping the layers strict catches scheduling bugs early.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from ..errors import SimulationError
from ..protocol.ethernet import EthernetFrame
from ..sim.events import Slot
from ..sim.kernel import Simulator
from ..sim.trace import Observer
from .phy import PhyProfile

__all__ = ["HalfLink"]


class HalfLink:
    """One direction of one cable.

    Frames in flight wait in a FIFO, not in their events:
    :meth:`transmit` appends the frame and queues the link's one arrival
    method (bound once), which pops the head. Every arrival meets its
    own frame. The link carries one frame at a time and a transmission
    takes positive time, so the arrival times ``done + propagation``
    strictly increase in queueing order; arrivals are never cancelled;
    and a fault-plan drop happens after the pop, so it consumes its own
    frame too.

    Parameters
    ----------
    sim:
        The event kernel.
    phy:
        Timing profile (transmission and propagation delays).
    name:
        Diagnostic name, e.g. ``"m0->switch"``.
    deliver:
        Called with the frame when it has fully arrived at the far end.
    on_idle:
        Called when the wire becomes free (transmission finished, IFG
        elapsed) after :meth:`wake_when_free` armed it for the current
        transmission; the owning port uses this to start the next frame.
        Assigned after construction because port and link reference each
        other.
    obs:
        Optional :class:`~repro.sim.trace.Observer` for ``link.*``
        milestones and wire spans.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan` asked once per
        arrival whether the frame is lost (:meth:`FaultPlan.drop_cause`):
        its targeted rules (frame classes, occurrences, time windows)
        and its ``corruption`` draw are the only way a wire drops a
        frame. The paper assumes error-free wires, so a link without a
        plan delivers everything.
    """

    def __init__(
        self,
        sim: Simulator,
        phy: PhyProfile,
        name: str,
        deliver: Callable[[EthernetFrame], None],
        obs: Observer | None = None,
        fault_plan=None,
    ) -> None:
        self._sim = sim
        self._phy = phy
        self.name = name
        self._deliver = deliver
        self.on_idle: Callable[[], None] | None = None
        self._obs = obs
        #: Time (ns) the wire becomes free; in the past when idle. A
        #: plain attribute (the port reads it per frame); only the link
        #: assigns it.
        self.busy_until = -1
        #: the current transmission's wire-free wakeup, reserved but not
        #: queued until :meth:`wake_when_free`.
        self._wake = Slot()
        #: frames on the wire or propagating, oldest first.
        self._in_flight: deque[EthernetFrame] = deque()
        # The two event actions, bound once rather than per frame.
        self._wire_free_action = self._wire_free
        self._arrive_action = self._arrive
        # Per-frame constants, built once: the two event labels, and
        # (wire bytes, transmission ns) memoised per payload size -- a
        # pure function of the PHY, since padding, framing overhead and
        # IFG depend on nothing else.
        self._idle_label = f"{name}:idle"
        self._deliver_label = f"{name}:deliver"
        self._timing: dict[int, tuple[int, int]] = {}
        self._fault_plan = fault_plan
        # statistics
        self.frames_carried = 0
        self.bytes_carried = 0
        self.busy_ns = 0
        #: every frame the fault plan dropped.
        self.frames_lost = 0
        #: subset of ``frames_lost`` dropped by a targeted rule (the
        #: rest were corrupted).
        self.frames_faulted = 0

    @property
    def busy(self) -> bool:
        """True while a frame is on the wire (or its IFG is running)."""
        return self._sim.now < self.busy_until

    def utilization(self) -> float:
        """Fraction of wall-clock the wire has been busy since time zero.

        ``busy_ns`` is a lifetime total; for a windowed measurement take
        a :meth:`busy_mark` at the window start and ask
        :meth:`utilization_since`.
        """
        if self._sim.now <= 0:
            return 0.0
        return min(1.0, self.busy_ns / self._sim.now)

    def busy_mark(self) -> tuple[int, int]:
        """Snapshot ``(now, busy_ns)`` to start a utilization window."""
        return (self._sim.now, self.busy_ns)

    def utilization_since(self, mark: tuple[int, int]) -> float:
        """Busy fraction since a :meth:`busy_mark` snapshot.

        Both the elapsed time and the busy time are differenced against
        the mark, so the result is exact for the window (transmissions
        crossing the window start are credited to their start instant,
        consistent with how ``busy_ns`` accrues).
        """
        mark_ns, mark_busy = mark
        elapsed = self._sim.now - mark_ns
        if elapsed <= 0:
            return 0.0
        return min(1.0, (self.busy_ns - mark_busy) / elapsed)

    def transmit(self, frame: EthernetFrame) -> int:
        """Put ``frame`` on the wire now. Returns the completion time (ns).

        Raises
        ------
        SimulationError
            if the wire is still busy -- the caller (output port) must
            serialize transmissions.
        """
        sim = self._sim
        now = sim.now
        if now < self.busy_until:
            raise SimulationError(
                f"link {self.name}: transmit while busy until "
                f"{self.busy_until} ns (now {now} ns); the output port must "
                "serialize frames"
            )
        timing = self._timing.get(frame.payload_bytes)
        if timing is None:
            timing = (frame.wire_size_bytes, self._phy.transmission_ns(frame))
            self._timing[frame.payload_bytes] = timing
        wire_bytes, tx = timing
        done = now + tx
        self.busy_until = done
        self.frames_carried += 1
        self.bytes_carried += wire_bytes
        self.busy_ns += tx
        sim.reserve(self._wake, done)
        arrival = done + self._phy.propagation_ns
        if self._obs is not None:
            self._obs.transmit(now, self.name, frame, tx, wire_bytes, arrival)
        self._in_flight.append(frame)
        sim.call_at(arrival, self._arrive_action, self._deliver_label)
        return done

    def wake_when_free(self) -> None:
        """Arm ``on_idle`` for when the current transmission frees the wire.

        Queues the wakeup into the place :meth:`transmit` reserved;
        arming it again for the same transmission does nothing.

        Raises
        ------
        SimulationError
            if the wire is idle -- there is no transmission to wait for.
        """
        if self._sim.now >= self.busy_until:
            raise SimulationError(
                f"link {self.name}: wake_when_free on an idle wire"
            )
        if self._wake.seq >= 0:
            self._sim.call_reserved(
                self._wake, self._wire_free_action, self._idle_label
            )

    def _wire_free(self) -> None:
        if self._obs is not None:
            self._obs.idle(self._sim.now, self.name)
        if self.on_idle is not None:
            self.on_idle()

    def _arrive(self) -> None:
        """The oldest frame in flight has fully arrived at the far end."""
        frame = self._in_flight.popleft()
        now = self._sim.now
        if self._fault_plan is not None:
            cause = self._fault_plan.drop_cause(self.name, frame, now)
            if cause is not None:
                self.frames_lost += 1
                if cause == "fault-plan":
                    self.frames_faulted += 1
                if self._obs is not None:
                    self._obs.lost(now, self.name, frame, cause)
                return
        if self._obs is not None:
            self._obs.arrived(now, self.name, frame)
        self._deliver(frame)
