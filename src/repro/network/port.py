"""An output port: the dual-queue structure of Figure 18.2.

Every transmitter in the reproduced system -- an end node's uplink and
each switch port's downlink -- owns:

* a **deadline-sorted queue** for RT frames, served in EDF order, and
* a **FCFS queue** for best-effort and signalling frames,

with strict priority for the RT queue and non-preemptive service (a
started frame always finishes; Ethernet cannot abort mid-wire).

The port also performs the per-link deadline *accounting* used by the
validation experiments: when an RT frame finishes transmission, the
completion time is compared against the frame's per-link absolute
deadline plus the PHY allowance, and the result is reported to an
optional miss callback. Misses are recorded, not raised, so experiments
can count them; the strict wrapper in
:mod:`repro.experiments.validation` turns any miss into a hard failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..core.edf_queue import EDFQueue, FCFSQueue, QueuedFrame
from ..errors import SimulationError
from ..protocol.ethernet import EthernetFrame, FrameKind
from ..sim.kernel import Simulator
from ..sim.trace import TraceRecorder
from .link import HalfLink
from .phy import PhyProfile

__all__ = ["OutputPort", "PortStats"]


@dataclass(slots=True)
class PortStats:
    """Counters one output port maintains."""

    rt_enqueued: int = 0
    rt_transmitted: int = 0
    be_enqueued: int = 0
    be_transmitted: int = 0
    be_dropped: int = 0
    #: RT frames whose transmission completed after their per-link
    #: absolute deadline plus the PHY allowance.
    rt_link_deadline_misses: int = 0
    #: Sum of RT queueing delays (ns) for mean computation.
    rt_queueing_delay_total_ns: int = 0
    #: Worst single RT queueing delay (ns).
    rt_queueing_delay_max_ns: int = 0
    #: High-watermark of the RT (deadline-sorted) queue depth, in frames.
    #: Admission control implicitly bounds this: the backlog on a link
    #: never exceeds the outstanding demand, so the watermark certifies
    #: how much switch buffering the admitted set actually needs.
    rt_backlog_max: int = 0
    #: High-watermark of the best-effort queue depth, in frames.
    be_backlog_max: int = 0

    @property
    def rt_mean_queueing_delay_ns(self) -> float:
        if self.rt_transmitted == 0:
            return 0.0
        return self.rt_queueing_delay_total_ns / self.rt_transmitted


class OutputPort:
    """Dual-queue transmitter feeding one :class:`HalfLink`.

    Parameters
    ----------
    sim, phy, link:
        Kernel, timing profile and the wire this port feeds. The port
        installs itself as the link's ``on_idle`` callback.
    name:
        Diagnostic name.
    be_buffer_frames:
        Capacity of the best-effort queue (finite switch buffer);
        ``None`` = unbounded. RT frames are never dropped -- their
        buffer occupancy is bounded by admission control itself.
    on_rt_complete:
        Optional callback ``(frame, completion_ns, link_deadline_ns)``
        fired when an RT frame finishes transmission on this port; the
        metrics layer uses it for per-link latency statistics.
    trace:
        Optional trace recorder.
    """

    def __init__(
        self,
        sim: Simulator,
        phy: PhyProfile,
        link: HalfLink,
        name: str,
        be_buffer_frames: int | None = None,
        on_rt_complete: Callable[[EthernetFrame, int, int], None] | None = None,
        trace: TraceRecorder | None = None,
    ) -> None:
        self._sim = sim
        self._link = link
        self.name = name
        self._rt_queue: EDFQueue[EthernetFrame] = EDFQueue()
        self._be_queue: FCFSQueue[EthernetFrame] = FCFSQueue(
            capacity=be_buffer_frames
        )
        self._on_rt_complete = on_rt_complete
        self._trace = trace if trace is not None else TraceRecorder(enabled=False)
        #: optional :class:`~repro.obs.spans.SpanTracker` (set by the
        #: telemetry bundle); every hook is gated on ``is not None``.
        self.spans = None
        self.stats = PortStats()
        # Built once: the first-hop miss-check slack of every RT frame
        # submitted without its own allowance.
        self._link_allowance_ns = phy.per_link_allowance_ns()
        link.on_idle = self._pump

    # -- ingress ---------------------------------------------------------

    def submit_rt(
        self,
        frame: EthernetFrame,
        link_deadline_ns: int,
        allowance_ns: int | None = None,
    ) -> None:
        """Enqueue an RT frame with its *per-link* absolute deadline.

        ``link_deadline_ns`` is the EDF key on this link: on an uplink it
        is ``release + d_iu`` (the node's RT layer knows the partition);
        on a downlink it is the end-to-end deadline carried in the
        frame's mangled header (``release + d_i``).

        ``allowance_ns`` is the miss-accounting slack beyond the deadline
        for *this frame on this hop*. Non-preemption blocking cascades
        across hops: a frame blocked one slot on hop 1 arrives one slot
        late at hop 2 and may itself be blocked there again, so the
        hop-``j`` completion check must allow ``j`` frames of blocking
        plus the accumulated propagation/processing -- exactly the
        per-hop share of ``T_latency`` (Eq. 18.1). ``None`` uses the
        port's first-hop default.
        """
        if frame.kind is not FrameKind.RT_DATA:
            raise SimulationError(
                f"submit_rt received a {frame.kind.value} frame; only RT "
                "data frames enter the deadline-sorted queue"
            )
        # QueuedFrame(payload, absolute_deadline, enqueued_at, channel_id,
        # allowance_ns), positional: keywords double its per-frame cost.
        self._rt_queue.push(
            QueuedFrame(
                frame,
                link_deadline_ns,
                self._sim.now,
                frame.channel_id,
                -1 if allowance_ns is None else allowance_ns,
            )
        )
        self.stats.rt_enqueued += 1
        if len(self._rt_queue) > self.stats.rt_backlog_max:
            self.stats.rt_backlog_max = len(self._rt_queue)
        if self.spans is not None:
            self.spans.frame_enqueued(frame.frame_id, self._sim.now, self.name)
        if self._trace.enabled_for("port.rt_enqueue"):
            self._trace.record(
                self._sim.now,
                "port.rt_enqueue",
                self.name,
                frame.describe(),
                fields={
                    "channel": frame.channel_id,
                    "link_deadline_ns": link_deadline_ns,
                    "depth": len(self._rt_queue),
                },
            )
        self._pump()

    def submit_be(self, frame: EthernetFrame) -> bool:
        """Enqueue a best-effort or signalling frame (FCFS).

        Returns ``False`` when the finite buffer dropped the frame.
        """
        if frame.kind is FrameKind.RT_DATA:
            raise SimulationError(
                "RT data frames must use submit_rt with a link deadline"
            )
        accepted = self._be_queue.push(QueuedFrame(frame, 0, self._sim.now))
        if accepted:
            self.stats.be_enqueued += 1
            if len(self._be_queue) > self.stats.be_backlog_max:
                self.stats.be_backlog_max = len(self._be_queue)
            if self.spans is not None:
                self.spans.frame_enqueued(
                    frame.frame_id, self._sim.now, self.name
                )
            if self._trace.enabled_for("port.be_enqueue"):
                self._trace.record(
                    self._sim.now,
                    "port.be_enqueue",
                    self.name,
                    frame.describe(),
                    fields={"depth": len(self._be_queue)},
                )
            self._pump()
        else:
            self.stats.be_dropped += 1
            if self.spans is not None:
                self.spans.frame_dropped(
                    frame.frame_id, self._sim.now, self.name
                )
            if self._trace.enabled_for("port.be_drop"):
                self._trace.record(
                    self._sim.now,
                    "port.be_drop",
                    self.name,
                    frame.describe(),
                    fields={"dropped_total": self.stats.be_dropped},
                )
        return accepted

    # -- service ---------------------------------------------------------

    @property
    def link(self) -> HalfLink:
        """The wire this port feeds (read-only; for statistics)."""
        return self._link

    @property
    def backlog(self) -> int:
        """Total frames waiting (both queues)."""
        return len(self._rt_queue) + len(self._be_queue)

    @property
    def rt_backlog(self) -> int:
        return len(self._rt_queue)

    @property
    def be_backlog(self) -> int:
        return len(self._be_queue)

    @property
    def rt_queue_max_depth(self) -> int:
        """High-watermark of the deadline-sorted queue (frames)."""
        return self._rt_queue.max_depth

    def _pump(self) -> None:
        """Start the next transmission if the wire is free (strict RT priority)."""
        if self._link.busy:
            return
        if self._rt_queue:
            entry = self._rt_queue.pop()
            self._start_rt(entry)
        elif self._be_queue:
            entry = self._be_queue.pop()
            self._start_be(entry)

    def _start_rt(self, entry: QueuedFrame[EthernetFrame]) -> None:
        now = self._sim.now
        delay = now - entry.enqueued_at
        self.stats.rt_queueing_delay_total_ns += delay
        if delay > self.stats.rt_queueing_delay_max_ns:
            self.stats.rt_queueing_delay_max_ns = delay
        if self._trace.enabled_for("port.rt_dequeue"):
            self._trace.record(
                now,
                "port.rt_dequeue",
                self.name,
                entry.payload.describe(),
                fields={
                    "channel": entry.channel_id,
                    "wait_ns": delay,
                    "link_deadline_ns": entry.absolute_deadline,
                },
            )
        completion = self._link.transmit(entry.payload)
        self.stats.rt_transmitted += 1
        allowance = (
            entry.allowance_ns
            if entry.allowance_ns >= 0
            else self._link_allowance_ns
        )
        if completion > entry.absolute_deadline + allowance:
            self.stats.rt_link_deadline_misses += 1
            if self._trace.enabled_for("port.rt_miss"):
                self._trace.record(
                    now,
                    "port.rt_miss",
                    self.name,
                    f"{entry.payload.describe()} completion={completion} "
                    f"deadline={entry.absolute_deadline}+{allowance}",
                    fields={
                        "channel": entry.channel_id,
                        "completion_ns": completion,
                        "overrun_ns": completion
                        - entry.absolute_deadline
                        - allowance,
                    },
                )
        if self._on_rt_complete is not None:
            self._on_rt_complete(
                entry.payload, completion, entry.absolute_deadline
            )

    def _start_be(self, entry: QueuedFrame[EthernetFrame]) -> None:
        self._link.transmit(entry.payload)
        self.stats.be_transmitted += 1
