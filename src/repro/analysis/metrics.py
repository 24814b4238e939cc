"""Delivery metrics: the quantities the paper's guarantee speaks about.

Eq. 18.1 promises ``T_max_delay,i = d_i + T_latency`` for every message
on channel ``i``. The :class:`MetricsCollector` observes every RT frame
delivery and checks exactly that bound, per frame, plus per-link bounds
at the output ports. It also tracks best-effort goodput so the
coexistence experiment (EXP-B1) can show RT guarantees are unaffected by
saturating background traffic while best-effort still drains the
residual bandwidth.

All delay figures are integer nanoseconds; aggregation to float happens
only in the summary properties.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from ..errors import ConfigurationError
from ..protocol.ethernet import EthernetFrame, FrameKind

__all__ = ["ChannelDeliveryStats", "MetricsCollector"]


def _percentile_exact(ordered: list[int], p: float) -> int | float:
    """Exact linear-interpolation percentile over sorted integer samples.

    The rank ``p/100 * (n-1)`` is evaluated in :class:`~fractions.Fraction`
    arithmetic so no sample value passes through ``float64`` unless the
    rank genuinely falls between two order statistics; integral ranks
    (p0, p100, and exact hits) return the sample itself, untouched.
    """
    if not 0 <= p <= 100:
        raise ConfigurationError(
            f"percentile must be within [0, 100], got {p}"
        )
    n = len(ordered)
    if n == 1:
        return ordered[0]
    rank = Fraction(p) * (n - 1) / 100
    lower = int(rank)
    remainder = rank - lower
    if not remainder:
        return ordered[lower]
    low, high = ordered[lower], ordered[lower + 1]
    return float(low + (high - low) * remainder)


@dataclass(slots=True)
class ChannelDeliveryStats:
    """Per-channel delivery accounting.

    ``delays_ns`` holds one entry per delivered *frame* (a message of
    capacity ``C`` contributes ``C`` entries; the message is complete
    when its last fragment arrives, so the message-level delay is the
    maximum over its fragments -- tracked separately in
    ``message_complete_ns``).
    """

    channel_id: int
    frames_delivered: int = 0
    messages_completed: int = 0
    deadline_misses: int = 0
    worst_delay_ns: int = 0
    total_delay_ns: int = 0
    #: message_seq -> fragments seen so far (for completion detection)
    _fragments_seen: dict[int, int] = field(default_factory=dict)

    @property
    def mean_delay_ns(self) -> float:
        if self.frames_delivered == 0:
            return 0.0
        return self.total_delay_ns / self.frames_delivered

    @property
    def miss_ratio(self) -> float:
        if self.frames_delivered == 0:
            return 0.0
        return self.deadline_misses / self.frames_delivered


class MetricsCollector:
    """Network-wide observation point, shared by all end nodes.

    Parameters
    ----------
    t_latency_ns:
        The paper's ``T_latency`` constant for this network
        (:meth:`repro.network.phy.PhyProfile.t_latency_ns`). A delivered
        RT frame *misses* when
        ``delivery > created_at + d_i·slot + T_latency`` -- the
        end-to-end absolute deadline in the frame's header already
        equals ``created_at + d_i·slot``, so the check is
        ``delivery > header deadline + T_latency``.
    expected_fragments:
        Mapping channel ID -> capacity ``C`` (fragments per message),
        needed to detect message completion. Channels are registered as
        they are established via :meth:`register_channel`.
    """

    def __init__(
        self, t_latency_ns: int, record_delays: bool = False
    ) -> None:
        if t_latency_ns < 0:
            raise ConfigurationError(
                f"T_latency must be >= 0 ns, got {t_latency_ns}"
            )
        self.t_latency_ns = t_latency_ns
        #: when True, every per-frame delay is retained for percentile
        #: analysis (memory grows with traffic; off by default).
        self.record_delays = record_delays
        self._delay_samples: dict[int, list[int]] = {}
        self._channels: dict[int, ChannelDeliveryStats] = {}
        self._expected_fragments: dict[int, int] = {}
        # best-effort accounting
        self.be_frames_delivered = 0
        self.be_bytes_delivered = 0
        self.be_total_delay_ns = 0
        # signalling accounting
        self.signaling_frames_delivered = 0
        # per-channel uplink (first hop) response accounting, fed by the
        # uplink ports' completion callbacks: channel -> worst ns.
        self._uplink_worst_response: dict[int, int] = {}
        self.uplink_frames_completed = 0
        #: optional telemetry hook ``(channel_id, delay_ns, missed)``
        #: called on every RT delivery; the telemetry bundle points it at
        #: a registry histogram (see repro.obs.bundle).
        self.delay_observer: Callable[[int, int, bool], None] | None = None

    # -- registration ------------------------------------------------------

    def register_channel(self, channel_id: int, capacity: int) -> None:
        """Announce an established channel (capacity = fragments/message)."""
        if capacity <= 0:
            raise ConfigurationError(
                f"channel {channel_id} capacity must be positive, got {capacity}"
            )
        self._expected_fragments[channel_id] = capacity
        self._channels.setdefault(
            channel_id, ChannelDeliveryStats(channel_id=channel_id)
        )

    # -- observation --------------------------------------------------------

    def on_delivery(self, frame: EthernetFrame, now_ns: int) -> None:
        """Record the final delivery of any frame at its destination node."""
        if frame.kind is FrameKind.RT_DATA:
            self._on_rt_delivery(frame, now_ns)
        elif frame.kind is FrameKind.BEST_EFFORT:
            self.be_frames_delivered += 1
            self.be_bytes_delivered += frame.payload_bytes
            self.be_total_delay_ns += now_ns - frame.created_at
        else:
            self.signaling_frames_delivered += 1

    def _on_rt_delivery(self, frame: EthernetFrame, now_ns: int) -> None:
        stats = self._channels.get(frame.channel_id)
        if stats is None:
            stats = self._channels[frame.channel_id] = ChannelDeliveryStats(
                channel_id=frame.channel_id
            )
        delay = now_ns - frame.created_at
        stats.frames_delivered += 1
        stats.total_delay_ns += delay
        if self.record_delays:
            self._delay_samples.setdefault(frame.channel_id, []).append(delay)
        if delay > stats.worst_delay_ns:
            stats.worst_delay_ns = delay
        bound = frame.absolute_deadline + self.t_latency_ns
        missed = now_ns > bound
        if missed:
            stats.deadline_misses += 1
        if self.delay_observer is not None:
            self.delay_observer(frame.channel_id, delay, missed)
        expected = self._expected_fragments.get(frame.channel_id)
        if expected is not None:
            seen = stats._fragments_seen.get(frame.message_seq, 0) + 1
            if seen >= expected:
                stats._fragments_seen.pop(frame.message_seq, None)
                stats.messages_completed += 1
            else:
                stats._fragments_seen[frame.message_seq] = seen

    def on_uplink_complete(
        self, frame: EthernetFrame, completion_ns: int, deadline_ns: int
    ) -> None:
        """Record one RT frame finishing its *uplink* transmission.

        Wired as the uplink ports' ``on_rt_complete`` callback by the
        topology builder; enables the per-link delay decomposition of
        EXP-V2 (worst uplink response vs the ``d_iu`` budget).
        """
        del deadline_ns  # the port already accounts per-link misses
        self.uplink_frames_completed += 1
        response = completion_ns - frame.created_at
        current = self._uplink_worst_response.get(frame.channel_id, 0)
        if response > current:
            self._uplink_worst_response[frame.channel_id] = response

    def uplink_worst_response_ns(self, channel_id: int) -> int:
        """Worst observed first-hop response of ``channel_id`` (0 if none)."""
        return self._uplink_worst_response.get(channel_id, 0)

    # -- summaries ----------------------------------------------------------

    @property
    def channels(self) -> dict[int, ChannelDeliveryStats]:
        """Per-channel stats keyed by channel ID (live references)."""
        return self._channels

    @property
    def total_rt_frames(self) -> int:
        return sum(s.frames_delivered for s in self._channels.values())

    @property
    def total_rt_messages(self) -> int:
        return sum(s.messages_completed for s in self._channels.values())

    @property
    def total_deadline_misses(self) -> int:
        """End-to-end RT deadline misses across all channels."""
        return sum(s.deadline_misses for s in self._channels.values())

    @property
    def worst_rt_delay_ns(self) -> int:
        if not self._channels:
            return 0
        return max(s.worst_delay_ns for s in self._channels.values())

    @property
    def be_mean_delay_ns(self) -> float:
        if self.be_frames_delivered == 0:
            return 0.0
        return self.be_total_delay_ns / self.be_frames_delivered

    def delay_samples(self, channel_id: int | None = None) -> list[int]:
        """Raw per-frame delays (ns), in delivery order.

        ``channel_id=None`` pools every channel (delivery order within a
        channel is preserved; channels are concatenated in first-seen
        order). Requires ``record_delays=True``; an unknown or silent
        channel yields an empty list rather than an error -- campaigns
        compare sample *sets* against trace extraction, where "nothing
        delivered" is a legitimate outcome.
        """
        if not self.record_delays:
            raise ConfigurationError(
                "delay samples need record_delays=True at construction"
            )
        if channel_id is None:
            pooled: list[int] = []
            for values in self._delay_samples.values():
                pooled.extend(values)
            return pooled
        return list(self._delay_samples.get(channel_id, ()))

    def delay_percentiles(
        self, channel_id: int | None = None,
        percentiles: tuple[float, ...] = (50.0, 95.0, 99.0, 100.0),
    ) -> dict[float, float]:
        """Per-frame delay percentiles (requires ``record_delays=True``).

        ``channel_id=None`` pools the samples of every channel. The 100th
        percentile equals the observed worst case the guarantee bounds.

        Percentiles follow the linear-interpolation definition (the
        rank is ``p/100 * (n-1)``; an integral rank returns that order
        statistic, otherwise the two neighbours are interpolated) but
        are computed exactly in rational arithmetic rather than through
        ``float64``: delay samples are nanosecond integers, and a
        float64 round-trip silently corrupts values past 2**53 and can
        return a p100 that differs from ``max(delay_samples)`` in the
        last bits. Integral ranks -- p0, p100, and any percentile that
        lands on an order statistic -- are returned as the exact sample
        value; only genuinely interpolated results are floats.
        """
        if not self.record_delays:
            raise ConfigurationError(
                "delay percentiles need record_delays=True at construction"
            )
        if channel_id is None:
            samples: list[int] = []
            for values in self._delay_samples.values():
                samples.extend(values)
        else:
            samples = list(self._delay_samples.get(channel_id, ()))
        if not samples:
            raise ConfigurationError(
                f"no delay samples recorded for channel {channel_id!r}"
            )
        samples.sort()
        return {p: _percentile_exact(samples, p) for p in percentiles}

    def be_goodput_bps(self, elapsed_ns: int) -> float:
        """Best-effort goodput (payload bits per second) over ``elapsed_ns``."""
        if elapsed_ns <= 0:
            return 0.0
        return self.be_bytes_delivered * 8 / (elapsed_ns / 1_000_000_000)

    def summary(self) -> str:
        """Multi-line human-readable digest."""
        lines = [
            f"RT frames delivered : {self.total_rt_frames}",
            f"RT messages complete: {self.total_rt_messages}",
            f"RT deadline misses  : {self.total_deadline_misses}",
            f"worst RT delay      : {self.worst_rt_delay_ns} ns",
            f"BE frames delivered : {self.be_frames_delivered}",
            f"BE bytes delivered  : {self.be_bytes_delivered}",
        ]
        return "\n".join(lines)
