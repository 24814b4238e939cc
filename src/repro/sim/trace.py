"""Structured trace recording for simulations.

The validation experiments need to reconstruct per-frame timelines
(generated → queued → transmission start → delivered) to verify the
paper's Eq. 18.1 guarantee. Rather than sprinkling print statements,
every network component reports milestones through an :class:`Observer`
to a :class:`TraceRecorder` (and to the causal spans, when a tracker is
attached); recording is off by default, and a run nothing observes pays
one ``is not None`` test per milestone, so production benchmark runs pay
almost nothing.

Records are plain tuples-with-names, filterable by category, and the
recorder can summarize itself for quick debugging.

Hot-path discipline
-------------------
The data-plane components (links, ports, end nodes, the RT layer, both
switch models) never touch the recorder. Each holds one ``obs`` hook,
an :class:`Observer` or ``None`` when nothing observes the run, and
reports every instrumented site with one guarded call that names what
happened::

    if self._obs is not None:
        self._obs.transmit(now, self.name, frame, tx, wire_bytes, arrival)

An untraced run therefore pays one ``is not None`` test per site and
never builds a ``detail`` string. Inside the call the observer asks
:meth:`TraceRecorder.enabled_for` before it formats a record, so a
category the recorder filters out costs no f-string either.
:meth:`Observer.of` is taken when a network is built, so a recorder is
configured when it is built and never switched on or off afterwards.

Structured payloads
-------------------
Beyond the free-form ``detail`` string, a record can carry ``fields``
-- a small dict of typed values (``{"duration_ns": 12000, "ch": 3}``).
The telemetry exporters (:mod:`repro.obs.export`) turn these into
Chrome-trace arguments and span durations; components that predate the
telemetry layer simply leave ``fields`` as ``None``.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Iterator, Mapping

__all__ = ["Observer", "TraceRecord", "TraceRecorder"]


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One milestone in a simulation.

    Attributes
    ----------
    time:
        Simulation time (ns) of the milestone.
    category:
        Dotted event kind, e.g. ``"frame.delivered"``, ``"edf.enqueue"``,
        ``"signal.request"``.
    subject:
        Identifier of the thing the record is about (usually a frame ID
        or channel ID rendered into the free-form text by the caller).
    detail:
        Free-form human-readable detail.
    fields:
        Optional typed payload for exporters. ``duration_ns`` is special:
        exporters render the record as a span of that length starting at
        ``time`` rather than an instant.
    """

    time: int
    category: str
    subject: str
    detail: str = ""
    fields: Mapping[str, object] | None = None


class TraceRecorder:
    """Collects :class:`TraceRecord` entries when enabled.

    Parameters
    ----------
    enabled:
        When False (the default), :meth:`record` is a cheap no-op.
    capacity:
        Optional cap on stored records; when exceeded, the *oldest*
        records are discarded (the most recent history is what one debugs
        with). ``None`` means unbounded. Backed by
        :class:`collections.deque` so eviction is O(1) per record.
    prefixes:
        Optional category filter: when given, only categories starting
        with one of these prefixes are stored (and ``enabled_for``
        reports False for the rest, so call sites skip formatting too).
    """

    def __init__(
        self,
        enabled: bool = False,
        capacity: int | None = None,
        prefixes: tuple[str, ...] | None = None,
    ) -> None:
        self.enabled = enabled
        self._capacity = capacity
        self._records: deque[TraceRecord] = deque(maxlen=capacity)
        self._dropped = 0
        self._prefixes = tuple(prefixes) if prefixes else None

    def enabled_for(self, category: str) -> bool:
        """True when a record of this category would be stored.

        Call sites use this to gate detail-string construction, so the
        check must stay cheap: one attribute read when disabled.
        """
        if not self.enabled:
            return False
        prefixes = self._prefixes
        return prefixes is None or category.startswith(prefixes)

    def record(
        self,
        time: int,
        category: str,
        subject: str,
        detail: str = "",
        fields: Mapping[str, object] | None = None,
    ) -> None:
        """Store one milestone (no-op when disabled or filtered out)."""
        if not self.enabled:
            return
        prefixes = self._prefixes
        if prefixes is not None and not category.startswith(prefixes):
            return
        records = self._records
        if records.maxlen is not None and len(records) == records.maxlen:
            self._dropped += 1
        records.append(
            TraceRecord(
                time=time,
                category=category,
                subject=subject,
                detail=detail,
                fields=fields,
            )
        )

    def extend(self, records, dropped: int = 0) -> None:
        """Append already-built records (merging a worker's recorder).

        Each record passes through :meth:`record`, so the enabled flag,
        the prefix filter and the capacity cap apply exactly as if the
        events had been recorded here; ``dropped`` adds the source
        recorder's own drop count so capacity losses in a worker stay
        visible after the merge.
        """
        for r in records:
            self.record(r.time, r.category, r.subject, r.detail, r.fields)
        if dropped:
            self._dropped += dropped

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    @property
    def capacity(self) -> int | None:
        return self._capacity

    @property
    def dropped(self) -> int:
        """Records discarded due to the capacity cap."""
        return self._dropped

    def by_category(self, category: str) -> list[TraceRecord]:
        """All stored records with exactly this category."""
        return [r for r in self._records if r.category == category]

    def by_prefix(self, prefix: str) -> list[TraceRecord]:
        """All stored records whose category starts with ``prefix``."""
        return [r for r in self._records if r.category.startswith(prefix)]

    def categories(self) -> dict[str, int]:
        """Histogram of stored record categories."""
        return dict(Counter(r.category for r in self._records))

    def clear(self) -> None:
        self._records.clear()
        self._dropped = 0

    def summary(self, limit: int = 10) -> str:
        """Multi-line human-readable digest (top categories by count)."""
        lines = [f"TraceRecorder: {len(self._records)} records"]
        if self._dropped:
            lines.append(f"  ({self._dropped} dropped by capacity cap)")
        for category, count in sorted(
            self.categories().items(), key=lambda kv: -kv[1]
        )[:limit]:
            lines.append(f"  {category:30s} {count}")
        return "\n".join(lines)


class Observer:
    """The one telemetry hook of the data plane: trace records and spans.

    Every instrumented data-plane site makes one call here that names
    what happened. The observer writes the site's trace record when the
    recorder takes its category, and updates the causal spans when a
    span tracker (a :class:`~repro.obs.spans.SpanTracker`, called by
    duck typing: this module imports nothing from :mod:`repro.obs`) is
    attached. Within one call the two keep the order the sites always
    had. A span context ``ctx`` is the ``(trace_id, parent_id)`` pair a
    signalling frame carries to its next hop; ``None`` when no tracker
    is attached or the frame belongs to no trace.
    """

    __slots__ = ("_record", "_takes", "_spans")

    def __init__(self, recorder: TraceRecorder, spans=None) -> None:
        self._record = recorder.record
        self._takes = recorder.enabled_for
        self._spans = spans

    @classmethod
    def of(cls, recorder: TraceRecorder, spans=None) -> Observer | None:
        """The run's observer, or ``None`` when nothing observes it."""
        if not recorder.enabled and spans is None:
            return None
        return cls(recorder, spans)

    def signal(
        self, category: str, now: int, subject: str, detail: str, fields
    ) -> None:
        """A signalling site that writes one record and touches no span."""
        if self._takes(category):
            self._record(now, category, subject, detail, fields)

    # -- output ports ------------------------------------------------------

    def enqueued(
        self, now: int, port: str, frame, depth: int,
        link_deadline_ns: int | None = None,
    ) -> None:
        """A frame joined a port's EDF queue (it has a link deadline) or
        its FCFS queue; ``depth`` counts that queue after the push."""
        if self._spans is not None:
            self._spans.frame_enqueued(frame.frame_id, now, port)
        if link_deadline_ns is None:
            if self._takes("port.be_enqueue"):
                self._record(now, "port.be_enqueue", port, frame.describe(),
                             {"depth": depth})
        elif self._takes("port.rt_enqueue"):
            self._record(now, "port.rt_enqueue", port, frame.describe(),
                         {"channel": frame.channel_id,
                          "link_deadline_ns": link_deadline_ns,
                          "depth": depth})

    def be_dropped(self, now: int, port: str, frame, total: int) -> None:
        """A port's full best-effort buffer dropped ``frame``."""
        if self._spans is not None:
            self._spans.frame_dropped(frame.frame_id, now, port)
        if self._takes("port.be_drop"):
            self._record(now, "port.be_drop", port, frame.describe(),
                         {"dropped_total": total})

    def dequeued(self, now: int, port: str, entry, wait_ns: int) -> None:
        """An RT frame left the EDF queue for the wire."""
        if self._takes("port.rt_dequeue"):
            self._record(now, "port.rt_dequeue", port,
                         entry.payload.describe(),
                         {"channel": entry.channel_id, "wait_ns": wait_ns,
                          "link_deadline_ns": entry.absolute_deadline})

    def missed(
        self, now: int, port: str, entry, completion: int, allowance: int
    ) -> None:
        """An RT frame completes after its link deadline plus allowance."""
        if self._takes("port.rt_miss"):
            deadline = entry.absolute_deadline
            self._record(now, "port.rt_miss", port,
                         f"{entry.payload.describe()} completion="
                         f"{completion} deadline={deadline}+{allowance}",
                         {"channel": entry.channel_id,
                          "completion_ns": completion,
                          "overrun_ns": completion - deadline - allowance})

    # -- links -------------------------------------------------------------

    def transmit(
        self, now: int, link: str, frame, tx_ns: int, wire_bytes: int,
        arrival: int,
    ) -> None:
        """A frame went on the wire; it arrives at ``arrival``."""
        if self._takes("link.start"):
            # duration_ns renders link.start as a span in the Chrome trace
            self._record(now, "link.start", link, frame.describe(),
                         {"duration_ns": tx_ns, "channel": frame.channel_id,
                          "bytes": wire_bytes})
        if self._spans is not None:
            self._spans.frame_transmit(frame.frame_id, now, arrival, link)

    def idle(self, now: int, link: str) -> None:
        """The wire became free and its armed wakeup fired (a port arms
        one only while a frame waits)."""
        if self._takes("link.idle"):
            self._record(now, "link.idle", link)

    def lost(self, now: int, link: str, frame, cause: str) -> None:
        """A frame died on the wire by ``"fault-plan"`` or by
        ``"corruption"``; a corruption record carries no fields."""
        if self._takes("link.lost"):
            self._record(now, "link.lost", link, frame.describe(),
                         {"cause": cause} if cause == "fault-plan" else None)
        if self._spans is not None:
            self._spans.frame_lost(frame.frame_id, now, link, cause)

    def arrived(self, now: int, link: str, frame) -> None:
        """A frame fully arrived at the far end of the wire."""
        if self._takes("link.deliver"):
            self._record(now, "link.deliver", link, frame.describe(),
                         {"channel": frame.channel_id})

    # -- the RT layer --------------------------------------------------------

    def emitted(
        self, release_ns: int, node: str, channel_id: int, seq: int,
        deadline_ns: int, uplink_deadline_ns: int, frames,
    ) -> None:
        """A message became ``frames`` (OutgoingFrames), each threaded
        into its channel's data-phase trace."""
        if self._takes("rt.emit"):
            self._record(release_ns, "rt.emit", node,
                         f"ch{channel_id} msg#{seq} x{len(frames)}",
                         {"channel": channel_id, "seq": seq,
                          "frames": len(frames), "deadline_ns": deadline_ns,
                          "uplink_deadline_ns": uplink_deadline_ns})
        spans = self._spans
        if spans is not None:
            root = spans.channel_root(channel_id, release_ns, node)
            for item in frames:
                spans.attach_frame(
                    item.frame.frame_id, root.trace_id, root.span_id
                )

    # -- switch models -------------------------------------------------------

    def processing(self, now: int, done: int, switch: str, frame) -> None:
        """A frame waits out a switch's processing delay until ``done``."""
        if self._spans is not None:
            self._spans.frame_processing(frame.frame_id, now, done, switch)

    def dropped(
        self, category: str, now: int, switch: str, frame, fields,
        detail: str | None = None,
    ) -> None:
        """A switch had nowhere to send ``frame``; the record's detail
        is the frame unless ``detail`` is given."""
        if self._spans is not None:
            self._spans.frame_dropped(frame.frame_id, now, switch)
        if self._takes(category):
            self._record(now, category, switch,
                         frame.describe() if detail is None else detail,
                         fields)

    def admitted(
        self, now: int, source: str, channel_id: int, destination: str,
        hops: int,
    ) -> None:
        """The fabric admitted a channel: its trace root and verdict."""
        spans = self._spans
        if spans is not None:
            root = spans.channel_root(channel_id, now, source)
            spans.event(root.trace_id, root.span_id, "admission", source,
                        now, {"verdict": "accept",
                              "destination": destination, "hops": hops})

    def handle_request(self, manager, request, now: int, switch: str, ctx):
        """``manager.handle_request`` plus its admission verdict event.

        The verdict goes on the request's trace when admission ran (a
        decision was appended); a retransmission answered from the
        pending-offer table or the verdict cache is a ``duplicate``.
        Wall-clock ``compute_ns`` is measured only when the tracker asks
        for it (it is not deterministic, so sweep runs keep it off).
        """
        spans = self._spans
        if spans is None:
            return manager.handle_request(request, now=now)
        before = len(manager.decisions)
        start = perf_counter_ns() if spans.measure_compute else -1
        actions = manager.handle_request(request, now=now)
        compute = perf_counter_ns() - start if start >= 0 else -1
        if ctx is not None:
            fields: dict = {"verdict": "duplicate"}
            if len(manager.decisions) > before:
                decision = manager.decisions[-1]
                fields["verdict"] = "accept" if decision.accepted else "reject"
                if not decision.accepted and decision.reason is not None:
                    fields["reason"] = decision.reason.name
                if compute >= 0:
                    fields["compute_ns"] = compute
            spans.event(ctx[0], ctx[1], "admission", switch, now, fields)
        return actions

    # -- end nodes -----------------------------------------------------------

    def delivered(self, now: int, node: str, frame) -> None:
        """A data frame reached its destination node."""
        if self._spans is not None:
            self._spans.frame_done(frame.frame_id)
        if self._takes("node.deliver"):
            self._record(now, "node.deliver", node, frame.describe(),
                         {"channel": frame.channel_id,
                          "delay_ns": now - frame.created_at})

    def received(self, frame):
        """A signalling frame reached its consumer; returns its ctx."""
        spans = self._spans
        if spans is None:
            return None
        ctx = spans.frame_context(frame.frame_id)
        spans.frame_done(frame.frame_id)
        return ctx

    def sent(self, frame, ctx) -> None:
        """A signalling frame leaves on the trace ``ctx`` names."""
        if ctx is not None:
            self._spans.attach_frame(frame.frame_id, ctx[0], ctx[1])

    # -- signalling ----------------------------------------------------------

    def request_sent(
        self, now: int, node: str, request_id: int, destination: str
    ):
        """A node opens a connection request; returns its ctx."""
        if self._spans is None:
            return None
        root = self._spans.begin_request(
            node, request_id, now,
            {"destination": destination, "request": request_id},
        )
        return root.trace_id, root.span_id

    def request_retried(
        self, now: int, node: str, request_id: int, attempt: int
    ):
        """A node retransmits a request; returns the request's ctx."""
        if self._takes("signal.retry"):
            self._record(now, "signal.retry", node,
                         f"req={request_id} attempt={attempt}",
                         {"request": request_id, "attempt": attempt})
        spans = self._spans
        root = None if spans is None else spans.request_root(node, request_id)
        if root is None:
            return None
        spans.event(root.trace_id, root.span_id, "retry", node, now,
                    {"attempt": attempt})
        return root.trace_id, root.span_id

    def request_ended(
        self, now: int, node: str, request_id: int, status: str
    ) -> None:
        """A request resolved: accepted, rejected or timed out."""
        if self._spans is not None:
            self._spans.end_request(node, request_id, now, status)

    def teardown_sent(self, now: int, node: str, channel_id: int):
        """A node starts releasing ``channel_id``; returns its ctx."""
        if self._spans is None:
            return None
        root = self._spans.begin_teardown(channel_id, node, now)
        return root.trace_id, root.span_id

    def teardown_ended(self, channel_id: int, now: int) -> None:
        """The switch released the channel a teardown named."""
        if self._spans is not None:
            self._spans.end_teardown(channel_id, now)

    def lease_armed(
        self, channel_id: int, ctx, now: int, expires_ns: int
    ) -> None:
        """The switch armed the reservation lease of a pending offer."""
        if ctx is not None:
            self._spans.lease_armed(
                channel_id, ctx[0], ctx[1], now, expires_ns
            )

    def lease_resolved(self, channel_id: int, now: int) -> None:
        """The destination's response resolved a pending offer."""
        if self._spans is not None:
            self._spans.lease_resolved(channel_id, now)

    def lease_reclaimed(self, now: int, switch: str, channel_id: int) -> None:
        """A lease expired and the switch reclaimed its reservation."""
        if self._spans is not None:
            self._spans.lease_reclaimed(channel_id, now)
        if self._takes("signal.lease_reclaim"):
            self._record(now, "signal.lease_reclaim", switch,
                         f"ch={channel_id}", {"channel": channel_id})
