"""Causal spans: per-request / per-channel latency attribution.

The telemetry of PR 3 answers *aggregate* questions (how many frames,
what histogram of delays). Spans answer the *per-flow* question the
paper's guarantee is actually about: where did connection request
``0x4A`` spend its 212 us, and which phase of the pipeline would have
to improve to get it closer to its bound?

A **trace** is the causal tree of one logical operation -- one
connection request (minted when the RequestFrame is built and threaded
through retransmissions, the switch lease, the admission verdict and
the final response), one RT channel's data phase (every frame's per-hop
transit), or one teardown. A **span** is one timed segment of that
tree, linked to its parent. Span IDs are allocated from a single
monotone counter so a merged parallel sweep reproduces the serial ID
stream exactly (see :meth:`SpanTracker.absorb`).

Everything here is simulator-time (integer ns) and fully deterministic:
no wall clock, no randomness. The one exception is the *admission
compute* attribution, which is a wall-time quantity by nature; call
sites only measure it when :attr:`SpanTracker.measure_compute` is set
(the CLI's ``repro spans`` does, the deterministic sweep runner never
does, keeping merged shards byte-identical).

The data plane reaches the tracker only through its one
:class:`~repro.sim.trace.Observer`, built with the network; a run
without telemetry has no observer, pays one ``is not None`` test per
site, and emits byte-identical traces and decision streams.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

__all__ = [
    "Span",
    "SpanTracker",
    "RequestAttribution",
    "summarize_requests",
    "span_from_dict",
    "ATTRIBUTED_PHASES",
]

#: Critical-path phases the attribution partitions a request into.
#: ``queue`` = time in an output-port queue, ``wire`` = transmission +
#: propagation, ``processing`` = store-and-forward delay inside a
#: switch, ``backoff`` = residual time explained only by waiting on a
#: retransmission timer after a control-frame loss. ``admission`` is
#: the verdict event (zero sim-time; its wall cost is reported
#: separately as ``admission_compute_ns``).
ATTRIBUTED_PHASES = ("queue", "wire", "processing", "backoff")


@dataclass(slots=True)
class Span:
    """One timed segment of a causal trace.

    ``end_ns == -1`` marks a span still open when the tracker was
    exported (e.g. a channel root that outlives the run). ``parent_id
    == -1`` marks a trace root; for roots, ``trace_id == span_id``.
    """

    span_id: int
    trace_id: int
    parent_id: int
    name: str
    subject: str
    start_ns: int
    end_ns: int = -1
    fields: dict | None = None

    def as_dict(self) -> dict:
        record = {
            "span": self.span_id,
            "trace": self.trace_id,
            "parent": self.parent_id,
            "name": self.name,
            "subject": self.subject,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
        }
        if self.fields is not None:
            record["fields"] = self.fields
        return record


def span_from_dict(record: dict) -> Span:
    """Rebuild a :class:`Span` from its :meth:`Span.as_dict` form (the
    ``spans.jsonl`` line format), so offline tools -- ``repro obs
    report``, notebook analysis -- can run the same attribution the
    live tracker supports."""
    return Span(
        span_id=record["span"],
        trace_id=record["trace"],
        parent_id=record["parent"],
        name=record["name"],
        subject=record["subject"],
        start_ns=record["start_ns"],
        end_ns=record["end_ns"],
        fields=record.get("fields"),
    )


class SpanTracker:
    """Mints, threads and stores causal spans.

    Parameters
    ----------
    capacity:
        Bounded retention; the oldest spans are dropped (and counted in
        :attr:`dropped`) once the limit is reached, like the trace
        recorder's deque.
    measure_compute:
        When True, call sites that decide admission wrap the decision
        in a wall-clock measurement and stamp ``compute_ns`` into the
        verdict span's fields. Off by default because wall times are
        not deterministic (merged parallel shards must stay
        byte-identical).
    """

    __slots__ = (
        "capacity",
        "dropped",
        "measure_compute",
        "_spans",
        "_next_id",
        "_frames",
        "_requests",
        "_channels",
        "_leases",
        "_teardowns",
    )

    def __init__(
        self, capacity: int = 200_000, *, measure_compute: bool = False
    ) -> None:
        self.capacity = capacity
        self.dropped = 0
        self.measure_compute = measure_compute
        self._spans: deque[Span] = deque()
        self._next_id = 0
        #: frame_id -> [trace_id, parent_id, queue_start, queue_subject]
        self._frames: dict[int, list] = {}
        self._requests: dict[tuple[str, int], Span] = {}
        self._channels: dict[int, Span] = {}
        self._leases: dict[int, Span] = {}
        self._teardowns: dict[int, Span] = {}

    # -- core allocation ---------------------------------------------------

    def _append(self, span: Span) -> Span:
        if len(self._spans) >= self.capacity:
            self._spans.popleft()
            self.dropped += 1
        self._spans.append(span)
        return span

    def begin_trace(
        self, name: str, subject: str, start_ns: int, fields: dict | None = None
    ) -> Span:
        """Open a new trace root (its span ID doubles as the trace ID)."""
        span_id = self._next_id
        self._next_id = span_id + 1
        return self._append(
            Span(span_id, span_id, -1, name, subject, start_ns, -1, fields)
        )

    def child(
        self,
        trace_id: int,
        parent_id: int,
        name: str,
        subject: str,
        start_ns: int,
        end_ns: int = -1,
        fields: dict | None = None,
    ) -> Span:
        """Record a child span (complete if ``end_ns`` is given)."""
        span_id = self._next_id
        self._next_id = span_id + 1
        return self._append(
            Span(span_id, trace_id, parent_id, name, subject, start_ns,
                 end_ns, fields)
        )

    def event(
        self,
        trace_id: int,
        parent_id: int,
        name: str,
        subject: str,
        time_ns: int,
        fields: dict | None = None,
    ) -> Span:
        """A zero-duration child span (verdicts, retries, losses)."""
        return self.child(
            trace_id, parent_id, name, subject, time_ns, time_ns, fields
        )

    # -- request lifecycle -------------------------------------------------

    def begin_request(
        self,
        node: str,
        connect_request_id: int,
        start_ns: int,
        fields: dict | None = None,
    ) -> Span:
        """Mint the trace for one connection request at its source."""
        root = self.begin_trace("signal.request", node, start_ns, fields)
        self._requests[(node, connect_request_id)] = root
        return root

    def request_root(self, node: str, connect_request_id: int) -> Span | None:
        return self._requests.get((node, connect_request_id))

    def end_request(
        self, node: str, connect_request_id: int, end_ns: int, status: str
    ) -> Span | None:
        """Close a request's root span with its resolution status."""
        root = self._requests.pop((node, connect_request_id), None)
        if root is not None:
            root.end_ns = end_ns
            if root.fields is None:
                root.fields = {"status": status}
            else:
                root.fields["status"] = status
        return root

    # -- channel data phase ------------------------------------------------

    def channel_root(
        self, channel_id: int, start_ns: int, subject: str
    ) -> Span:
        """The data-phase trace root of ``channel_id`` (lazily minted)."""
        root = self._channels.get(channel_id)
        if root is None:
            root = self.begin_trace(
                "channel", subject, start_ns, {"channel": channel_id}
            )
            self._channels[channel_id] = root
        return root

    # -- teardown ----------------------------------------------------------

    def begin_teardown(
        self, channel_id: int, subject: str, start_ns: int
    ) -> Span:
        root = self._teardowns.get(channel_id)
        if root is None:
            root = self.begin_trace(
                "teardown", subject, start_ns, {"channel": channel_id}
            )
            self._teardowns[channel_id] = root
        return root

    def teardown_root(self, channel_id: int) -> Span | None:
        return self._teardowns.get(channel_id)

    def end_teardown(self, channel_id: int, end_ns: int) -> None:
        """Close the teardown root at the switch's release (idempotent:
        repeated TeardownFrames land after the first one closed it)."""
        root = self._teardowns.get(channel_id)
        if root is not None and root.end_ns < 0:
            root.end_ns = end_ns

    # -- switch-side lease -------------------------------------------------

    def lease_armed(
        self,
        channel_id: int,
        trace_id: int,
        parent_id: int,
        start_ns: int,
        expires_ns: int,
    ) -> Span:
        span = self.child(
            trace_id, parent_id, "lease", "switch", start_ns, -1,
            {"channel": channel_id, "expires_ns": expires_ns},
        )
        self._leases[channel_id] = span
        return span

    def lease_resolved(self, channel_id: int, end_ns: int) -> None:
        span = self._leases.pop(channel_id, None)
        if span is not None:
            span.end_ns = end_ns
            span.fields["outcome"] = "resolved"

    def lease_reclaimed(self, channel_id: int, end_ns: int) -> None:
        span = self._leases.pop(channel_id, None)
        if span is not None:
            span.end_ns = end_ns
            span.fields["outcome"] = "reclaimed"

    # -- frame threading ---------------------------------------------------
    #
    # Frames are frozen, so the causal link rides this side table keyed
    # by the frame's debug ID (unique per network build). Entries are
    # popped at the frame's end of life (delivery, loss, buffer drop),
    # so the table is bounded by the number of frames in flight.

    def attach_frame(
        self, frame_id: int, trace_id: int, parent_id: int
    ) -> None:
        """Thread ``frame_id`` into a trace; its port/link/switch hops
        will be recorded as children of ``parent_id``."""
        self._frames[frame_id] = [trace_id, parent_id, -1, ""]

    def frame_context(self, frame_id: int) -> tuple[int, int] | None:
        """(trace_id, parent_id) of a threaded frame, else None."""
        ctx = self._frames.get(frame_id)
        if ctx is None:
            return None
        return ctx[0], ctx[1]

    def frame_enqueued(self, frame_id: int, now_ns: int, port: str) -> None:
        ctx = self._frames.get(frame_id)
        if ctx is not None:
            ctx[2] = now_ns
            ctx[3] = port

    def frame_transmit(
        self, frame_id: int, start_ns: int, arrival_ns: int, link: str
    ) -> None:
        """Record the wire hop (tx + propagation); closes any pending
        queue wait (zero waits are elided to keep span volume down --
        a zero-length span carries no attribution)."""
        ctx = self._frames.get(frame_id)
        if ctx is None:
            return
        queued = ctx[2]
        if queued >= 0:
            if start_ns > queued:
                self.child(ctx[0], ctx[1], "queue", ctx[3], queued, start_ns)
            ctx[2] = -1
        self.child(ctx[0], ctx[1], "wire", link, start_ns, arrival_ns)

    def frame_processing(
        self, frame_id: int, start_ns: int, end_ns: int, switch: str
    ) -> None:
        ctx = self._frames.get(frame_id)
        if ctx is not None:
            self.child(ctx[0], ctx[1], "processing", switch, start_ns, end_ns)

    def frame_lost(
        self, frame_id: int, now_ns: int, link: str, cause: str
    ) -> None:
        ctx = self._frames.pop(frame_id, None)
        if ctx is not None:
            self.event(
                ctx[0], ctx[1], "lost", link, now_ns, {"cause": cause}
            )

    def frame_dropped(self, frame_id: int, now_ns: int, port: str) -> None:
        ctx = self._frames.pop(frame_id, None)
        if ctx is not None:
            self.event(ctx[0], ctx[1], "dropped", port, now_ns)

    def frame_done(self, frame_id: int) -> None:
        """The frame reached its final consumer; release its context."""
        self._frames.pop(frame_id, None)

    # -- views and merge ---------------------------------------------------

    @property
    def spans(self) -> tuple[Span, ...]:
        return tuple(self._spans)

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self._spans)

    @property
    def next_id(self) -> int:
        """IDs allocated so far (the merge offset for :meth:`absorb`)."""
        return self._next_id

    def clear(self) -> None:
        self._spans.clear()
        self.dropped = 0
        self._next_id = 0
        self._frames.clear()
        self._requests.clear()
        self._channels.clear()
        self._leases.clear()
        self._teardowns.clear()

    def absorb(
        self, spans: Iterable[Span], next_id: int, dropped: int = 0
    ) -> None:
        """Merge a worker shard's spans, re-basing every ID.

        The worker allocated IDs ``0 .. next_id-1`` from its own
        counter; shifting them by this tracker's current counter
        reproduces exactly the IDs a serial run would have allocated
        (serial work units allocate contiguous blocks in unit order),
        so the merged span stream is byte-identical to the serial one
        at any worker count. Parent/child links shift together, so
        causality is preserved.
        """
        offset = self._next_id
        for span in spans:
            self._append(
                Span(
                    span.span_id + offset,
                    span.trace_id + offset,
                    span.parent_id + offset if span.parent_id >= 0 else -1,
                    span.name,
                    span.subject,
                    span.start_ns,
                    span.end_ns,
                    dict(span.fields) if span.fields is not None else None,
                )
            )
        self._next_id = offset + next_id
        self.dropped += dropped


@dataclass(frozen=True, slots=True)
class RequestAttribution:
    """Critical-path breakdown of one resolved connection request."""

    trace_id: int
    subject: str
    status: str
    start_ns: int
    end_ns: int
    queue_ns: int
    wire_ns: int
    processing_ns: int
    backoff_ns: int
    admission_events: int
    admission_compute_ns: int
    retries: int

    @property
    def total_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def attributed_ns(self) -> int:
        return self.queue_ns + self.wire_ns + self.processing_ns + self.backoff_ns

    @property
    def coverage(self) -> float:
        """Fraction of the end-to-end latency attributed to a named
        phase. 1.0 by construction unless a child span leaks outside
        its root (which would indicate a threading bug)."""
        total = self.total_ns
        if total <= 0:
            return 1.0
        return self.attributed_ns / total

    def as_dict(self) -> dict:
        return {
            "trace": self.trace_id,
            "subject": self.subject,
            "status": self.status,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "total_ns": self.total_ns,
            "queue_ns": self.queue_ns,
            "wire_ns": self.wire_ns,
            "processing_ns": self.processing_ns,
            "backoff_ns": self.backoff_ns,
            "admission_events": self.admission_events,
            "admission_compute_ns": self.admission_compute_ns,
            "retries": self.retries,
            "coverage": self.coverage,
        }


def summarize_requests(spans: Iterable[Span]) -> list[RequestAttribution]:
    """Attribute each resolved request's latency to named phases.

    The timed children (queue / wire / processing) of a request trace
    partition the handshake's critical path: every segment boundary in
    the simulated pipeline is contiguous (a frame is enqueued the
    instant it is created, transmitted the instant the wire frees,
    processed the instant it arrives), so on an error-free wire the
    union of the children covers the root exactly. Under loss, the
    *uncovered* remainder is precisely the time spent waiting on a
    retransmission timer -- reported as ``backoff``. Overlapping
    intervals (an original and a retransmission in flight at once) are
    attributed first-come-first-serve over a single sweep, so no
    nanosecond is counted twice and the phases always sum to the
    end-to-end latency.
    """
    roots: dict[int, Span] = {}
    children: dict[int, list[Span]] = {}
    admission: dict[int, list[Span]] = {}
    retries: dict[int, int] = {}
    for span in spans:
        if span.name == "signal.request" and span.parent_id < 0:
            if span.end_ns >= 0:
                roots[span.trace_id] = span
        elif span.name in ("queue", "wire", "processing"):
            children.setdefault(span.trace_id, []).append(span)
        elif span.name == "admission":
            admission.setdefault(span.trace_id, []).append(span)
        elif span.name == "retry":
            retries[span.trace_id] = retries.get(span.trace_id, 0) + 1

    out: list[RequestAttribution] = []
    for trace_id, root in roots.items():
        phases = {"queue": 0, "wire": 0, "processing": 0}
        intervals = sorted(
            (
                (max(s.start_ns, root.start_ns),
                 min(s.end_ns, root.end_ns), s.name, s.span_id)
                for s in children.get(trace_id, ())
                if s.end_ns >= 0
            ),
        )
        frontier = root.start_ns
        for start, end, name, _ in intervals:
            start = max(start, frontier)
            if end > start:
                phases[name] += end - start
                frontier = end
        backoff = (root.end_ns - root.start_ns) - sum(phases.values())
        verdicts = admission.get(trace_id, ())
        compute = sum(
            s.fields.get("compute_ns", 0)
            for s in verdicts
            if s.fields is not None
        )
        status = ""
        if root.fields is not None:
            status = root.fields.get("status", "")
        out.append(
            RequestAttribution(
                trace_id=trace_id,
                subject=root.subject,
                status=status,
                start_ns=root.start_ns,
                end_ns=root.end_ns,
                queue_ns=phases["queue"],
                wire_ns=phases["wire"],
                processing_ns=phases["processing"],
                backoff_ns=backoff,
                admission_events=len(verdicts),
                admission_compute_ns=compute,
                retries=retries.get(trace_id, 0),
            )
        )
    return out
