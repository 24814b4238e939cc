"""Structured trace recording for simulations.

The validation experiments need to reconstruct per-frame timelines
(generated → queued → transmission start → delivered) to verify the
paper's Eq. 18.1 guarantee. Rather than sprinkling print statements,
every network component reports milestones to a :class:`TraceRecorder`;
recording is off by default and costs one predicate call per milestone
when disabled, so production benchmark runs pay almost nothing.

Records are plain tuples-with-names, filterable by category, and the
recorder can summarize itself for quick debugging.

Hot-path discipline
-------------------
Formatting a ``detail`` string is often more expensive than storing the
record, so instrumented call sites gate payload construction on
:meth:`TraceRecorder.enabled_for`::

    if trace.enabled_for("link.start"):
        trace.record(now, "link.start", frame.describe(), f"tx={tx}")

``enabled_for`` is a cheap predicate (one attribute read when tracing
is off), so a disabled recorder never pays for f-strings. The per-frame
components (links, ports, end nodes, the RT layer) go one step further:
they read :attr:`TraceRecorder.enabled` once at construction and test
that flag before calling ``enabled_for``. A recorder is therefore
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
from typing import Iterator, Mapping

__all__ = ["TraceRecord", "TraceRecorder"]


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
