"""A zero-dependency metrics registry: counters, gauges, histograms.

The observability layer's contract is *cheap enough to stay enabled in
benchmarks*. The model keeps its own counts as plain fields, and
*collectors* read them at snapshot time, so most metrics cost the
decision and data paths nothing. Pre-bound children remain only for
per-event observations, which have no model field to read: the
``rt.frame_delay_ns`` histogram and the ``rt.deadline_misses`` counter
behind the per-frame delay observer. There, an observation is one
attribute add on a pre-bound child object, and everything heavier
(label resolution, snapshotting) happens off the hot path.

Model
-----
A *family* is a named metric with a fixed tuple of label names
(``("link",)``, ``("scheme", "reason")``, ...). ``family.labels(...)``
resolves one combination of label values to a *child* -- the object that
actually carries the number(s) -- and memoizes it, so call sites resolve
once and then increment through the child reference:

>>> registry = MetricsRegistry()
>>> accepts = registry.counter("admission.accepts", labels=("scheme",))
>>> sdps = accepts.labels("sdps")
>>> sdps.inc()
>>> registry.snapshot()["admission.accepts"]["series"][0]["value"]
1

Families with no labels expose the single child's methods directly
(``family.inc()``, ``family.set()``, ``family.observe()``), so simple
metrics need no ceremony.

*Collectors* are zero-argument callables run at snapshot time; they let
subsystems with their own private counters (admission verdicts,
signalling retries, the feasibility cache, port and link stats)
surface current values with zero hot-path cost. Only :mod:`repro.obs`
builds families or registers collectors.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Iterator, Mapping, Sequence

from ..errors import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_NS",
]

#: Default fixed buckets for nanosecond latency histograms: a geometric
#: ladder from 1 us to ~1 s (frame delays in the reproduced network live
#: in the 100 us .. 10 ms decades; the tails catch pathologies).
DEFAULT_LATENCY_BUCKETS_NS: tuple[int, ...] = tuple(
    1_000 * (4**k) for k in range(11)
)


class Counter:
    """Monotone event count. One labeled child of a counter family."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the count."""
        if amount < 0:
            raise ConfigurationError(
                f"counters only go up; cannot add {amount}"
            )
        self.value += amount

    def to_dict(self) -> dict:
        return {"value": self.value}


class Gauge:
    """A value that goes up and down (queue depth, utilization, ...)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def inc(self, amount=1) -> None:
        self.value += amount

    def dec(self, amount=1) -> None:
        self.value -= amount

    def set_max(self, value) -> None:
        """Keep the maximum of the current and the offered value
        (high-water-mark tracking)."""
        if value > self.value:
            self.value = value

    def to_dict(self) -> dict:
        return {"value": self.value}


class Histogram:
    """Fixed-bucket histogram with exact count/sum/min/max sidecars.

    ``buckets`` are the inclusive upper edges, strictly ascending; one
    implicit overflow bucket catches everything beyond the last edge.
    An observation lands in the first bucket whose edge is ``>= value``
    (``bisect_left``, so an observation exactly on an edge counts into
    that edge's bucket).
    """

    __slots__ = ("uppers", "bucket_counts", "count", "total", "min", "max")

    def __init__(self, buckets: Sequence[int | float]) -> None:
        uppers = tuple(buckets)
        if not uppers:
            raise ConfigurationError("a histogram needs at least one bucket")
        if any(b >= a for b, a in zip(uppers, uppers[1:])):
            raise ConfigurationError(
                f"histogram bucket edges must be strictly ascending: {uppers}"
            )
        self.uppers = uppers
        self.bucket_counts = [0] * (len(uppers) + 1)
        self.count = 0
        self.total = 0
        self.min: int | float | None = None
        self.max: int | float | None = None

    def observe(self, value) -> None:
        self.bucket_counts[bisect_left(self.uppers, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        buckets = [
            {"le": upper, "count": count}
            for upper, count in zip(self.uppers, self.bucket_counts)
        ]
        buckets.append({"le": "+Inf", "count": self.bucket_counts[-1]})
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": buckets,
        }


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One named metric and its labeled children.

    Constructed through the registry, never directly. Children are
    memoized by their label-value tuple; resolving the same combination
    twice returns the identical object, so call sites can pre-bind.
    """

    __slots__ = ("name", "kind", "help", "label_names", "_children", "_make")

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        label_names: tuple[str, ...],
        make: Callable[[], Counter | Gauge | Histogram],
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = label_names
        self._children: dict[tuple, Counter | Gauge | Histogram] = {}
        self._make = make

    def labels(self, *values) -> Counter | Gauge | Histogram:
        """The child for this combination of label values (memoized).

        Values are positional, in the order the label names were
        declared; each is coerced to ``str`` so numeric IDs label
        naturally.
        """
        if len(values) != len(self.label_names):
            raise ConfigurationError(
                f"metric {self.name!r} takes {len(self.label_names)} label "
                f"value(s) {self.label_names}, got {len(values)}"
            )
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            child = self._make()
            self._children[key] = child
        return child

    # unlabeled convenience: family.inc() / set() / observe() hit the
    # single default child directly.

    def inc(self, amount: int = 1) -> None:
        self.labels().inc(amount)

    def set(self, value) -> None:
        self.labels().set(value)

    def set_max(self, value) -> None:
        self.labels().set_max(value)

    def observe(self, value) -> None:
        self.labels().observe(value)

    @property
    def value(self):
        """Value of the unlabeled default child (counters/gauges)."""
        return self.labels().value

    def children(self) -> Iterator[tuple[tuple[str, ...], object]]:
        return iter(sorted(self._children.items()))

    def to_dict(self) -> dict:
        series = [
            {"labels": dict(zip(self.label_names, key)), **child.to_dict()}
            for key, child in sorted(self._children.items())
        ]
        return {
            "type": self.kind,
            "help": self.help,
            "label_names": list(self.label_names),
            "series": series,
        }


class MetricsRegistry:
    """Named families plus snapshot-time collectors.

    Registration is idempotent: asking for an existing name with the
    same kind and label names returns the existing family (so components
    can register their metrics independently); a kind or label mismatch
    is a configuration error.
    """

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}
        self._collectors: list[Callable[[], None]] = []

    # -- registration ----------------------------------------------------

    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        labels: Sequence[str],
        make: Callable[[], object],
    ) -> MetricFamily:
        if not name:
            raise ConfigurationError("metric name must be non-empty")
        label_names = tuple(labels)
        existing = self._families.get(name)
        if existing is not None:
            if existing.kind != kind or existing.label_names != label_names:
                raise ConfigurationError(
                    f"metric {name!r} already registered as {existing.kind} "
                    f"with labels {existing.label_names}, cannot re-register "
                    f"as {kind} with labels {label_names}"
                )
            return existing
        family = MetricFamily(name, kind, help, label_names, make)
        self._families[name] = family
        return family

    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        return self._family(name, "counter", help, labels, Counter)

    def gauge(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        return self._family(name, "gauge", help, labels, Gauge)

    def histogram(
        self,
        name: str,
        buckets: Sequence[int | float] = DEFAULT_LATENCY_BUCKETS_NS,
        help: str = "",
        labels: Sequence[str] = (),
    ) -> MetricFamily:
        edges = tuple(buckets)
        Histogram(edges)  # validate the edges eagerly, not on first child
        return self._family(
            name, "histogram", help, labels, lambda: Histogram(edges)
        )

    def add_collector(self, collector: Callable[[], None]) -> None:
        """Run ``collector`` before every snapshot (derived metrics)."""
        self._collectors.append(collector)

    # -- access ----------------------------------------------------------

    def get(self, name: str) -> MetricFamily:
        family = self._families.get(name)
        if family is None:
            raise ConfigurationError(f"no metric named {name!r}")
        return family

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def __iter__(self) -> Iterator[MetricFamily]:
        return iter(
            family for _, family in sorted(self._families.items())
        )

    def __len__(self) -> int:
        return len(self._families)

    # -- export ----------------------------------------------------------

    def collect(self) -> None:
        """Run every registered collector (refresh derived gauges)."""
        for collector in self._collectors:
            collector()

    def snapshot(self) -> dict[str, dict]:
        """JSON-serializable view of every family (collectors run first)."""
        self.collect()
        return {
            name: family.to_dict()
            for name, family in sorted(self._families.items())
        }

    def value_of(self, name: str, *label_values) -> object:
        """Shortcut: current value of one child (tests, assertions)."""
        return self.get(name).labels(*label_values).value

    # -- merging ---------------------------------------------------------

    def merge(self, snapshot: Mapping[str, Mapping]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Built for combining per-worker registries of one sharded sweep:
        every numeric series is a disjoint piece of the same logical
        total, so the merge is additive across the board --

        * **counters** add their counts;
        * **gauges** add their values (worker gauges hold per-shard
          totals, e.g. summed feasibility-cache counters);
        * **histograms** add per-bucket counts, ``count`` and ``sum``,
          and fold ``min``/``max``.

        Families and children absent here are created with the
        snapshot's kind, help text and label names (histograms reuse the
        snapshot's bucket edges), so merging into an empty registry
        reproduces the source snapshot exactly. A kind or label mismatch
        with an existing family is a :class:`ConfigurationError`, as in
        normal registration.
        """
        for name, family_dict in snapshot.items():
            kind = family_dict["type"]
            help_text = family_dict.get("help", "")
            label_names = tuple(family_dict.get("label_names", ()))
            series = family_dict.get("series", [])
            if kind == "counter":
                family = self.counter(name, help_text, label_names)
            elif kind == "gauge":
                family = self.gauge(name, help_text, label_names)
            elif kind == "histogram":
                edges = DEFAULT_LATENCY_BUCKETS_NS
                if series:
                    edges = tuple(
                        bucket["le"]
                        for bucket in series[0]["buckets"]
                        if bucket["le"] != "+Inf"
                    )
                family = self.histogram(name, edges, help_text, label_names)
            else:
                raise ConfigurationError(
                    f"cannot merge metric {name!r} of unknown kind {kind!r}"
                )
            for entry in series:
                labels = entry.get("labels", {})
                values = tuple(labels[key] for key in label_names)
                child = family.labels(*values)
                if kind == "counter":
                    child.inc(entry["value"])
                elif kind == "gauge":
                    child.inc(entry["value"])
                else:
                    self._merge_histogram(name, child, entry)

    @staticmethod
    def _merge_histogram(name: str, child: Histogram, entry: Mapping) -> None:
        edges = tuple(
            bucket["le"] for bucket in entry["buckets"]
            if bucket["le"] != "+Inf"
        )
        if edges != child.uppers:
            raise ConfigurationError(
                f"histogram {name!r} bucket edges differ: have "
                f"{child.uppers}, merging {edges}"
            )
        for i, bucket in enumerate(entry["buckets"]):
            child.bucket_counts[i] += bucket["count"]
        child.count += entry["count"]
        child.total += entry["sum"]
        for side, fold in (("min", min), ("max", max)):
            incoming = entry.get(side)
            if incoming is None:
                continue
            current = getattr(child, side)
            setattr(
                child, side,
                incoming if current is None else fold(current, incoming),
            )
