"""The telemetry bundle: one object wiring registry, trace and probes.

:class:`Telemetry` is the facade experiments and the CLI deal with.
One instance owns

* a :class:`~repro.obs.registry.MetricsRegistry` (always on -- metrics
  are cheap enough to keep enabled),
* a structured :class:`~repro.sim.trace.TraceRecorder` (on by default
  in a bundle; capacity-capped),
* optionally a :class:`~repro.obs.profiling.KernelProfiler` and a
  :class:`~repro.obs.probes.ProbeSet` once a simulator is attached,

and knows how to instrument the repo's building blocks:
``attach_simulator`` for kernel counters/profiling,
``instrument_star`` for a fully built
:class:`~repro.network.topology.StarNetwork` (admission, signalling,
port, link and switch collectors, delay histograms, sim-time probes),
``track_admission`` for an admission controller (its verdict counts
and its feasibility cache's stats), and ``write`` to emit the bundle
directory::

    out/
      metrics.json       MetricsRegistry.snapshot()
      timeseries.json    probe samples (when probes ran)
      trace.jsonl        one structured record per line
      trace.chrome.json  Chrome trace_event JSON (open in Perfetto)

Everything here is pull-based, and this package is the only code that
builds or writes a metric: the model (admission controllers, the
switch's channel manager, end nodes, ports, links, caches, the kernel)
keeps its counts as plain fields, and collectors registered here read
them only when a snapshot is taken. The decision and data paths run no
telemetry code, whether or not a bundle is attached. The one
exception is the per-frame delay observer (the delay histogram and the
deadline-miss counter), which the metrics collector calls once per
delivered RT frame.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from ..core.admission import RejectionReason
from ..sim.kernel import Simulator
from ..sim.trace import TraceRecord, TraceRecorder
from .export import (
    chrome_trace,
    write_span_jsonl,
    write_trace_jsonl,
)
from .flight import FlightRecorder
from .monitor import InvariantMonitor, star_bound_provider
from .probes import ProbeSet
from .profiling import KernelProfiler
from .registry import MetricFamily, MetricsRegistry
from .spans import Span, SpanTracker

__all__ = ["TelemetryConfig", "Telemetry", "TelemetryShard"]

_CACHE_STAT_PREFIX = "feasibility_cache."

#: The counters a tracked admission controller feeds: name -> (help,
#: label names).
_ADMISSION_COUNTERS = {
    "admission.decisions": ("admission verdicts", ("verdict",)),
    "admission.rejections": ("rejections by reason", ("reason",)),
    "admission.batches": ("admit_many bursts processed", ()),
    "admission.batch_template_hits": (
        "burst-local repeat decisions served without re-assessment", (),
    ),
}


def _admission_counts(controller) -> dict[tuple[str, ...], int]:
    """A controller's published counts, keyed by ``(metric, *labels)``.

    Every verdict and every rejection reason has a key, zero or not;
    the ``feasibility_cache.*`` keys appear only when the controller
    decides through a cache.
    """
    counts = {
        ("admission.decisions", "accept"): controller.accept_count,
        ("admission.decisions", "reject"): controller.reject_count,
        ("admission.batches",): controller.batch_count,
        ("admission.batch_template_hits",): controller.batch_template_hits,
    }
    by_reason = controller.rejections_by_reason
    for reason in RejectionReason:
        counts["admission.rejections", reason.value] = by_reason.get(
            reason, 0
        )
    if controller.cache is not None:
        for key, value in controller.cache.stats.as_dict().items():
            counts[(_CACHE_STAT_PREFIX + key,)] = value
    return counts


def _counter_totals(family: MetricFamily):
    """``publish(total, *labels)``: raise one child of a counter family
    to a model's running total.

    Each call adds only what the previous calls have not published, so
    several sources feeding one child (two networks in one bundle) and
    counts merged in from worker shards add up, as counters do.
    """
    published: dict[tuple, int] = {}

    def publish(total: int, *labels) -> None:
        family.labels(*labels).inc(total - published.get(labels, 0))
        published[labels] = total

    return publish


@dataclass(frozen=True, slots=True)
class TelemetryConfig:
    """What a bundle collects (metrics are always on)."""

    #: Record structured trace events (frame lifecycle, signalling,
    #: admission verdicts). Costs memory proportional to the capacity.
    tracing: bool = True
    #: Ring-buffer cap on retained trace records (None = unbounded).
    trace_capacity: int | None = 200_000
    #: Sim-time probe cadence; None disables the periodic probes.
    probe_cadence_ns: int | None = 1_000_000
    #: Time every kernel event callback (adds ~2 clock reads/event).
    profile: bool = False
    #: Collect causal spans (per-request / per-channel latency
    #: attribution; see :mod:`repro.obs.spans`).
    spans: bool = False
    #: Ring-buffer cap on retained spans.
    span_capacity: int = 200_000
    #: Measure wall-clock admission compute into verdict spans. Off by
    #: default: wall times are non-deterministic, and deterministic
    #: merges (parallel sweeps) require byte-identical span streams.
    measure_compute: bool = False
    #: Run the online invariant monitor (delay bounds, overbooking,
    #: lease leaks; see :mod:`repro.obs.monitor`).
    monitor: bool = False
    #: Raise :class:`~repro.errors.InvariantViolation` on the first
    #: anomaly instead of only recording it.
    fail_fast: bool = False
    #: Span records retained per flight-recorder dump.
    flight_capacity: int = 2048
    #: Directory for automatic flight dumps (on the first anomaly and
    #: on a kernel crash). ``None`` disables automatic dumping; the
    #: recorder can still be dumped explicitly.
    flight_dir: str | None = None


@dataclass(frozen=True, slots=True)
class TelemetryShard:
    """One worker's telemetry, exported for merging into a parent bundle.

    The parallel sweep runner gives every worker process its own
    :class:`Telemetry`; a shard is the picklable summary the worker
    sends back: the registry snapshot plus the recorded trace. Absorbing
    every shard in deterministic (work-unit) order reproduces the exact
    bundle a serial run of the same sweep would have produced.
    """

    metrics: dict
    trace: tuple[TraceRecord, ...] = ()
    trace_dropped: int = 0
    #: causal spans recorded by the worker (IDs in worker-local space;
    #: :meth:`Telemetry.absorb_shard` re-bases them).
    spans: tuple[Span, ...] = ()
    #: span IDs the worker allocated (the merge offset advance).
    span_next_id: int = 0
    span_dropped: int = 0


class Telemetry:
    """One experiment's telemetry session."""

    def __init__(self, config: TelemetryConfig | None = None) -> None:
        self.config = config or TelemetryConfig()
        self.registry = MetricsRegistry()
        self.recorder = TraceRecorder(
            enabled=self.config.tracing,
            capacity=self.config.trace_capacity,
        )
        self.profiler: KernelProfiler | None = (
            KernelProfiler() if self.config.profile else None
        )
        self.probes: ProbeSet | None = None
        self.spans: SpanTracker | None = (
            SpanTracker(
                capacity=self.config.span_capacity,
                measure_compute=self.config.measure_compute,
            )
            if self.config.spans
            else None
        )
        self.monitor: InvariantMonitor | None = None
        self.flight: FlightRecorder | None = None
        if self.config.monitor or self.config.spans:
            self.flight = FlightRecorder(
                capacity=self.config.flight_capacity,
                span_provider=self._flight_spans,
                metrics_provider=self.snapshot,
                anomaly_provider=self._flight_anomalies,
            )
        if self.config.monitor:
            self.monitor = InvariantMonitor(
                fail_fast=self.config.fail_fast,
                flight=self.flight,
                flight_dir=self.config.flight_dir,
            )
        #: live tracked admission controllers, and the summed final
        #: counts of the retired ones.
        self._admissions: list = []
        self._admission_totals: dict[tuple[str, ...], int] = {}
        self._admission_collector_installed = False

    def _flight_spans(self) -> list[dict]:
        if self.spans is None:
            return []
        return [span.as_dict() for span in self.spans]

    def _flight_anomalies(self) -> list[dict]:
        if self.monitor is None:
            return []
        return list(self.monitor.anomalies)

    # -- wiring ----------------------------------------------------------

    def attach_simulator(self, sim: Simulator) -> None:
        """Hook kernel counters (and the profiler, if any) into the bundle."""
        if self.profiler is not None:
            sim.profiler = self.profiler
            self.profiler.publish(self.registry)
        if self.flight is not None and self.config.flight_dir is not None:
            flight = self.flight
            flight_dir = self.config.flight_dir

            def on_crash(exc: BaseException) -> None:
                flight.dump(
                    flight_dir,
                    reason=f"crash:{type(exc).__name__}",
                    time_ns=sim.now,
                )

            sim.on_crash = on_crash
        dispatched = self.registry.gauge(
            "kernel.dispatched_events",
            help="events the kernel has fired",
        ).labels()
        heap_max = self.registry.gauge(
            "kernel.max_heap_depth",
            help="event-queue high-water mark",
        ).labels()
        pending = self.registry.gauge(
            "kernel.pending_events",
            help="events still queued",
        ).labels()
        clock = self.registry.gauge(
            "kernel.now_ns", help="simulation clock",
        ).labels()

        def collect() -> None:
            dispatched.set(sim.dispatched_events)
            heap_max.set(sim.max_heap_depth)
            pending.set(sim.pending_events)
            clock.set(sim.now)

        self.registry.add_collector(collect)

    def track_admission(self, controller) -> None:
        """Publish an admission controller's counts and cache stats.

        The controller keeps its verdict counts, rejections by reason,
        ``admit_many`` bursts and template hits as plain ints, and its
        cache keeps :class:`~repro.core.feasibility_cache.CacheStats`.
        A snapshot-time collector sums them over every tracked
        controller into the ``admission.*`` counters and the
        ``feasibility_cache.*`` gauges, so a sweep's snapshot reports
        its total traffic. Hand a finished controller to
        :meth:`retire_admission`, or a long sweep retains one dead
        controller per (trial, scheme) and every snapshot re-reads all
        of them.
        """
        self._admissions.append(controller)
        if self._admission_collector_installed:
            return
        self._admission_collector_installed = True
        registry = self.registry
        publish = {
            name: _counter_totals(registry.counter(name, help_text, labels))
            for name, (help_text, labels) in _ADMISSION_COUNTERS.items()
        }

        def collect() -> None:
            totals = dict(self._admission_totals)
            for tracked in self._admissions:
                for key, value in _admission_counts(tracked).items():
                    totals[key] = totals.get(key, 0) + value
            for (name, *labels), value in totals.items():
                if name in publish:
                    publish[name](value, *labels)
                else:
                    registry.gauge(
                        name, help="summed over tracked caches",
                    ).labels().set(value)

        registry.add_collector(collect)

    def retire_admission(self, controller) -> None:
        """Fold a finished controller's counts into the totals and drop it.

        Idempotent: retiring a controller that was never tracked (or
        was already retired) is a no-op, so callers do not need to know
        whether telemetry saw it. The published values do not change --
        the final counts live on in the running totals -- but the
        bundle holds O(1) state however many controllers a sweep
        retires.
        """
        try:
            self._admissions.remove(controller)
        except ValueError:
            return
        totals = self._admission_totals
        for key, value in _admission_counts(controller).items():
            totals[key] = totals.get(key, 0) + value

    # -- parallel-sweep merging ------------------------------------------

    def export_shard(self) -> TelemetryShard:
        """Summarize this bundle for a parent process to absorb.

        Used by the parallel sweep runner: each worker snapshots its own
        registry (collectors run, so the retired controllers' totals and
        any live tracked ones are materialized) and ships the trace
        records it recorded.
        """
        tracker = self.spans
        return TelemetryShard(
            metrics=self.snapshot(),
            trace=tuple(self.recorder),
            trace_dropped=self.recorder.dropped,
            spans=() if tracker is None else tracker.spans,
            span_next_id=0 if tracker is None else tracker.next_id,
            span_dropped=0 if tracker is None else tracker.dropped,
        )

    def absorb_shard(self, shard: TelemetryShard) -> None:
        """Merge one worker's :class:`TelemetryShard` into this bundle.

        Counters/gauges/histograms fold via
        :meth:`~repro.obs.registry.MetricsRegistry.merge`; trace records
        append through the recorder (capacity and drop accounting apply
        exactly as if the events had been recorded here). Absorbing
        shards in work-unit order reproduces the serial bundle.
        """
        self.registry.merge(shard.metrics)
        self.recorder.extend(shard.trace, dropped=shard.trace_dropped)
        if self.spans is not None and shard.span_next_id:
            self.spans.absorb(
                shard.spans, shard.span_next_id, dropped=shard.span_dropped
            )

    def _delay_observer(self, sim, delay_help: str, miss_help: str):
        """The metrics collector's per-RT-frame delivery hook: the delay
        histogram, the miss counter and, when on, the monitor."""
        delay_hist = self.registry.histogram(
            "rt.frame_delay_ns", help=delay_help,
        ).labels()
        miss_counter = self.registry.counter(
            "rt.deadline_misses", labels=("channel",), help=miss_help,
        )
        monitor = self.monitor

        def observe_delay(
            channel_id: int, delay_ns: int, missed: bool
        ) -> None:
            delay_hist.observe(delay_ns)
            if missed:
                miss_counter.labels(channel_id).inc()
            if monitor is not None:
                monitor.on_rt_delivery(channel_id, delay_ns, missed, sim.now)

        return observe_delay

    def instrument_star(self, net) -> None:
        """Wire a built StarNetwork into this bundle.

        Called by :func:`~repro.network.topology.build_star` when a
        telemetry bundle is passed in; safe to call manually for
        hand-built networks. Registers snapshot-time collectors for the
        signalling counters of the switch's channel manager and the end
        nodes and for the switch/port/link statistics, tracks the
        admission controller, hooks the per-frame delay observer, and
        starts the sim-time probes.
        Trace records and spans are not wired here: they come from the
        :class:`~repro.sim.trace.Observer` the network was built with.
        """
        self.attach_simulator(net.sim)
        self.track_admission(net.admission)
        registry = self.registry
        net.metrics.delay_observer = self._delay_observer(
            net.sim,
            "end-to-end RT frame delay (Eq. 18.1 observable)",
            "frames delivered after d_i*slot + T_latency",
        )
        monitor = self.monitor
        if monitor is not None and monitor.bound_provider is None:
            monitor.bound_provider = star_bound_provider(net)

        switch_forwarded = registry.gauge(
            "switch.frames_forwarded",
        ).labels()
        switch_dropped = registry.gauge("switch.frames_dropped").labels()
        port_gauges = {
            name: registry.gauge("port." + name, labels=("port",))
            for name in (
                "rt_enqueued", "rt_transmitted", "be_enqueued",
                "be_transmitted", "be_dropped", "rt_link_deadline_misses",
                "rt_backlog_max", "be_backlog_max", "rt_queue_max_depth",
            )
        }
        link_gauges = {
            name: registry.gauge("link." + name, labels=("link",))
            for name in ("frames_carried", "bytes_carried", "busy_ns",
                         "frames_lost")
        }
        link_util = registry.gauge("link.utilization", labels=("link",))

        stale = _counter_totals(registry.counter(
            "signal.stale_frames",
            help="duplicate/stale signalling frames absorbed",
            labels=("site",),
        ))
        reclaims = _counter_totals(registry.counter(
            "signal.lease_reclaims",
            help="reservations reclaimed after lease expiry",
        ))
        duplicates = _counter_totals(registry.counter(
            "signal.duplicate_requests",
            help="retransmitted RequestFrames answered without "
            "re-running admission",
        ))
        retries = _counter_totals(registry.counter(
            "signal.retries",
            help="RequestFrame retransmissions",
            labels=("node",),
        ))
        manager = net.switch.manager

        def ports():
            for node in net.nodes.values():
                if node.uplink is not None:
                    yield node.uplink
            yield from net.switch.ports.values()

        def collect() -> None:
            stale(manager.stale_frames, "switch")
            stale(
                sum(node.signal_stale_frames for node in net.nodes.values()),
                "node",
            )
            reclaims(manager.lease_reclaims)
            duplicates(manager.duplicate_requests)
            for name, node in net.nodes.items():
                retries(node.signal_retries, name)
            switch_forwarded.set(net.switch.frames_forwarded)
            switch_dropped.set(net.switch.frames_dropped)
            for port in ports():
                stats = port.stats
                name = port.name
                for field in (
                    "rt_enqueued", "rt_transmitted", "be_enqueued",
                    "be_transmitted", "be_dropped",
                    "rt_link_deadline_misses", "rt_backlog_max",
                    "be_backlog_max",
                ):
                    port_gauges[field].labels(name).set(
                        getattr(stats, field)
                    )
                port_gauges["rt_queue_max_depth"].labels(name).set(
                    port.rt_queue_max_depth
                )
                link = port.link
                for field in ("frames_carried", "bytes_carried",
                              "busy_ns", "frames_lost"):
                    link_gauges[field].labels(link.name).set(
                        getattr(link, field)
                    )
                link_util.labels(link.name).set(link.utilization())

        registry.add_collector(collect)

        cadence = self.config.probe_cadence_ns
        if cadence is not None:
            probes = ProbeSet(net.sim, registry, cadence_ns=cadence)
            uplinks = [
                node.uplink for node in net.nodes.values()
                if node.uplink is not None
            ]
            downlinks = list(net.switch.ports.values())
            all_links = [p.link for p in uplinks] + [
                p.link for p in downlinks
            ]
            probes.add(
                "uplink_rt_backlog_frames",
                lambda: sum(p.rt_backlog for p in uplinks),
            )
            probes.add(
                "switch_rt_buffer_frames",
                lambda: sum(p.rt_backlog for p in downlinks),
            )
            probes.add(
                "switch_be_buffer_frames",
                lambda: sum(p.be_backlog for p in downlinks),
            )
            probes.add(
                "link_utilization_mean",
                lambda: (
                    sum(l.utilization() for l in all_links) / len(all_links)
                    if all_links else 0.0
                ),
            )
            probes.add(
                "kernel_pending_events",
                lambda: net.sim.pending_events,
            )
            probes.start()
            self.probes = probes

    def instrument_fabric(self, net) -> None:
        """Wire a built multi-switch :class:`FabricNetwork` in.

        Mirrors :meth:`instrument_star` for the extension data plane:
        kernel counters, the per-frame delay histogram + paper-bound
        monitor hook, and per-switch forwarding gauges. Netcalc bounds
        are per-topology; callers with a fabric bound provider can set
        ``monitor.bound_provider`` themselves.
        """
        self.attach_simulator(net.sim)
        registry = self.registry
        net.metrics.delay_observer = self._delay_observer(
            net.sim,
            "end-to-end RT frame delay (generalized Eq. 18.1)",
            "frames delivered after d_i*slot + T_latency(k)",
        )

        forwarded = registry.gauge(
            "fabric.frames_forwarded", labels=("switch",),
        )
        dropped = registry.gauge(
            "fabric.frames_dropped", labels=("switch",),
        )

        def collect() -> None:
            for name, switch in net.switches.items():
                forwarded.labels(name).set(switch.frames_forwarded)
                dropped.labels(name).set(switch.frames_dropped)

        registry.add_collector(collect)

    # -- output ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Collect and return the registry's JSON-serializable state."""
        return self.registry.snapshot()

    def write(self, directory: str | Path) -> dict[str, Path]:
        """Emit the bundle files; returns name -> written path."""
        if self.profiler is not None:
            self.profiler.stop()
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        written: dict[str, Path] = {}

        metrics_path = directory / "metrics.json"
        metrics_path.write_text(json.dumps(self.snapshot(), indent=1))
        written["metrics"] = metrics_path

        if self.probes is not None:
            series_path = directory / "timeseries.json"
            series_path.write_text(
                json.dumps(self.probes.to_dict(), indent=1)
            )
            written["timeseries"] = series_path

        if self.spans is not None:
            written["spans_jsonl"] = write_span_jsonl(
                self.spans, directory / "spans.jsonl"
            )
        if self.monitor is not None:
            anomalies_path = directory / "anomalies.jsonl"
            anomalies_path.write_text(
                "".join(
                    json.dumps(record, sort_keys=False, separators=(",", ":"))
                    + "\n"
                    for record in self.monitor.anomalies
                ),
                encoding="utf-8",
            )
            written["anomalies_jsonl"] = anomalies_path

        if self.recorder.enabled:
            written["trace_jsonl"] = write_trace_jsonl(
                self.recorder, directory / "trace.jsonl"
            )
            chrome_path = directory / "trace.chrome.json"
            chrome_path.write_text(
                json.dumps(
                    chrome_trace(
                        self.recorder,
                        spans=() if self.spans is None else self.spans,
                    ),
                    indent=1,
                )
            )
            written["trace_chrome"] = chrome_path
        return written
