"""Shared experiment machinery: acceptance curves over request sequences.

The paper's headline metric is *accepted channels vs requested
channels*. Because admission is strictly incremental -- the decision on
request ``i`` depends only on requests ``1..i-1`` -- a whole acceptance
curve for one trial is computed in a single pass: feed the longest
request sequence once and record the running acceptance count at each
x-axis checkpoint. Both schemes see the *same* request sequence per
trial (paired comparison), which removes workload noise from the
SDPS-vs-ADPS contrast exactly like the paper's single-workload plot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from ..analysis.report import format_series_table
from ..analysis.stats import SeriesSummary, summarize
from ..core.admission import AdmissionController, SystemState
from ..core.partitioning import DeadlinePartitioningScheme
from ..errors import ConfigurationError
from ..sim.rng import RngRegistry
from ..traffic.patterns import ChannelRequest

__all__ = [
    "run_requests",
    "TraceLane",
    "SchemeCurve",
    "AcceptanceCurve",
    "acceptance_curve",
]

#: Builds a fresh DPS instance per trial (schemes may be stateful).
SchemeFactory = Callable[[], DeadlinePartitioningScheme]

#: Builds one trial's request sequence: (count, rng) -> requests.
RequestFactory = Callable[[int, np.random.Generator], list[ChannelRequest]]


#: Synthetic trace timeline for analytic (no data plane) admission runs:
#: request ``i`` is stamped at ``i`` microseconds so verdict streams are
#: browsable on the Chrome-trace timeline even without a simulator.
_ANALYTIC_TICK_NS = 1_000_000


@dataclass(frozen=True, slots=True)
class TraceLane:
    """Distinct trace identity of one (trial, scheme) run in a sweep.

    Without a lane, every run of a sweep stamps its ``admission.decision``
    events at the same synthetic timestamps (``offered`` ticks), so a
    20-trial two-scheme sweep collapses into one indistinguishable pile
    on the Perfetto timeline. A lane shifts the run by ``offset_ns``
    (sweeps space runs so their tick ranges never overlap) and tags each
    event's ``fields`` with the trial and scheme.
    """

    trial: int
    scheme: str
    offset_ns: int = 0


def run_requests(
    node_names: Sequence[str],
    requests: Sequence[ChannelRequest],
    dps: DeadlinePartitioningScheme,
    checkpoints: Sequence[int] | None = None,
    telemetry=None,
    lane: TraceLane | None = None,
) -> list[int]:
    """Feed ``requests`` to a fresh admission controller.

    Returns the running acceptance count at each checkpoint (after that
    many requests have been offered). With ``checkpoints=None`` a single
    final count is returned (as a one-element list). An optional
    :class:`~repro.obs.Telemetry` bundle collects verdict counters,
    feasibility-cache statistics and (when tracing is on) one
    ``admission.decision`` trace event per request; the controller's
    cache is retired into the bundle's running totals when the run
    completes, so sweeps do not accumulate dead caches. ``lane`` gives
    this run a distinct timeline in a multi-run sweep (see
    :class:`TraceLane`).

    Requests are decided by
    :meth:`~repro.core.admission.AdmissionController.admit_many`, one
    burst per inter-checkpoint segment, so sweeps benefit from the
    saturated-tail decision template and the once-per-burst counter
    flush. The counts, trace records and feasibility-cache counters
    equal those of a scalar ``request()`` loop -- the batch engine's
    stream equality plus checkpoint-aligned bursts.
    """
    if checkpoints is None:
        checkpoints = [len(requests)]
    checkpoints = sorted(set(checkpoints))
    if checkpoints and checkpoints[-1] > len(requests):
        raise ConfigurationError(
            f"checkpoint {checkpoints[-1]} exceeds the number of requests "
            f"({len(requests)})"
        )
    state = SystemState(nodes=node_names)
    controller = AdmissionController(
        state=state,
        dps=dps,
        metrics=None if telemetry is None else telemetry.registry,
    )
    recorder = None
    spans = None
    if telemetry is not None:
        telemetry.track_cache(controller.cache)
        if telemetry.recorder.enabled_for("admission.decision"):
            recorder = telemetry.recorder
        spans = telemetry.spans
    offset_ns = 0 if lane is None else lane.offset_ns
    root = None
    if spans is not None:
        if lane is None:
            subject, fields = "sweep", None
        else:
            subject = f"trial{lane.trial}:{lane.scheme}"
            fields = {"trial": lane.trial, "scheme": lane.scheme}
        root = spans.begin_trace("sweep.run", subject, offset_ns, fields)
    counts: list[int] = []
    next_checkpoint = 0
    while (
        next_checkpoint < len(checkpoints)
        and checkpoints[next_checkpoint] == 0
    ):
        counts.append(0)
        next_checkpoint += 1

    # Burst boundaries: one admit_many() per inter-checkpoint segment
    # (and a final tail segment past the last checkpoint), each with one
    # "admission" span.
    bounds = [c for c in checkpoints if c > 0]
    if not bounds or bounds[-1] < len(requests):
        bounds.append(len(requests))
    segment_ends = set(bounds)

    def decisions():
        # Counts are observed at exactly the controller states a scalar
        # loop would see, because the generator is lazy -- a checkpoint
        # is read after its segment's burst and before the next one
        # starts.
        start = 0
        for stop in bounds:
            if stop > start:
                yield from controller.admit_many(
                    (r.source, r.destination, r.spec)
                    for r in requests[start:stop]
                )
                start = stop

    accepted_running = 0
    segment_start = 0
    segment_accepted = 0
    for offered, (request, decision) in enumerate(
        zip(requests, decisions()), start=1
    ):
        if decision.accepted:
            accepted_running += 1
            segment_accepted += 1
        if recorder is not None:
            verdict = (
                "accept" if decision.accepted else decision.reason.value
            )
            fields = {
                "verdict": verdict,
                "accepted_so_far": accepted_running,
            }
            if lane is not None:
                fields["trial"] = lane.trial
                fields["scheme"] = lane.scheme
            recorder.record(
                offset_ns + offered * _ANALYTIC_TICK_NS,
                "admission.decision",
                request.source,
                f"{request.source}->{request.destination} {verdict}",
                fields=fields,
            )
        if offered in segment_ends:
            if root is not None:
                spans.child(
                    root.trace_id, root.span_id, "admission",
                    root.subject,
                    offset_ns + (segment_start + 1) * _ANALYTIC_TICK_NS,
                    offset_ns + offered * _ANALYTIC_TICK_NS,
                    {
                        "offered": offered - segment_start,
                        "accepted": segment_accepted,
                        "accepted_so_far": accepted_running,
                    },
                )
            segment_start = offered
            segment_accepted = 0
        while (
            next_checkpoint < len(checkpoints)
            and checkpoints[next_checkpoint] == offered
        ):
            counts.append(accepted_running)
            next_checkpoint += 1
    while next_checkpoint < len(checkpoints):  # checkpoint 0, or empty input
        counts.append(accepted_running)
        next_checkpoint += 1
    if root is not None:
        root.end_ns = offset_ns + len(requests) * _ANALYTIC_TICK_NS
        root.fields = dict(root.fields or {})
        root.fields["accepted"] = accepted_running
        root.fields["offered"] = len(requests)
    if telemetry is not None:
        telemetry.retire_cache(controller.cache)
    return counts


@dataclass(frozen=True, slots=True)
class SchemeCurve:
    """Acceptance statistics of one scheme across the x-axis."""

    scheme: str
    #: per-x summaries over trials
    summaries: tuple[SeriesSummary, ...]

    @property
    def means(self) -> list[float]:
        return [s.mean for s in self.summaries]

    @property
    def ci_half_widths(self) -> list[float]:
        return [s.ci_half_width for s in self.summaries]


@dataclass(frozen=True, slots=True)
class AcceptanceCurve:
    """A full accepted-vs-requested figure: several schemes, shared x."""

    requested: tuple[int, ...]
    curves: tuple[SchemeCurve, ...]
    trials: int
    seed: int

    def curve(self, scheme: str) -> SchemeCurve:
        for curve in self.curves:
            if curve.scheme == scheme:
                return curve
        raise ConfigurationError(
            f"no scheme {scheme!r} in this result "
            f"(have {[c.scheme for c in self.curves]})"
        )

    def to_table(self, title: str) -> str:
        """Render as the figure-as-a-table format the benches print."""
        series = {c.scheme: [round(m, 1) for m in c.means] for c in self.curves}
        return format_series_table(
            "requested", list(self.requested), series, title=title
        )


def trial_requests(
    request_factory: RequestFactory,
    seed: int,
    trial: int,
    max_count: int,
) -> list[ChannelRequest]:
    """One trial's request sequence -- a pure function of (seed, trial).

    Every sweep path (serial loop, parallel work unit) draws requests
    through this helper, so a (trial, scheme) unit regenerated in a
    worker process sees byte-for-byte the sequence the serial loop
    would have fed it.
    """
    rng = RngRegistry(seed).fork(trial).stream("requests")
    requests = request_factory(max_count, rng)
    if len(requests) != max_count:
        raise ConfigurationError(
            f"request factory produced {len(requests)} requests, "
            f"expected {max_count}"
        )
    return requests


def acceptance_curve(
    node_names: Sequence[str],
    request_factory: RequestFactory,
    schemes: Mapping[str, SchemeFactory],
    requested_counts: Sequence[int],
    trials: int,
    seed: int,
    telemetry=None,
    workers: int = 1,
) -> AcceptanceCurve:
    """Run the paired acceptance experiment.

    For each trial, one request sequence of length ``max(requested_counts)``
    is drawn from the trial's RNG stream and fed to every scheme;
    acceptance counts are read at each checkpoint. Results are
    summarized over trials per (scheme, x) pair.

    ``workers`` fans the (trial, scheme) work units across a process
    pool (see :mod:`repro.experiments.runner`): 1 (the default) runs
    today's in-process serial loop, 0 uses every available CPU, N > 1
    uses N processes. The returned curve -- and, with ``telemetry``, the
    merged metrics/trace bundle -- is identical at any worker count.
    """
    if trials <= 0:
        raise ConfigurationError(f"trials must be positive, got {trials}")
    counts = sorted(set(int(c) for c in requested_counts))
    if not counts or counts[0] < 0:
        raise ConfigurationError(
            f"requested_counts must be non-negative, got {requested_counts!r}"
        )
    from .runner import sweep_counts

    per_scheme = sweep_counts(
        node_names=node_names,
        request_factory=request_factory,
        schemes=schemes,
        checkpoints=counts,
        trials=trials,
        seed=seed,
        telemetry=telemetry,
        workers=workers,
    )
    curves = []
    for name in schemes:
        matrix = np.asarray(per_scheme[name], dtype=np.float64)
        summaries = tuple(
            summarize(matrix[:, i]) for i in range(len(counts))
        )
        curves.append(SchemeCurve(scheme=name, summaries=summaries))
    return AcceptanceCurve(
        requested=tuple(counts),
        curves=tuple(curves),
        trials=trials,
        seed=seed,
    )
