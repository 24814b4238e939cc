"""EXP-O2: metrics overhead on the admission hot path.

The telemetry design claims metrics are *cheap enough to stay enabled
in benchmarks*. The admission controller keeps its verdict counts as
plain ints and :meth:`~repro.obs.Telemetry.track_admission` reads them
only at snapshot time, so the decision path runs no telemetry code at
all, tracked or not. This benchmark holds the claim to a number on the
reproduction's hottest loop -- the Figure 18.5 admission sweep (200
requests x 5 trials) -- by timing the identical cached sweep bare and
with every controller tracked by a bundle (tracing off, which is the
always-on configuration the claim is about).

Asserted, not just printed:

* **determinism** -- both sides produce the identical decision stream
  (instrumentation must never change outcomes),
* **overhead** -- the tracked sweep takes at most 10% longer than the
  bare sweep (the two now run the same code; the ceiling dates from
  pre-bound per-decision counter increments, measured at ~2-4% on a
  quiet machine), and
* **counts** -- the snapshot's ``admission.decisions`` total is every
  decision the tracked sweeps made.

Both overhead gates here (EXP-O2 and EXP-O4 below) estimate the ratio
as the median of per-pair ratios over :data:`_PAIRS` alternating pairs
(:func:`_paired_overhead`). A 20-30 ms sweep is short enough that one
slow repeat on a shared host used to move a best-of-5 estimate past
the 5% ceiling.

Run with ``-s`` to see the timing table.
"""

from __future__ import annotations

import gc
import statistics
import time

from repro.analysis.report import format_table
from repro.core.admission import AdmissionController, SystemState
from repro.core.partitioning import SymmetricDPS
from repro.experiments.admission_perf import (
    AdmissionPerfConfig,
    _request_sequences,
)
from repro.obs import Telemetry, TelemetryConfig

#: Maximum instrumented/bare ratio (EXP-O2 acceptance threshold).
_OVERHEAD_CEILING = 1.10

#: Alternating (base, instrumented) pairs behind each overhead estimate.
_PAIRS = 15


def _paired_overhead(base, instrumented, pairs=_PAIRS):
    """Median instrumented/base time ratio over alternating pairs.

    ``base`` and ``instrumented`` each run one timed sweep and return
    ``(elapsed_s, outcome)``. Pair ``i`` runs the base side first when
    ``i`` is even and the instrumented side first when it is odd, so
    neither side always runs first; GC is paused throughout. Each ratio
    compares two sweeps run back to back, so slow drift of the host
    cancels within a pair, and the median ignores the odd pair a noisy
    neighbour disturbed.

    Returns ``(ratio, base_s, inst_s, base_outcome, inst_outcome)``:
    the median ratio, the median time of each side, and each side's
    last outcome.
    """
    ratios: list[float] = []
    base_times: list[float] = []
    inst_times: list[float] = []
    base_outcome = inst_outcome = None
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for i in range(pairs):
            if i % 2 == 0:
                base_s, base_outcome = base()
                inst_s, inst_outcome = instrumented()
            else:
                inst_s, inst_outcome = instrumented()
                base_s, base_outcome = base()
            base_times.append(base_s)
            inst_times.append(inst_s)
            ratios.append(inst_s / base_s if base_s else 1.0)
    finally:
        if gc_was_enabled:
            gc.enable()
    return (
        statistics.median(ratios),
        statistics.median(base_times),
        statistics.median(inst_times),
        base_outcome,
        inst_outcome,
    )


def _one_sweep(nodes, sequences, telemetry):
    """One cached admission sweep; returns (elapsed_s, decision stream).

    Controller construction and tracking happen outside the timed
    region; only the admission decisions are on the clock (mirroring
    ``admission_perf._run_side``).
    """
    decisions: list[bool] = []
    elapsed = 0.0
    for requests in sequences:
        controller = AdmissionController(
            SystemState(nodes=nodes), SymmetricDPS(), use_cache=True,
        )
        if telemetry is not None:
            telemetry.track_admission(controller)
        start = time.perf_counter()
        for request in requests:
            decision = controller.request(
                request.source, request.destination, request.spec
            )
            decisions.append(decision.accepted)
        elapsed += time.perf_counter() - start
    return elapsed, decisions


def test_bench_metrics_overhead_under_ceiling(capsys):
    """Enabled metrics cost < 10% on the Fig. 18.5 sweep at 200 requests."""
    config = AdmissionPerfConfig(requests=200, trials=5)
    nodes, sequences = _request_sequences(config)

    telemetry = Telemetry(TelemetryConfig(tracing=False))
    overhead, bare_s, inst_s, bare_decisions, inst_decisions = (
        _paired_overhead(
            lambda: _one_sweep(nodes, sequences, None),
            lambda: _one_sweep(nodes, sequences, telemetry),
        )
    )

    with capsys.disabled():
        print()
        print(format_table(
            ["side", "median ms", "decisions", "accepts"],
            [
                ["bare", f"{bare_s * 1000:.1f}", len(bare_decisions),
                 sum(bare_decisions)],
                ["metrics on", f"{inst_s * 1000:.1f}", len(inst_decisions),
                 sum(inst_decisions)],
                ["overhead", f"{(overhead - 1) * 100:+.1f}%", "", ""],
            ],
            title="EXP-O2: metrics overhead -- Fig. 18.5 sweep, 200 "
                  f"requests, median of {_PAIRS} pair ratios",
        ))

    assert inst_decisions == bare_decisions, (
        "tracking the controllers changed admission decisions"
    )
    assert overhead <= _OVERHEAD_CEILING, (
        f"metrics overhead {overhead:.3f}x exceeds the "
        f"{_OVERHEAD_CEILING}x ceiling (median of {_PAIRS} pair ratios; "
        f"median bare {bare_s * 1000:.1f} ms, instrumented "
        f"{inst_s * 1000:.1f} ms)"
    )

    # the instrumented side actually recorded what it claims to record
    flat = telemetry.snapshot()
    verdicts = flat["admission.decisions"]["series"]
    counted = sum(s["value"] for s in verdicts)
    assert counted == len(inst_decisions) * _PAIRS


#: Maximum (spans+monitor)/(metrics-only) ratio (EXP-O4 acceptance).
_SPAN_OVERHEAD_CEILING = 1.05


def _one_sweep_run_requests(nodes, sequences, telemetry):
    """One pass of the Fig. 18.5 sweep through ``run_requests`` (the
    production hot path: admit_many bursts, span/monitor hooks live)."""
    from repro.experiments.base import run_requests

    elapsed = 0.0
    counts: list[int] = []
    for requests in sequences:
        start = time.perf_counter()
        counts.extend(
            run_requests(nodes, requests, SymmetricDPS(), telemetry=telemetry)
        )
        elapsed += time.perf_counter() - start
    return elapsed, counts


def test_bench_spans_monitor_overhead_under_ceiling(capsys, bench_record):
    """Spans + invariant monitor cost <= 5% over metrics-only (EXP-O4).

    Both sides run with telemetry attached; the delta isolates exactly
    what the observability PR added to the hot path -- the per-burst
    span emission and the monitor's (idle, on this workload) hooks.
    Median of alternating pair ratios, GC paused, the same estimator as
    the metrics gate above. Decision parity is asserted: attribution
    must never change outcomes.
    """
    config = AdmissionPerfConfig(requests=200, trials=5)
    nodes, sequences = _request_sequences(config)

    overhead, base_s, inst_s, base_counts, inst_counts = _paired_overhead(
        lambda: _one_sweep_run_requests(
            nodes, sequences, Telemetry(TelemetryConfig(tracing=False))
        ),
        lambda: _one_sweep_run_requests(
            nodes, sequences,
            Telemetry(TelemetryConfig(
                tracing=False, spans=True, monitor=True
            )),
        ),
    )
    total_decisions = config.requests * config.trials

    with capsys.disabled():
        print()
        print(format_table(
            ["side", "median ms", "final counts"],
            [
                ["metrics only", f"{base_s * 1000:.1f}", str(base_counts)],
                ["spans+monitor", f"{inst_s * 1000:.1f}", str(inst_counts)],
                ["overhead", f"{(overhead - 1) * 100:+.1f}%", ""],
            ],
            title="EXP-O4: span+monitor overhead -- Fig. 18.5 sweep, "
                  f"median of {_PAIRS} pair ratios",
        ))
    bench_record(
        throughput=total_decisions / inst_s if inst_s else 0.0,
        overhead_pct=(overhead - 1) * 100,
    )

    assert inst_counts == base_counts, (
        "enabling spans+monitor changed acceptance counts"
    )
    assert overhead <= _SPAN_OVERHEAD_CEILING, (
        f"span+monitor overhead {overhead:.3f}x exceeds the "
        f"{_SPAN_OVERHEAD_CEILING}x ceiling (median of {_PAIRS} pair "
        f"ratios; median metrics-only {base_s * 1000:.1f} ms, "
        f"spans+monitor {inst_s * 1000:.1f} ms)"
    )


def test_bench_spans_disabled_byte_identical():
    """With spans/monitor off, nothing observable changes (EXP-O4).

    The zero-cost claim, held to bytes: a telemetry bundle with the
    span tracker and monitor DISABLED must produce the identical
    decision stream and the identical ``trace.jsonl`` byte stream as a
    bundle with them ENABLED -- spans ride a separate stream and the
    hooks never influence simulation behaviour -- and, a fortiori, as
    the pre-observability code path.
    """
    from repro.experiments.validation import run_validation
    from repro.obs import trace_jsonl_lines

    def run(spans: bool):
        telemetry = Telemetry(TelemetryConfig(
            spans=spans, monitor=spans, probe_cadence_ns=None,
        ))
        report = run_validation(
            n_masters=3, n_slaves=6, n_requests=16, hyperperiods=1,
            seed=55, use_wire_handshake=True, telemetry=telemetry,
        )
        trace = "\n".join(trace_jsonl_lines(telemetry.recorder))
        return report, trace, telemetry

    report_off, trace_off, tel_off = run(False)
    report_on, trace_on, tel_on = run(True)

    assert tel_off.spans is None and tel_on.spans is not None
    assert trace_on == trace_off, (
        "enabling spans+monitor changed the trace byte stream"
    )
    assert report_on.summary() == report_off.summary()
    assert len(tel_on.spans) > 0  # the enabled side did record spans
