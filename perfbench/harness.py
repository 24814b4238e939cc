"""One pass of one workload in the current process: timed or traced.

The timed pass measures the end-to-end metrics with tracing off. The
traced pass runs its first :data:`TRACED_ROUNDS` rounds twice -- plain,
then with every ``repro`` function wrapped by
:class:`~perfbench.tracer.Tracer` -- and turns the difference into the
per-layer ledger.

Host time is normalised to a reference host speed. On a shared host
the same round can take 1.6 times longer while another tenant competes
for the core, in episodes of seconds to a minute. Right before and
right after each timed region the harness times a fixed pure-Python
kernel, the *yardstick*, and scales the region's time by
``YARDSTICK_REF_MS / yardstick time``. A round that ran while the host
was slow is scaled down by about as much as the host slowed it; on an
idle host of the reference machine the factor is about 1. The raw
times and the factors are kept in the report.
"""

from __future__ import annotations

import gc
import gzip
import json
import resource
import statistics
from heapq import heappop, heappush
from pathlib import Path
from time import perf_counter_ns

from .tracer import LAYERS, Tracer
from .workloads import RoundResult, Workload

__all__ = ["timed_pass", "traced_pass", "yardstick_ms"]

#: Fresh set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 11
#: Rounds the traced pass runs (each twice).
TRACED_ROUNDS = 5
#: Items the yardstick kernel pushes through its heap.
YARDSTICK_ITEMS = 2000
#: The yardstick's time, in ms, on the reference host when no other
#: tenant competes for the core (a 2-vCPU Intel Xeon VM at 2.1 GHz,
#: CPython 3.11.7; quiet periods there read 6.5-6.7 ms).
YARDSTICK_REF_MS = 6.5

#: Sites whose per-call durations the traced pass keeps.
SAMPLED_SITES = (
    "repro.core.admission:AdmissionController.request",
    "repro.core.feasibility:is_feasible",
    "repro.service.intent:SharedLinkFabric.take_checkpoint",
    "repro.service.service:AdmissionService.take_checkpoint",
)


class _Item:
    __slots__ = ("key", "name", "parts")

    def __init__(self, key: int, name: str, parts: list) -> None:
        self.key = key
        self.name = name
        self.parts = parts


def yardstick_ms() -> float:
    """Time of a fixed kernel shaped like the workloads' host work:
    slotted objects through a heap, string-keyed dicts, integer math."""
    began = perf_counter_ns()
    heap, table = [], {}
    for i in range(YARDSTICK_ITEMS):
        item = _Item(i * 7919 % 10007, f"k{i % 1021}", [i, i * 3])
        heappush(heap, (item.key, i, item))
        table[item.name] = item
    acc = 0
    while heap:
        key, _, item = heappop(heap)
        acc += key * key % 7 + item.parts[1] % 5
        if table.get(item.name) is item:
            acc += 1
    for i in range(30 * YARDSTICK_ITEMS):
        acc += i * i % 7
    return (perf_counter_ns() - began) / 1e6


def _probe_ms() -> float:
    """The host's current speed, as a yardstick time: the faster of two
    runs, with the collector paused so the kernel cannot end up timing
    a collection of what the workload left behind."""
    gc.disable()
    try:
        return min(yardstick_ms(), yardstick_ms())
    finally:
        gc.enable()


def _measure(fn, *args):
    """``(fn(*args), host ns, host-speed factor)``; the timed region
    starts on a collected heap."""
    before = _probe_ms()
    gc.collect()
    began = perf_counter_ns()
    result = fn(*args)
    wall = perf_counter_ns() - began
    after = _probe_ms()
    return result, wall, 2 * YARDSTICK_REF_MS / (before + after)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _spread(values, unit: str, scale: float = 1.0) -> dict:
    """Median of ``values`` with its quartiles and sample count."""
    values = [v * scale for v in values]
    if len(values) > 1:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return {"value": q2, "unit": unit, "q1": q1, "q3": q3, "n": len(values)}


def _percentile(ordered: list, p: float, unit: str, scale: float) -> dict:
    """Nearest-rank percentile, with the samples at or beyond it."""
    rank = int(max(1, -(-len(ordered) * p // 100)))
    return {
        "value": ordered[rank - 1] * scale,
        "unit": unit,
        "n": len(ordered),
        "beyond": len(ordered) - rank + 1,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _one_round(workload: Workload, r: int) -> RoundResult:
    inputs = workload.prepare(r)
    outcome, wall, scale = _measure(workload.run, inputs)
    result = workload.settle(inputs, outcome)
    result.wall_ns, result.scale = wall, scale
    return result


def _ledger_counts(rounds: list[RoundResult], extra_failures=()) -> dict:
    failures = list(extra_failures)
    warnings = []
    failed = 0
    for r, result in enumerate(rounds):
        if result.failures:
            failed += result.ops
            failures += [f"round {r}: {f}" for f in result.failures]
        warnings += [f"round {r}: {w}" for w in result.warnings]
    return {
        "rounds": len(rounds),
        "attempted": sum(r.ops for r in rounds),
        "failed": failed,
        "failures": failures[:50],
        "warnings": warnings[:50],
        "round_walls_ms": [r.wall_ns / 1e6 for r in rounds],
        "round_host_factors": [r.scale for r in rounds],
    }


def _host_speed(rounds: list[RoundResult]) -> float:
    """Yardstick items per second, median over the rounds."""
    return _median([
        YARDSTICK_ITEMS * 1e3 * r.scale / YARDSTICK_REF_MS for r in rounds
    ])


def _workload_rates(rounds: list[RoundResult]) -> dict:
    """Workload-specific end-to-end rates, zero where they do not apply."""
    def busy_s(r):
        return r.counters.get("run_ns", r.wall_ns) * r.scale / 1e9

    frames = [r.counters["frames"] / busy_s(r)
              for r in rounds if "frames" in r.counters]
    sim_rate = [r.counters["sim_ns"] / 1e6 / busy_s(r)
                for r in rounds if "sim_ns" in r.counters]
    commits = sorted(ns for r in rounds
                     for ns in r.counters.get("commit_ns", ()))
    out = {
        "frames_per_s": _median(frames),
        "sim_ms_per_wall_s": _median(sim_rate),
        "commit_ratio": _ratio(
            sum(r.counters.get("commits", 0) for r in rounds),
            sum(r.counters.get("fabric_arrivals", 0) for r in rounds),
        ),
        "commit_p50_ms": 0.0,
        "commit_p99_ms": 0.0,
    }
    for p in (50, 99):
        if commits:
            out[f"commit_p{p}_ms"] = _percentile(commits, p, "ms",
                                                 1e-6)["value"]
    return out


def timed_pass(workload_cls: type[Workload], seed: int,
               import_s: float) -> dict:
    """Set-up repeats, then the workload's fixed number of rounds."""
    setups = [_measure(workload_cls(seed).prepare, 0)[1:]
              for _ in range(SETUP_REPEATS)]
    workload = workload_cls(seed)
    rounds = [_one_round(workload, r) for r in range(workload.rounds)]
    ops = sorted(ns * r.scale for r in rounds for ns in r.op_ns)
    metrics = {
        "setup_s": _spread([wall * scale for wall, scale in setups], "s",
                           1e-9),
        "round_ms": _spread([r.wall_ns * r.scale for r in rounds], "ms",
                            1e-6),
        "decisions_per_s": _spread([
            r.decisions * 1e9 / ((r.decide_ns or r.wall_ns) * r.scale)
            for r in rounds
        ], "1/s"),
        "op_p50_us": _percentile(ops, 50, "us", 1e-3),
        "op_p90_us": _percentile(ops, 90, "us", 1e-3),
        "op_p99_us": _percentile(ops, 99, "us", 1e-3),
        "accept_ratio": {
            "value": _ratio(sum(r.accepted for r in rounds),
                            sum(r.offered for r in rounds)),
            "unit": "ratio",
            "deterministic": True,
        },
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024,
            "unit": "MB",
        },
    }
    return {
        "pass": "untraced",
        **_ledger_counts(rounds),
        "import_s": import_s,
        "calib_ops_per_s": _host_speed(rounds),
        "setup_raw_s": [wall / 1e9 for wall, _ in setups],
        "metrics": metrics,
        "rates": _workload_rates(rounds),
    }


def _sampled(key: str) -> bool:
    return key in SAMPLED_SITES


def _encoder(key: str) -> bool:
    return key.startswith("repro.protocol.") and key.endswith(".encode")


def traced_pass(workload_cls: type[Workload], seed: int, import_s: float,
                spans_path: Path | None = None) -> dict:
    """Plain rounds, then the same rounds traced; the per-layer ledger."""
    workload = workload_cls(seed)
    plain = [_one_round(workload, r) for r in range(TRACED_ROUNDS)]
    del workload

    tracer = Tracer()
    tracer.calibrate()
    noop_ns = tracer.per_call_ns
    traced: list[RoundResult] = []
    windows = []
    spans: list[dict] = []
    tracer.install(sample=_sampled, sized=_encoder)
    try:
        workload = workload_cls(seed)
        for r in range(TRACED_ROUNDS):
            inputs = workload.prepare(r)
            tracer.recording[0] = [] if r == 0 else None
            before = tracer.snapshot()
            outcome, wall, scale = _measure(workload.run, inputs)
            windows.append((before, tracer.snapshot()))
            if r == 0:
                spans = tracer.span_records(r)
                tracer.recording[0] = None
            result = workload.settle(inputs, outcome)
            result.wall_ns, result.scale = wall, scale
            traced.append(result)
        del workload, inputs, outcome
    finally:
        tracer.uninstall()

    mismatches = [
        f"round {r}: traced run diverged from the untraced run"
        for r, (a, b) in enumerate(zip(plain, traced)) if a.facts != b.facts
    ]
    calls = [sum(after["calls"]) - sum(before["calls"])
             for before, after in windows]
    # What a wrapped call really costs: traced minus plain time of the
    # same round, the plain time taken at the traced round's host speed.
    tracer.rescale(_median([
        (t.wall_ns - p.wall_ns * p.scale / t.scale) / n
        for p, t, n in zip(plain, traced, calls) if n
    ]))
    per_round = [tracer.layer_totals(b, a) for b, a in windows]
    coverage = [
        _ratio(sum(row[1] for row in totals.values()),
               t.wall_ns - n * tracer.per_call_ns)
        for totals, t, n in zip(per_round, traced, calls)
    ]
    metrics = _layer_metrics(tracer, windows, per_round, plain, traced)
    metrics.update({
        "bench.coverage": {"value": _median(coverage), "unit": "ratio"},
        "bench.trace_overhead_pct": {
            "value": 100 * (_median([t.wall_ns * t.scale for t in traced])
                            / _median([p.wall_ns * p.scale for p in plain])
                            - 1),
            "unit": "%",
        },
        "bench.import_s": {"value": import_s, "unit": "s"},
        "bench.calib_ops_per_s": {"value": _host_speed(plain),
                                  "unit": "1/s"},
    })
    sites: dict[str, list] = {}
    for (before, after), t in zip(windows, traced):
        for name, (n, self_ns) in tracer.site_totals(before, after).items():
            row = sites.setdefault(name, [0, 0.0])
            row[0] += n
            row[1] += self_ns * t.scale
    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(spans_path, "wt") as out:
            for record in spans:
                out.write(json.dumps(record) + "\n")
    return {
        "pass": "traced",
        **_ledger_counts(plain + traced, mismatches),
        "import_s": import_s,
        "calib_ops_per_s": _host_speed(plain),
        "metrics": metrics,
        "rates": _workload_rates(plain),
        "wrapper_ns": {"noop": noop_ns, "measured": tracer.per_call_ns},
        "layers_per_round": [
            {layer: [row[0], row[1] * t.scale / 1e9]
             for layer, row in totals.items() if row[0]}
            for totals, t in zip(per_round, traced)
        ],
        "top_sites": [
            {"site": name, "calls": n, "self_s": self_ns / 1e9}
            for name, (n, self_ns) in sorted(
                sites.items(), key=lambda kv: -kv[1][1]
            )[:40]
        ],
        "spans": {"round": 0, "count": len(spans),
                  "file": None if spans_path is None else str(spans_path)},
    }


def _layer_metrics(tracer, windows, per_round, plain, traced) -> dict:
    """The ``per_layer`` metrics of BENCHMARK.json, medians over rounds.

    Host times are normalised like the end-to-end metrics; counters
    come from the plain rounds (the traced rounds must match them).
    """
    def value(v, unit):
        return {"value": v, "unit": unit}

    def counter(key):
        return [r.counters.get(key, 0) for r in plain]

    def site_calls(match):
        return _median([
            sum(a["calls"][s] - b["calls"][s]
                for s, name in enumerate(tracer.sites) if match(name))
            for b, a in windows
        ])

    def durations(name):
        """Per round, the sampled durations of ``name`` (normalised ns)."""
        return [[d * t.scale for d in tracer.durations(b, a, name)]
                for (b, a), t in zip(windows, traced)]

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = value(
            _median([totals[layer][0] for totals in per_round]), "count")
        metrics[f"{layer}.self_s"] = value(_median([
            totals[layer][1] * t.scale / 1e9
            for totals, t in zip(per_round, traced)
        ]), "s")

    events = counter("sim_events")
    metrics["sim.events"] = value(_median(events), "count")
    metrics["sim.ns_per_event"] = value(_median([
        _ratio(totals["sim"][1] * t.scale, e)
        for totals, t, e in zip(per_round, traced, events)
    ]), "ns")
    metrics["sim.max_heap_depth"] = value(
        max(counter("sim_max_heap_depth")), "count")
    rates = _workload_rates(plain)
    metrics["sim.ms_per_wall_s"] = value(rates["sim_ms_per_wall_s"], "ms/s")
    metrics["network.frames_per_s"] = value(rates["frames_per_s"], "1/s")
    metrics["network.rt_queue_wait_mean_ns"] = value(
        _ratio(sum(counter("rt_queue_wait_ns")),
               sum(counter("rt_transmitted"))), "ns")
    metrics["network.rt_backlog_max"] = value(
        max(counter("rt_backlog_max")), "count")

    def protocol_call(prefix):
        def match(name):
            module, _, qualname = name.partition(":")
            return (module.startswith("repro.protocol.")
                    and qualname.rpartition(".")[2].startswith(prefix))
        return match

    metrics["protocol.encode.calls"] = value(
        site_calls(protocol_call("encode")), "count")
    metrics["protocol.decode.calls"] = value(
        site_calls(protocol_call("decode")), "count")
    metrics["protocol.encoded_bytes"] = value(_median([
        sum(a["bytes"][s] - b["bytes"][s] for s in a["bytes"])
        for b, a in windows
    ]), "bytes")

    requests = sorted(d for ds in durations(SAMPLED_SITES[0]) for d in ds)
    for p in (50, 99):
        metrics[f"core.admission.request_p{p}_us"] = value(
            _percentile(requests, p, "us", 1e-3)["value"] if requests
            else 0.0, "us")

    caches = [r.counters.get("cache", {}) for r in plain]
    checks = sum(c.get("checks", 0) for c in caches)
    for name, key in (("memo_hit_ratio", "memo_hits"),
                      ("incremental_ratio", "incremental_checks"),
                      ("shortcut_ratio", "shortcut_accepts")):
        metrics[f"core.feasibility_cache.{name}"] = value(
            _ratio(sum(c.get(key, 0) for c in caches), checks), "ratio")
    metrics["core.feasibility_cache.full_fallbacks"] = value(
        _median([c.get("full_fallbacks", 0) for c in caches]), "count")
    feasible = [d for ds in durations(SAMPLED_SITES[1]) for d in ds]
    metrics["core.feasibility.us_per_call"] = value(
        _ratio(sum(feasible), len(feasible)) / 1e3, "us")

    checkpoint_ns = [
        sum(map(sum, rounds))
        for rounds in zip(*(durations(name) for name in SAMPLED_SITES[2:]))
    ]
    metrics["service.checkpoint_s"] = value(_median(checkpoint_ns) / 1e9, "s")
    metrics["service.checkpoint_bytes"] = value(
        _median(counter("checkpoint_bytes")), "bytes")
    metrics["multiswitch.graph.path_links.calls"] = value(site_calls(
        lambda name: name == "repro.multiswitch.graph:FabricGraph.path_links"
    ), "count")
    metrics["multiswitch.simnet.build_s"] = value(
        _median([r.counters.get("build_ns", 0) * r.scale for r in plain])
        / 1e9, "s")

    commits = sum(counter("commits"))
    metrics["service.intent.commits_per_announce"] = value(
        _ratio(commits, sum(counter("announces"))), "ratio")
    metrics["service.intent.retransmissions_per_commit"] = value(
        _ratio(sum(counter("retransmissions")), commits), "ratio")
    metrics["service.intent.resume_s"] = value(_median([
        r.counters["resume_ns"] * r.scale for r in plain
        if "resume_ns" in r.counters
    ]) / 1e9, "s")
    metrics["service.intent.commit_ratio"] = value(
        rates["commit_ratio"], "ratio")
    for key in ("double_bookings", "unconverged_trunks"):
        metrics[f"service.intent.{key}"] = value(sum(counter(key)), "count")
    metrics["service.intent.commit_p50_ms"] = value(
        rates["commit_p50_ms"], "ms")
    metrics["service.intent.commit_p99_ms"] = value(
        rates["commit_p99_ms"], "ms")
    metrics["faults.drops"] = value(_median(counter("drops")), "count")
    metrics["faults.drop_ratio"] = value(
        _ratio(sum(counter("drops")), sum(counter("frames_seen"))), "ratio")
    return metrics
