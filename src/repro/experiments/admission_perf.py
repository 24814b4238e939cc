"""EXP-P2: admission fast-path timing (cached vs from-scratch).

Times the Figure 18.5 admission sweep -- the reproduction's hot path --
through two controllers fed the identical request sequence: one deciding
through the incremental
:class:`~repro.core.feasibility_cache.FeasibilityCache`, one re-running
the from-scratch :func:`~repro.core.feasibility.is_feasible` per
request. Besides wall-clock, the run cross-checks the full decision
stream (a free differential test: any cached-vs-naive divergence fails
loudly here before it could skew a reported speedup).

This module is deliberately dependency-light (no pytest-benchmark) so
the CLI's ``repro bench-admission`` and CI's ``--smoke`` variant can use
it directly; ``benchmarks/bench_admission.py`` wraps it for calibrated
pytest-benchmark runs.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field

from ..core.admission import AdmissionController, SystemState
from ..core.channel import ChannelSpec
from ..core.partitioning import (
    AsymmetricDPS,
    DeadlinePartitioningScheme,
    SymmetricDPS,
)
from ..errors import ConfigurationError
from ..sim.rng import RngRegistry
from ..traffic.patterns import (
    ChannelRequest,
    master_slave_names,
    master_slave_requests,
)
from ..traffic.spec import FixedSpecSampler

__all__ = [
    "AdmissionPerfConfig",
    "AdmissionPerfResult",
    "BatchPerfResult",
    "run_admission_perf",
    "run_batch_perf",
]

_SCHEMES: dict[str, type[DeadlinePartitioningScheme]] = {
    "sdps": SymmetricDPS,
    "adps": AsymmetricDPS,
}


@dataclass(frozen=True, slots=True)
class AdmissionPerfConfig:
    """One timing run's parameters (defaults = Fig. 18.5 at 200 req)."""

    n_masters: int = 10
    n_slaves: int = 50
    spec: ChannelSpec = field(
        default_factory=lambda: ChannelSpec(period=100, capacity=3, deadline=40)
    )
    requests: int = 200
    trials: int = 5
    seed: int = 2004
    scheme: str = "adps"
    #: Timing repetitions per side; the *minimum* elapsed over the
    #: repeats is reported (the standard noise-robust estimator for
    #: deterministic workloads: every disturbance -- GC left-overs,
    #: scheduler preemption, thermal throttling -- only ever adds time).
    repeats: int = 3
    #: When True, an extra *untimed* instrumented pass runs after the
    #: timed loops and the registry snapshot (verdict counters +
    #: feasibility-cache stats) is attached to the result. The timed
    #: loops themselves always run telemetry-free, so enabling this
    #: cannot perturb the reported numbers.
    collect_metrics: bool = False

    def __post_init__(self) -> None:
        if self.scheme not in _SCHEMES:
            raise ConfigurationError(
                f"unknown scheme {self.scheme!r} (have {sorted(_SCHEMES)})"
            )
        if self.requests <= 0 or self.trials <= 0 or self.repeats <= 0:
            raise ConfigurationError(
                f"requests, trials and repeats must be positive, got "
                f"{self.requests}/{self.trials}/{self.repeats}"
            )


@dataclass(frozen=True, slots=True)
class AdmissionPerfResult:
    """Timing plus the built-in parity check of one run."""

    config: AdmissionPerfConfig
    naive_seconds: float
    cached_seconds: float
    decisions: int
    accepts: int
    #: True when cached and naive produced the identical decision stream.
    parity: bool
    cache_stats: dict[str, int]
    #: flattened registry snapshot from the untimed instrumented pass
    #: (None unless ``config.collect_metrics``).
    registry_metrics: dict[str, float] | None = None

    @property
    def speedup(self) -> float:
        if self.cached_seconds == 0:
            return float("inf")
        return self.naive_seconds / self.cached_seconds

    def summary(self) -> str:
        lines = [
            "admission fast-path timing "
            f"({self.config.scheme}, {self.config.requests} requests x "
            f"{self.config.trials} trials, seed {self.config.seed})",
            f"  naive  : {self.naive_seconds * 1000:9.1f} ms",
            f"  cached : {self.cached_seconds * 1000:9.1f} ms",
            f"  speedup: {self.speedup:9.2f}x",
            f"  decisions {self.decisions} ({self.accepts} accepted), "
            f"parity {'OK' if self.parity else 'VIOLATED'}",
            f"  cache stats: {self.cache_stats}",
        ]
        if self.registry_metrics is not None:
            lines.append("  registry metrics:")
            for key, value in sorted(self.registry_metrics.items()):
                lines.append(f"    {key} = {value:g}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "scheme": self.config.scheme,
            "requests": self.config.requests,
            "trials": self.config.trials,
            "seed": self.config.seed,
            "naive_seconds": self.naive_seconds,
            "cached_seconds": self.cached_seconds,
            "speedup": self.speedup,
            "decisions": self.decisions,
            "accepts": self.accepts,
            "parity": self.parity,
            "cache_stats": self.cache_stats,
            **(
                {"registry_metrics": self.registry_metrics}
                if self.registry_metrics is not None
                else {}
            ),
        }


def _request_sequences(
    config: AdmissionPerfConfig,
) -> tuple[list[str], list[list[ChannelRequest]]]:
    masters, slaves = master_slave_names(config.n_masters, config.n_slaves)
    sampler = FixedSpecSampler(config.spec)
    sequences = []
    for trial in range(config.trials):
        rng = RngRegistry(config.seed).fork(trial).stream("requests")
        sequences.append(
            master_slave_requests(
                masters, slaves, config.requests, sampler, rng
            )
        )
    return masters + slaves, sequences


def _run_side(
    nodes: list[str],
    sequences: list[list[ChannelRequest]],
    config: AdmissionPerfConfig,
    use_cache: bool,
) -> tuple[float, list[bool], dict[str, int]]:
    """Feed every sequence to fresh controllers; time only admission.

    The whole sweep is repeated ``config.repeats`` times and the
    *minimum* total elapsed is reported (the workload is deterministic,
    so every disturbance only adds time). The collector is paused
    around the timed loops -- standard micro-benchmark hygiene, applied
    identically to both sides so the reported ratio reflects admission
    work, not allocation-triggered GC pauses landing on whichever side
    the heap happened to cross a threshold in.
    """
    best = float("inf")
    decisions: list[bool] = []
    stats: dict[str, int] = {}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(config.repeats):
            repeat_decisions: list[bool] = []
            repeat_stats: dict[str, int] = {}
            elapsed = 0.0
            for requests in sequences:
                controller = AdmissionController(
                    SystemState(nodes=nodes),
                    _SCHEMES[config.scheme](),
                    use_cache=use_cache,
                )
                start = time.perf_counter()
                for request in requests:
                    decision = controller.request(
                        request.source, request.destination, request.spec
                    )
                    repeat_decisions.append(decision.accepted)
                elapsed += time.perf_counter() - start
                if controller.cache is not None:
                    for key, value in (
                        controller.cache.stats.as_dict().items()
                    ):
                        repeat_stats[key] = repeat_stats.get(key, 0) + value
            if elapsed < best:
                best = elapsed
            # Deterministic workload: every repeat produces the same
            # decision stream and counters; keep the last.
            decisions = repeat_decisions
            stats = repeat_stats
    finally:
        if gc_was_enabled:
            gc.enable()
    return best, decisions, stats


def _flatten_snapshot(snapshot: dict) -> dict[str, float]:
    """``{"name{label=value}": value}`` view of a registry snapshot."""
    flat: dict[str, float] = {}
    for name, family in snapshot.items():
        for series in family["series"]:
            value = series.get("value")
            if value is None:
                continue
            labels = series["labels"]
            key = name
            if labels:
                inner = ",".join(f"{k}={v}" for k, v in labels.items())
                key = f"{name}{{{inner}}}"
            flat[key] = value
    return flat


def _instrumented_pass(
    nodes: list[str],
    sequences: list[list[ChannelRequest]],
    config: AdmissionPerfConfig,
) -> dict[str, float]:
    """Replay the cached sweep once with telemetry tracking each
    controller (its counts are read at snapshot time)."""
    from ..obs import Telemetry, TelemetryConfig

    telemetry = Telemetry(TelemetryConfig(tracing=False))
    for requests in sequences:
        controller = AdmissionController(
            SystemState(nodes=nodes),
            _SCHEMES[config.scheme](),
            use_cache=True,
        )
        telemetry.track_admission(controller)
        for request in requests:
            controller.request(
                request.source, request.destination, request.spec
            )
    return _flatten_snapshot(telemetry.snapshot())


@dataclass(frozen=True, slots=True)
class BatchPerfResult:
    """EXP-P7 timing: scalar-cached vs ``admit_many`` on one workload.

    Three measurements over identical request sequences:

    ``scalar_seconds``
        the PR 2 cached path -- a loop of ``request()`` calls against a
        fresh controller per sequence;
    ``batched_seconds``
        one ``admit_many()`` burst per fresh controller (the cold case:
        every distinct candidate is assessed at least once);
    ``storm_seconds``
        one ``admit_many()`` burst against an *already saturated*
        controller (the steady-state request storm the ROADMAP's
        10^6 decisions/sec target is about: links full, every repeat
        answered from an epoch-validated template).

    Parity here compares accepted/rejected streams; the byte-level
    stream equality (reasons, channel IDs, reports, serialized state)
    is enforced by ``repro admission-diff --batch`` and the batch test
    suite.
    """

    config: AdmissionPerfConfig
    scalar_seconds: float
    batched_seconds: float
    storm_seconds: float
    decisions: int
    accepts: int
    batch_parity: bool
    storm_parity: bool
    template_hits: int
    storm_template_hits: int
    cache_stats: dict[str, int]

    @property
    def scalar_rate(self) -> float:
        """Scalar cached decisions/sec (cold controllers)."""
        return self.decisions / self.scalar_seconds

    @property
    def batched_rate(self) -> float:
        """admit_many decisions/sec, cold controllers."""
        return self.decisions / self.batched_seconds

    @property
    def storm_rate(self) -> float:
        """admit_many decisions/sec against saturated controllers."""
        return self.decisions / self.storm_seconds

    @property
    def batch_speedup(self) -> float:
        if self.batched_seconds == 0:
            return float("inf")
        return self.scalar_seconds / self.batched_seconds

    @property
    def storm_speedup(self) -> float:
        if self.storm_seconds == 0:
            return float("inf")
        return self.scalar_seconds / self.storm_seconds

    def summary(self) -> str:
        return "\n".join(
            [
                "batch admission timing "
                f"({self.config.scheme}, {self.config.requests} requests x "
                f"{self.config.trials} trials, seed {self.config.seed})",
                f"  scalar cached : {self.scalar_seconds * 1000:9.1f} ms "
                f"({self.scalar_rate:,.0f} dec/s)",
                f"  admit_many    : {self.batched_seconds * 1000:9.1f} ms "
                f"({self.batched_rate:,.0f} dec/s, "
                f"{self.batch_speedup:.2f}x)",
                f"  storm (sat.)  : {self.storm_seconds * 1000:9.1f} ms "
                f"({self.storm_rate:,.0f} dec/s, "
                f"{self.storm_speedup:.2f}x)",
                f"  decisions {self.decisions} ({self.accepts} accepted), "
                f"template hits {self.template_hits} cold / "
                f"{self.storm_template_hits} storm",
                "  parity "
                f"{'OK' if self.batch_parity and self.storm_parity else 'VIOLATED'}",
                f"  cache stats: {self.cache_stats}",
            ]
        )

    def to_json_dict(self) -> dict:
        return {
            "scheme": self.config.scheme,
            "requests": self.config.requests,
            "trials": self.config.trials,
            "seed": self.config.seed,
            "scalar_seconds": self.scalar_seconds,
            "batched_seconds": self.batched_seconds,
            "storm_seconds": self.storm_seconds,
            "scalar_rate": self.scalar_rate,
            "batched_rate": self.batched_rate,
            "storm_rate": self.storm_rate,
            "batch_speedup": self.batch_speedup,
            "storm_speedup": self.storm_speedup,
            "decisions": self.decisions,
            "accepts": self.accepts,
            "batch_parity": self.batch_parity,
            "storm_parity": self.storm_parity,
            "template_hits": self.template_hits,
            "storm_template_hits": self.storm_template_hits,
            "cache_stats": self.cache_stats,
        }


def _controller(
    nodes: list[str], config: AdmissionPerfConfig
) -> AdmissionController:
    return AdmissionController(
        SystemState(nodes=nodes), _SCHEMES[config.scheme](), use_cache=True
    )


def run_batch_perf(
    config: AdmissionPerfConfig | None = None,
) -> BatchPerfResult:
    """Time scalar-cached vs batched admission on identical sequences.

    Every side sees the same sequences via fresh controllers; the storm
    side additionally pre-saturates its controller with one untimed
    pass of the same burst, then times a second burst (steady state:
    the links are full, so the whole burst is template/memo traffic --
    the regime the 10^6 decisions/sec ROADMAP target describes).
    """
    config = config or AdmissionPerfConfig()
    nodes, sequences = _request_sequences(config)
    bursts = [
        [(r.source, r.destination, r.spec) for r in requests]
        for requests in sequences
    ]
    scalar_s, scalar_decisions, _ = _run_side(
        nodes, sequences, config, use_cache=True
    )

    best_batch = float("inf")
    best_storm = float("inf")
    batch_decisions: list[bool] = []
    storm_decisions: list[bool] = []
    storm_scalar: list[bool] = []
    template_hits = 0
    storm_hits = 0
    stats: dict[str, int] = {}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(config.repeats):
            batch_decisions = []
            elapsed = 0.0
            stats = {}
            template_hits = 0
            for burst in bursts:
                controller = _controller(nodes, config)
                start = time.perf_counter()
                decided = controller.admit_many(burst)
                elapsed += time.perf_counter() - start
                batch_decisions.extend(d.accepted for d in decided)
                template_hits += controller.batch_template_hits
                for key, value in controller.cache.stats.as_dict().items():
                    stats[key] = stats.get(key, 0) + value
            best_batch = min(best_batch, elapsed)
        for _ in range(config.repeats):
            storm_decisions = []
            elapsed = 0.0
            storm_hits = 0
            for burst in bursts:
                controller = _controller(nodes, config)
                controller.admit_many(burst)  # saturate, untimed
                before = controller.batch_template_hits
                start = time.perf_counter()
                decided = controller.admit_many(burst)
                elapsed += time.perf_counter() - start
                storm_decisions.extend(d.accepted for d in decided)
                storm_hits += controller.batch_template_hits - before
            best_storm = min(best_storm, elapsed)
        # Storm reference: the scalar loop against an identically
        # pre-saturated controller must produce the same stream.
        for burst in bursts:
            controller = _controller(nodes, config)
            controller.admit_many(burst)
            storm_scalar.extend(
                controller.request(s, d, spec).accepted
                for s, d, spec in burst
            )
    finally:
        if gc_was_enabled:
            gc.enable()
    return BatchPerfResult(
        config=config,
        scalar_seconds=scalar_s,
        batched_seconds=best_batch,
        storm_seconds=best_storm,
        decisions=len(batch_decisions),
        accepts=sum(batch_decisions),
        batch_parity=batch_decisions == scalar_decisions,
        storm_parity=storm_decisions == storm_scalar,
        template_hits=template_hits,
        storm_template_hits=storm_hits,
        cache_stats=stats,
    )


def run_admission_perf(
    config: AdmissionPerfConfig | None = None,
) -> AdmissionPerfResult:
    """Time the sweep cached-vs-naive on identical request sequences."""
    config = config or AdmissionPerfConfig()
    nodes, sequences = _request_sequences(config)
    naive_s, naive_decisions, _ = _run_side(
        nodes, sequences, config, use_cache=False
    )
    cached_s, cached_decisions, stats = _run_side(
        nodes, sequences, config, use_cache=True
    )
    registry_metrics = (
        _instrumented_pass(nodes, sequences, config)
        if config.collect_metrics
        else None
    )
    return AdmissionPerfResult(
        config=config,
        naive_seconds=naive_s,
        cached_seconds=cached_s,
        decisions=len(cached_decisions),
        accepts=sum(cached_decisions),
        parity=naive_decisions == cached_decisions,
        cache_stats=stats,
        registry_metrics=registry_metrics,
    )
