"""Second oracle: network-calculus bounds vs EDF analysis vs simulation.

The repo's first oracle (:mod:`repro.oracle.differential`) cross-checks
*admission verdicts*; this one cross-checks *delay bounds*. Three
independent answers to "how late can a frame be?" are compared:

1. the network-calculus bound -- token-bucket arrival curves against
   rate-latency residual service, horizontal deviation
   (:mod:`repro.netcalc`); valid for any work-conserving arbitration,
   so in particular for per-hop EDF;
2. the paper-style bound -- Eq. 18.1's ``d_i * slot + T_latency``
   promised by the admission test;
3. the *measured* per-frame delays of the actual discrete-event
   simulation, extracted from the trace
   (:func:`repro.analysis.timeline.extract_frame_delays`).

Every measured delay must sit below both analytical bounds; the two
frameworks share no code and no model assumptions beyond
work-conservation, so agreement across a fuzz campaign is strong
evidence that neither is silently wrong. The per-link leg
(:func:`netcalc_cross_check`) additionally replays the abstract EDF
schedule and checks (a) every worst response against the curve bound
and (b) the one-sided admission implication: the netcalc test is
*sufficient only* (it over-approximates interference), so
"netcalc-feasible" must imply the exact test and the replay agree
feasible -- the converse direction failing is expected conservatism,
never a bug.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Sequence

from ..analysis.timeline import extract_frame_delays
from ..core.channel import ChannelSpec
from ..core.feasibility import FeasibilityReport, is_feasible, utilization
from ..core.partitioning import AsymmetricDPS, SymmetricDPS
from ..core.task import LinkTask
from ..errors import ConfigurationError
from ..multiswitch.graph import FabricGraph, build_chain_graph, build_fat_tree
from ..netcalc.bounds import PathBound, link_delay_bound, path_bound_ns
from ..sim.rng import RngRegistry
from .differential import DEFAULT_MAX_HORIZON
from .edf_timeline import (
    TimelineResult,
    default_release_horizon,
    simulate_edf,
)

__all__ = [
    "TOPOLOGIES",
    "NetcalcAgreement",
    "NetcalcLinkVerdict",
    "netcalc_cross_check",
    "BoundViolation",
    "LinkDisagreement",
    "NetcalcTrialResult",
    "run_netcalc_trial",
    "NetcalcCampaignReport",
    "run_netcalc_campaign",
]

#: Topologies the simulation campaign cycles through.
TOPOLOGIES: tuple[str, ...] = ("star", "fabric", "fat-tree")

#: Period menu for campaign workloads: small lcm keeps hyperperiods
#: (and busy periods of the per-link replay leg) tightly bounded.
_PERIODS = (20, 25, 40, 50, 100)

#: Messages each source emits per simulation trial: the first message
#: is the critical instant the analysis reasons about; the rest
#: exercise steady state.
_MESSAGES_PER_TRIAL = 3


class NetcalcAgreement(enum.Enum):
    """Outcome classes of one per-link three-way check."""

    #: netcalc says feasible; the exact test and the replay agree.
    AGREE_FEASIBLE = "agree-feasible"
    #: neither framework certifies the set; the exact test rejects it.
    AGREE_INFEASIBLE = "agree-infeasible"
    #: netcalc cannot certify the set but the exact test admits it --
    #: expected one-sided conservatism, not a disagreement.
    NETCALC_CONSERVATIVE = "netcalc-conservative"
    #: a replayed worst response exceeded its curve bound: the curve
    #: algebra (or the replay) is wrong.
    BOUND_VIOLATED = "bound-violated"
    #: netcalc certified a set the exact test or the replay rejects:
    #: the sufficiency argument is broken.
    SOUNDNESS_MISMATCH = "soundness-mismatch"
    #: the replay horizon exceeded the cap; the check was not completed.
    HORIZON_CAPPED = "horizon-capped"

    @property
    def is_disagreement(self) -> bool:
        return self in (
            NetcalcAgreement.BOUND_VIOLATED,
            NetcalcAgreement.SOUNDNESS_MISMATCH,
        )


@dataclass(frozen=True, slots=True)
class NetcalcLinkVerdict:
    """Structured result of one per-link three-way check."""

    tasks: tuple[LinkTask, ...]
    #: per-task curve bounds in slots, index-aligned with ``tasks``
    #: (``None`` = unbounded, only possible when ``U > 1``).
    bounds_slots: tuple[Fraction | None, ...]
    #: netcalc's admission claim: every bound finite and <= deadline.
    netcalc_feasible: bool
    analytic: FeasibilityReport
    #: ``None`` when the replay was skipped (``U > 1`` or capped).
    replay: TimelineResult | None
    agreement: NetcalcAgreement
    detail: str

    @property
    def ok(self) -> bool:
        return not self.agreement.is_disagreement


def netcalc_cross_check(
    tasks: Sequence[LinkTask],
    *,
    max_horizon: int = DEFAULT_MAX_HORIZON,
) -> NetcalcLinkVerdict:
    """Three-way check of one link's task set.

    Legs: (1) curve bound per task vs the EDF replay's worst observed
    response (the bound holds for *any* work-conserving policy, so a
    violation convicts the algebra); (2) netcalc-feasible must imply
    both the exact demand test and the replay agree feasible (the
    sufficiency direction); the reverse gap is counted as
    ``NETCALC_CONSERVATIVE``.
    """
    tasks = tuple(tasks)
    if not tasks:
        raise ConfigurationError("netcalc_cross_check needs at least one task")
    if len({t.channel_id for t in tasks}) != len(tasks):
        raise ConfigurationError(
            "tasks must have unique channel IDs for per-channel bounds"
        )
    analytic = is_feasible(tasks)
    bounds = tuple(
        link_delay_bound(tasks, task.channel_id) for task in tasks
    )
    netcalc_feasible = all(
        bound is not None and bound <= task.deadline
        for bound, task in zip(bounds, tasks)
    )

    if utilization(tasks) > 1:
        # No finite curve bound exists for any flow and the exact test
        # rejects on utilization alone; nothing to replay.
        return NetcalcLinkVerdict(
            tasks=tasks,
            bounds_slots=bounds,
            netcalc_feasible=netcalc_feasible,
            analytic=analytic,
            replay=None,
            agreement=NetcalcAgreement.AGREE_INFEASIBLE,
            detail=f"U={float(analytic.link_utilization):.3f} > 1: "
            "both frameworks reject, no finite bounds",
        )

    horizon = default_release_horizon(tasks)
    if horizon > max_horizon:
        return NetcalcLinkVerdict(
            tasks=tasks,
            bounds_slots=bounds,
            netcalc_feasible=netcalc_feasible,
            analytic=analytic,
            replay=None,
            agreement=NetcalcAgreement.HORIZON_CAPPED,
            detail=f"busy-period horizon {horizon} > cap {max_horizon}",
        )
    replay = simulate_edf(tasks, horizon, stop_on_miss=False)

    for index, (bound, stats) in enumerate(zip(bounds, replay.task_stats)):
        if bound is not None and stats.worst_response > bound:
            return NetcalcLinkVerdict(
                tasks=tasks,
                bounds_slots=bounds,
                netcalc_feasible=netcalc_feasible,
                analytic=analytic,
                replay=replay,
                agreement=NetcalcAgreement.BOUND_VIOLATED,
                detail=(
                    f"task {index} (C={tasks[index].capacity}, "
                    f"P={tasks[index].period}): replayed worst response "
                    f"{stats.worst_response} > curve bound {bound} slots"
                ),
            )

    if netcalc_feasible and not (analytic.feasible and replay.schedulable):
        return NetcalcLinkVerdict(
            tasks=tasks,
            bounds_slots=bounds,
            netcalc_feasible=netcalc_feasible,
            analytic=analytic,
            replay=replay,
            agreement=NetcalcAgreement.SOUNDNESS_MISMATCH,
            detail=(
                "netcalc certifies the set but "
                f"is_feasible={analytic.feasible}, "
                f"replay schedulable={replay.schedulable}"
            ),
        )

    if netcalc_feasible:
        agreement = NetcalcAgreement.AGREE_FEASIBLE
        detail = "all bounds within deadlines; exact test and replay agree"
    elif analytic.feasible:
        agreement = NetcalcAgreement.NETCALC_CONSERVATIVE
        detail = (
            "netcalc cannot certify the set (expected one-sided gap); "
            "replayed responses still respect every finite bound"
        )
    else:
        agreement = NetcalcAgreement.AGREE_INFEASIBLE
        detail = "neither framework certifies the set"
    return NetcalcLinkVerdict(
        tasks=tasks,
        bounds_slots=bounds,
        netcalc_feasible=netcalc_feasible,
        analytic=analytic,
        replay=replay,
        agreement=agreement,
        detail=detail,
    )


# -- simulation trials -----------------------------------------------------


@dataclass(frozen=True, slots=True)
class BoundViolation:
    """One measured frame delay exceeding an analytical bound."""

    topology: str
    trial: int
    channel_id: int
    #: which bound failed: "netcalc", "paper", or "extraction" (the
    #: trace-extracted samples diverged from the metrics collector's).
    oracle: str
    measured_ns: int
    bound_ns: int
    #: delivery time of the offending frame (ns), -1 for extraction.
    time_ns: int


@dataclass(frozen=True, slots=True)
class LinkDisagreement:
    """A per-link three-way check that failed during a trial."""

    topology: str
    trial: int
    link: str
    detail: str


@dataclass(frozen=True, slots=True)
class NetcalcTrialResult:
    """Everything one simulation trial checked."""

    topology: str
    trial: int
    channels_checked: int
    frames_checked: int
    links_checked: int
    violations: tuple[BoundViolation, ...]
    disagreements: tuple[LinkDisagreement, ...]
    capped: int

    @property
    def ok(self) -> bool:
        return not self.violations and not self.disagreements


def _paper_bound_ns(deadline_slots: int, hops: int, phy) -> int:
    """Generalized Eq. 18.1: ``d * slot + T_latency(hops)``."""
    t_latency = (
        hops * (phy.propagation_ns + phy.max_frame_ns)
        + (hops - 1) * phy.switch_processing_ns
    )
    return deadline_slots * phy.slot_ns + t_latency


def _check_run(
    topology: str,
    trial: int,
    phy,
    trace,
    metrics,
    bounds: dict[int, PathBound],
    channel_info: dict[int, tuple[int, int]],
) -> tuple[int, list[BoundViolation]]:
    """Compare every delivered frame against both analytical bounds.

    ``channel_info`` maps channel ID -> (end-to-end deadline in slots,
    hop count). Returns (frames checked, violations found).
    """
    violations: list[BoundViolation] = []
    deliveries = extract_frame_delays(trace)
    frames_checked = 0
    for channel_id, frames in sorted(deliveries.items()):
        bound = bounds.get(channel_id)
        if bound is None or channel_id not in channel_info:
            raise ConfigurationError(
                f"{topology} trial {trial}: delivered channel {channel_id} "
                "has no computed bound -- the admission plumbing is broken"
            )
        deadline_slots, hops = channel_info[channel_id]
        netcalc_ns = path_bound_ns(
            bound, phy.slot_ns, phy.propagation_ns, phy.switch_processing_ns
        )
        paper_ns = _paper_bound_ns(deadline_slots, hops, phy)
        for frame in frames:
            frames_checked += 1
            if frame.delay_ns > netcalc_ns:
                violations.append(
                    BoundViolation(
                        topology=topology,
                        trial=trial,
                        channel_id=channel_id,
                        oracle="netcalc",
                        measured_ns=frame.delay_ns,
                        bound_ns=netcalc_ns,
                        time_ns=frame.time_ns,
                    )
                )
            if frame.delay_ns > paper_ns:
                violations.append(
                    BoundViolation(
                        topology=topology,
                        trial=trial,
                        channel_id=channel_id,
                        oracle="paper",
                        measured_ns=frame.delay_ns,
                        bound_ns=paper_ns,
                        time_ns=frame.time_ns,
                    )
                )
        # Independent extraction paths must agree frame-for-frame: the
        # trace records and the metrics collector observed the same run.
        trace_delays = sorted(f.delay_ns for f in frames)
        metric_delays = sorted(metrics.delay_samples(channel_id))
        if trace_delays != metric_delays:
            violations.append(
                BoundViolation(
                    topology=topology,
                    trial=trial,
                    channel_id=channel_id,
                    oracle="extraction",
                    measured_ns=len(trace_delays),
                    bound_ns=len(metric_delays),
                    time_ns=-1,
                )
            )
    return frames_checked, violations


def _draw_pair(rng, names: list[str]) -> tuple[str, str]:
    source = names[int(rng.integers(0, len(names)))]
    destination = source
    while destination == source:
        destination = names[int(rng.integers(0, len(names)))]
    return source, destination


def _star_trial(seed: int, trial: int) -> NetcalcTrialResult:
    from ..network.topology import build_star

    rng = RngRegistry(seed).fork(trial).stream("netcalc-star")
    names = [f"n{i}" for i in range(int(rng.integers(4, 8)))]
    dps = SymmetricDPS() if trial % 2 == 0 else AsymmetricDPS()
    net = build_star(
        names, dps=dps, trace_enabled=True, record_delays=True
    )
    for _ in range(int(rng.integers(4, 13))):
        source, destination = _draw_pair(rng, names)
        capacity = int(rng.integers(1, 4))
        period = int(_PERIODS[int(rng.integers(0, len(_PERIODS)))])
        deadline = int(rng.integers(2 * capacity, period + 1))
        net.establish_analytically(
            source, destination, ChannelSpec(period, capacity, deadline)
        )
    state = net.admission.state
    bounds = state.channel_delay_bounds()
    channel_info = {
        channel_id: (channel.spec.deadline, 2)
        for channel_id, channel in state.channels.items()
    }
    net.start_all_sources(stop_after_messages=_MESSAGES_PER_TRIAL)
    net.sim.run()
    frames_checked, violations = _check_run(
        "star", trial, net.phy, net.trace, net.metrics, bounds, channel_info
    )
    disagreements, capped, links_checked = _check_links(
        "star",
        trial,
        [(str(link), state.tasks_on(link)) for link in state.occupied_links()],
    )
    return NetcalcTrialResult(
        topology="star",
        trial=trial,
        channels_checked=len(bounds),
        frames_checked=frames_checked,
        links_checked=links_checked,
        violations=tuple(violations),
        disagreements=tuple(disagreements),
        capped=capped,
    )


def _fabric_trial(
    topology: str,
    build_graph: Callable[[int], FabricGraph],
    hop_floor: int,
    seed: int,
    trial: int,
) -> NetcalcTrialResult:
    """One multi-hop trial on ``build_graph(trial)``.

    ``hop_floor`` is the graph's worst-case hop count: deadlines are
    drawn with ``d >= hop_floor * C`` so the k-way split stays possible
    and rejections exercise load, not Eq. 18.9. With capacities up to
    3, ``3 * hop_floor`` must not exceed the smallest period (20), or
    the deadline range could be empty.
    """
    from ..multiswitch.partitioning import (
        MultiHopProportional,
        MultiHopSymmetric,
    )
    from ..multiswitch.simnet import build_fabric_network

    rng = RngRegistry(seed).fork(trial).stream(f"netcalc-{topology}")
    fabric = build_graph(trial)
    dps = MultiHopSymmetric() if trial % 2 == 0 else MultiHopProportional()
    net = build_fabric_network(
        fabric, dps=dps, trace_enabled=True, record_delays=True
    )
    names = sorted(fabric.nodes)
    for _ in range(int(rng.integers(4, 13))):
        source, destination = _draw_pair(rng, names)
        capacity = int(rng.integers(1, 4))
        period = int(_PERIODS[int(rng.integers(0, len(_PERIODS)))])
        deadline = int(rng.integers(hop_floor * capacity, period + 1))
        net.establish(
            source, destination, ChannelSpec(period, capacity, deadline)
        )
    admission = net.admission
    bounds = admission.channel_delay_bounds()
    channel_info = {
        channel_id: (decision.spec.deadline, len(decision.links))
        for channel_id, decision in admission.decisions.items()
    }
    net.start_all_sources(stop_after_messages=_MESSAGES_PER_TRIAL)
    net.sim.run()
    frames_checked, violations = _check_run(
        topology, trial, net.phy, net.trace, net.metrics, bounds,
        channel_info,
    )
    disagreements, capped, links_checked = _check_links(
        topology,
        trial,
        [
            (f"{link.tail}->{link.head}", admission.tasks_on(link))
            for link in admission.occupied_links()
        ],
    )
    return NetcalcTrialResult(
        topology=topology,
        trial=trial,
        channels_checked=len(bounds),
        frames_checked=frames_checked,
        links_checked=links_checked,
        violations=tuple(violations),
        disagreements=tuple(disagreements),
        capped=capped,
    )


def _check_links(
    topology: str,
    trial: int,
    links: list[tuple[str, tuple[LinkTask, ...]]],
) -> tuple[list[LinkDisagreement], int, int]:
    """Per-link three-way checks over every occupied link of a trial."""
    disagreements: list[LinkDisagreement] = []
    capped = 0
    for name, tasks in links:
        verdict = netcalc_cross_check(tasks)
        if verdict.agreement is NetcalcAgreement.HORIZON_CAPPED:
            capped += 1
        elif verdict.agreement.is_disagreement:
            disagreements.append(
                LinkDisagreement(
                    topology=topology,
                    trial=trial,
                    link=name,
                    detail=f"{verdict.agreement.value}: {verdict.detail}",
                )
            )
    return disagreements, capped, len(links)


_TRIALS: dict[str, Callable[[int, int], NetcalcTrialResult]] = {
    "star": _star_trial,
    # a 2-switch chain with 3 hosts each: three hops at most.
    "fabric": partial(
        _fabric_trial, "fabric", lambda trial: build_chain_graph(2, 3), 3
    ),
    # Standard-density k=4 fat-tree: 20 switches, 16 hosts, inter-pod
    # paths cross 6 links through the seeded multipath tie-break.
    "fat-tree": partial(
        _fabric_trial,
        "fat-tree",
        lambda trial: build_fat_tree(4, routing_seed=trial % 3),
        6,
    ),
}


def run_netcalc_trial(
    topology: str, seed: int, trial: int
) -> NetcalcTrialResult:
    """Run one simulation trial -- pure in ``(topology, seed, trial)``.

    The reproduction handle for campaign failures: a violation's
    recorded coordinates replay the exact network, workload and
    schedule that produced it.
    """
    runner = _TRIALS.get(topology)
    if runner is None:
        raise ConfigurationError(
            f"unknown topology {topology!r} (have {sorted(_TRIALS)})"
        )
    return runner(seed, trial)


@dataclass(frozen=True, slots=True)
class NetcalcCampaignReport:
    """Outcome of one measured-vs-bound fuzz campaign."""

    trials: int
    seed: int
    topologies: tuple[str, ...]
    channels_checked: int
    frames_checked: int
    links_checked: int
    #: recorded violations/disagreements (capped at the recording limit).
    violations: tuple[BoundViolation, ...]
    disagreements: tuple[LinkDisagreement, ...]
    #: totals, even beyond the recording cap.
    bound_violation_count: int
    admission_disagreement_count: int
    #: per-link checks skipped because their replay horizon was capped.
    capped: int

    @property
    def ok(self) -> bool:
        return (
            self.bound_violation_count == 0
            and self.admission_disagreement_count == 0
        )

    def summary(self) -> str:
        status = "OK" if self.ok else "VIOLATIONS FOUND"
        lines = [
            f"netcalc campaign {status}: {self.trials} trials, seed "
            f"{self.seed}, topologies {'/'.join(self.topologies)}",
            f"  {self.channels_checked} channels, {self.frames_checked} "
            f"frames measured <= bound, {self.links_checked} links "
            f"three-way checked ({self.capped} capped)",
        ]
        for violation in self.violations:
            lines.append(
                f"  VIOLATION [{violation.oracle}] {violation.topology} "
                f"trial={violation.trial} ch={violation.channel_id}: "
                f"measured {violation.measured_ns} ns > bound "
                f"{violation.bound_ns} ns"
            )
            lines.append(
                f"    reproduce: run_netcalc_trial({violation.topology!r}, "
                f"seed={self.seed}, trial={violation.trial})"
            )
        for disagreement in self.disagreements:
            lines.append(
                f"  MISMATCH {disagreement.topology} "
                f"trial={disagreement.trial} link={disagreement.link}: "
                f"{disagreement.detail}"
            )
            lines.append(
                f"    reproduce: run_netcalc_trial("
                f"{disagreement.topology!r}, seed={self.seed}, "
                f"trial={disagreement.trial})"
            )
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "topologies": list(self.topologies),
            "channels_checked": self.channels_checked,
            "frames_checked": self.frames_checked,
            "links_checked": self.links_checked,
            "bound_violation_count": self.bound_violation_count,
            "admission_disagreement_count": (
                self.admission_disagreement_count
            ),
            "capped": self.capped,
            "violations": [
                {
                    "topology": v.topology,
                    "trial": v.trial,
                    "channel": v.channel_id,
                    "oracle": v.oracle,
                    "measured_ns": v.measured_ns,
                    "bound_ns": v.bound_ns,
                }
                for v in self.violations
            ],
            "disagreements": [
                {
                    "topology": d.topology,
                    "trial": d.trial,
                    "link": d.link,
                    "detail": d.detail,
                }
                for d in self.disagreements
            ],
            "ok": self.ok,
        }


#: Bound violations and link disagreements a campaign report records
#: in full (each list separately); the rest are only counted.
RECORD_LIMIT = 20


def run_netcalc_campaign(
    trials: int,
    seed: int,
    topologies: Sequence[str] = TOPOLOGIES,
) -> NetcalcCampaignReport:
    """Run an N-trial measured-vs-bound campaign.

    Trial ``i`` simulates ``topologies[i % len]`` with the workload of
    :func:`run_netcalc_trial(topology, seed, i) <run_netcalc_trial>`;
    the report is a pure function of the arguments. Disagreement
    coordinates printed by :meth:`NetcalcCampaignReport.summary` replay
    a single failing trial in isolation.
    """
    if trials <= 0:
        raise ConfigurationError(f"trials must be positive, got {trials}")
    topologies = tuple(topologies)
    for topology in topologies:
        if topology not in _TRIALS:
            raise ConfigurationError(
                f"unknown topology {topology!r} (have {sorted(_TRIALS)})"
            )
    channels = frames = links = capped = 0
    violation_count = disagreement_count = 0
    violations: list[BoundViolation] = []
    disagreements: list[LinkDisagreement] = []
    for trial in range(trials):
        result = run_netcalc_trial(
            topologies[trial % len(topologies)], seed, trial
        )
        channels += result.channels_checked
        frames += result.frames_checked
        links += result.links_checked
        capped += result.capped
        violation_count += len(result.violations)
        disagreement_count += len(result.disagreements)
        room = RECORD_LIMIT - len(violations)
        if room > 0:
            violations.extend(result.violations[:room])
        room = RECORD_LIMIT - len(disagreements)
        if room > 0:
            disagreements.extend(result.disagreements[:room])
    return NetcalcCampaignReport(
        trials=trials,
        seed=seed,
        topologies=topologies,
        channels_checked=channels,
        frames_checked=frames,
        links_checked=links,
        violations=tuple(violations),
        disagreements=tuple(disagreements),
        bound_violation_count=violation_count,
        admission_disagreement_count=disagreement_count,
        capped=capped,
    )
