"""EXP-X1: acceptance on switch trees (the paper's future work).

Generalizes the Figure 18.5 comparison to multi-switch fabrics built
with :mod:`repro.multiswitch`: masters hang off one switch, slaves are
spread over the remaining switches of a chain, so master->slave channels
cross 2..(k+1) links. Compared schemes are the k-way generalizations of
SDPS (equal split) and ADPS (LinkLoad-proportional split).

Expected shape (no published reference exists): the proportional scheme
retains an advantage because the master uplinks *and* the inter-switch
trunks are bottlenecks, and equal splitting wastes deadline budget on
the lightly loaded leaf links. Longer chains shrink both schemes'
absolute acceptance (the per-hop floor ``d >= k*C`` bites).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.channel import ChannelSpec
from ..errors import ConfigurationError
from ..multiswitch.admission import MultiSwitchAdmission
from ..multiswitch.graph import FabricGraph
from ..multiswitch.partitioning import (
    MultiHopProportional,
    MultiHopSymmetric,
)
from ..sim.rng import RngRegistry

__all__ = [
    "MultiSwitchPoint",
    "FabricValidationReport",
    "build_master_slave_fabric",
    "run_multiswitch_comparison",
    "run_fabric_validation",
]


@dataclass(frozen=True, slots=True)
class MultiSwitchPoint:
    """Acceptance at one requested-count for both k-way schemes."""

    requested: int
    symmetric_mean: float
    proportional_mean: float

    @property
    def advantage(self) -> float:
        if self.symmetric_mean == 0:
            return float("inf")
        return self.proportional_mean / self.symmetric_mean


def build_master_slave_fabric(
    n_switches: int, n_masters: int, n_slaves: int
) -> tuple[FabricGraph, list[str], list[str]]:
    """A chain of switches with all masters on sw0, slaves spread evenly."""
    if n_switches <= 0:
        raise ConfigurationError(f"need >= 1 switch, got {n_switches}")
    if n_masters <= 0 or n_slaves <= 0:
        raise ConfigurationError(
            f"need masters and slaves, got {n_masters}/{n_slaves}"
        )
    fabric = FabricGraph()
    for i in range(n_switches):
        fabric.add_switch(f"sw{i}")
        if i > 0:
            fabric.connect_switches(f"sw{i - 1}", f"sw{i}")
    masters = [f"m{i}" for i in range(n_masters)]
    for master in masters:
        fabric.add_node(master, "sw0")
    slaves = [f"s{i}" for i in range(n_slaves)]
    for index, slave in enumerate(slaves):
        fabric.add_node(slave, f"sw{index % n_switches}")
    return fabric, masters, slaves


def run_multiswitch_comparison(
    n_switches: int = 3,
    n_masters: int = 10,
    n_slaves: int = 50,
    requested_counts: tuple[int, ...] = tuple(range(20, 201, 20)),
    spec: ChannelSpec | None = None,
    trials: int = 10,
    seed: int = 303,
    workers: int = 1,
) -> list[MultiSwitchPoint]:
    """Paired acceptance comparison of the two k-way schemes.

    ``workers`` fans the (trial, scheme) grid across processes (0 = all
    CPUs). A work unit regenerates its trial's (master, slave) pairs
    from ``RngRegistry(seed).fork(trial)`` -- a pure function of the
    trial index -- so the points are identical at any worker count.
    """
    from .runner import parallel_map

    if trials <= 0:
        raise ConfigurationError(f"trials must be positive, got {trials}")
    spec = spec or ChannelSpec(period=100, capacity=3, deadline=60)
    counts = sorted(set(requested_counts))
    max_count = counts[-1]
    schemes = {"sym": MultiHopSymmetric, "prop": MultiHopProportional}

    def run_unit(unit: tuple[int, str]) -> list[float]:
        trial, key = unit
        rng = RngRegistry(seed).fork(trial).stream("multiswitch-requests")
        pairs = [
            (
                f"m{int(rng.integers(0, n_masters))}",
                f"s{int(rng.integers(0, n_slaves))}",
            )
            for _ in range(max_count)
        ]
        fabric, _, _ = build_master_slave_fabric(
            n_switches, n_masters, n_slaves
        )
        admission = MultiSwitchAdmission(fabric=fabric, dps=schemes[key]())
        row = [0.0] * len(counts)
        checkpoint = 0
        for offered, (source, destination) in enumerate(pairs, start=1):
            admission.request(source, destination, spec)
            while (
                checkpoint < len(counts) and counts[checkpoint] == offered
            ):
                row[checkpoint] = admission.accept_count
                checkpoint += 1
        return row

    units = [
        (trial, key) for trial in range(trials) for key in schemes
    ]
    rows = parallel_map(run_unit, units, workers)
    totals: dict[str, list[list[float]]] = {key: [] for key in schemes}
    for (trial, key), row in zip(units, rows):
        totals[key].append(row)
    points = []
    for i, requested in enumerate(counts):
        sym = sum(totals["sym"][t][i] for t in range(trials)) / trials
        prop = sum(totals["prop"][t][i] for t in range(trials)) / trials
        points.append(
            MultiSwitchPoint(
                requested=requested,
                symmetric_mean=sym,
                proportional_mean=prop,
            )
        )
    return points


@dataclass(frozen=True, slots=True)
class FabricValidationReport:
    """EXP-X2: outcome of one fabric data-plane validation run."""

    n_switches: int
    channels_requested: int
    channels_admitted: int
    max_hop_count: int
    messages_completed: int
    end_to_end_misses: int
    per_link_misses: int
    worst_delay_ns: int
    guarantee_bound_ns: int

    @property
    def holds(self) -> bool:
        """True when the generalized Eq. 18.1 held for every frame."""
        return (
            self.end_to_end_misses == 0
            and self.per_link_misses == 0
            and self.worst_delay_ns <= self.guarantee_bound_ns
        )

    @property
    def worst_delay_fraction(self) -> float:
        if self.guarantee_bound_ns == 0:
            return 0.0
        return self.worst_delay_ns / self.guarantee_bound_ns


def run_fabric_validation(
    n_switches: int = 3,
    n_masters: int = 4,
    n_slaves: int = 12,
    n_requests: int = 40,
    messages: int = 3,
    spec: ChannelSpec | None = None,
    seed: int = 404,
) -> FabricValidationReport:
    """EXP-X2: simulate an admitted multi-hop set; verify the guarantee.

    The fabric analogue of EXP-V1: masters on sw0, slaves spread over
    the chain, centralized admission with the k-way proportional DPS,
    critical-instant release, per-hop and end-to-end deadline checks.
    """
    from ..multiswitch.simnet import build_fabric_network
    from ..multiswitch.partitioning import MultiHopProportional

    spec = spec or ChannelSpec(period=100, capacity=3, deadline=60)
    fabric, masters, slaves = build_master_slave_fabric(
        n_switches, n_masters, n_slaves
    )
    net = build_fabric_network(fabric, dps=MultiHopProportional())
    rng = RngRegistry(seed).stream("fabric-validation")
    admitted = []
    for _ in range(n_requests):
        source = masters[int(rng.integers(0, n_masters))]
        destination = slaves[int(rng.integers(0, n_slaves))]
        channel = net.establish(source, destination, spec)
        if channel is not None:
            admitted.append(channel)
    net.start_all_sources(stop_after_messages=messages)
    net.sim.run()
    max_hops = max((len(c.links) for c in admitted), default=2)
    bound = (
        spec.deadline * net.phy.slot_ns
        + net.metrics.t_latency_ns
    )
    return FabricValidationReport(
        n_switches=n_switches,
        channels_requested=n_requests,
        channels_admitted=len(admitted),
        max_hop_count=max_hops,
        messages_completed=net.metrics.total_rt_messages,
        end_to_end_misses=net.metrics.total_deadline_misses,
        per_link_misses=net.per_link_misses(),
        worst_delay_ns=net.metrics.worst_rt_delay_ns,
        guarantee_bound_ns=bound,
    )
