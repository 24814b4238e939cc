"""EXP-X3: acceptance curves over graph fabrics (fat-tree headline).

The ROADMAP's "real fabrics" sweep: build a multipath topology with the
graph builder (:mod:`repro.multiswitch.graph`), offer a seeded stream
of channel requests between uniformly drawn host pairs, and record the
acceptance curve (accepted vs offered at evenly spaced checkpoints)
for both k-way partitioning schemes -- msym (equal split) and mprop
(LinkLoad-proportional).  The default topology is a fat-tree k=4 with
enough hosts per edge switch to pass 100 end nodes, so every inter-pod
channel crosses six links through the seeded multipath tie-break.

Determinism contract (the PR 5 runner's): a work unit is one
``(trial, scheme)`` pair; it rebuilds its topology and regenerates the
trial's request stream from ``RngRegistry(seed).fork(trial)`` -- a pure
function of the trial index -- so the curve is byte-identical at any
``--workers`` count.  Each inter-checkpoint segment flows through
:meth:`~repro.multiswitch.admission.MultiSwitchAdmission.admit_many`,
which decides it one ``request()`` at a time.

``--cross-check`` replays trial 0 serially for both schemes and runs
the three-way netcalc/demand-test/EDF-replay oracle
(:func:`repro.oracle.netcalc.netcalc_cross_check`) on every occupied
fabric link -- the sweep-local version of the campaign gate that
``repro netcalc-diff`` runs with the ``fat-tree`` topology in rotation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..core.channel import ChannelSpec
from ..errors import ConfigurationError
from ..multiswitch.admission import MultiSwitchAdmission
from ..multiswitch.graph import (
    FabricGraph,
    build_chain_graph,
    build_fat_tree,
    build_star_graph,
    build_tree_graph,
)
from ..multiswitch.partitioning import (
    MultiHopDPS,
    MultiHopProportional,
    MultiHopSymmetric,
)
from ..sim.rng import RngRegistry

__all__ = [
    "FabricSweepConfig",
    "FabricSweepPoint",
    "FabricCrossCheck",
    "FabricSweepResult",
    "build_fabric_topology",
    "cross_check_fabric_admission",
    "run_fabric_sweep",
]

#: Minimum end-node count the default fat-tree density targets.
_DEFAULT_MIN_HOSTS = 100

_SCHEMES: dict[str, type[MultiHopDPS]] = {
    "msym": MultiHopSymmetric,
    "mprop": MultiHopProportional,
}


@dataclass(frozen=True, slots=True)
class FabricSweepConfig:
    """Parameters of one fabric acceptance sweep."""

    topology: str = "fat-tree:4"
    #: hosts per edge/leaf switch (None = topology-specific default;
    #: the fat-tree default scales to >= 100 end nodes).
    hosts_per_edge: int | None = None
    requests: int = 400
    checkpoints: int = 10
    spec: ChannelSpec = field(
        default_factory=lambda: ChannelSpec(period=100, capacity=3,
                                            deadline=60)
    )
    trials: int = 5
    seed: int = 2004
    workers: int = 1
    routing_seed: int = 0
    cross_check: bool = False


@dataclass(frozen=True, slots=True)
class FabricSweepPoint:
    """Mean acceptance at one offered-count for both k-way schemes."""

    requested: int
    symmetric_mean: float
    proportional_mean: float

    @property
    def advantage(self) -> float:
        if self.symmetric_mean == 0:
            return float("inf")
        return self.proportional_mean / self.symmetric_mean


@dataclass(frozen=True, slots=True)
class FabricCrossCheck:
    """Three-way oracle verdicts over every occupied link (trial 0)."""

    links_checked: int
    capped: int
    disagreements: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.disagreements


@dataclass(frozen=True, slots=True)
class FabricSweepResult:
    """One completed fabric sweep: topology facts plus the curve."""

    topology: str
    n_nodes: int
    n_switches: int
    max_hops: int
    points: tuple[FabricSweepPoint, ...]
    cross_checks: tuple[FabricCrossCheck, ...] = ()

    @property
    def cross_check_ok(self) -> bool:
        return all(check.ok for check in self.cross_checks)


def _fat_tree_density(k: int) -> int:
    """Hosts per edge switch scaling a k-ary fat-tree past 100 nodes."""
    edge_switches = k * (k // 2)
    return max(k // 2, math.ceil(_DEFAULT_MIN_HOSTS / edge_switches))


def build_fabric_topology(
    topology: str,
    hosts_per_edge: int | None = None,
    routing_seed: int = 0,
) -> FabricGraph:
    """Build a fabric from its CLI spec string.

    Accepted forms: ``fat-tree:K`` (K even; default density scales to
    >= 100 hosts), ``chain:N`` (N switches), ``tree:DEPTH:FANOUT``, and
    ``star:N`` (N end nodes).  ``hosts_per_edge`` overrides the hosts
    per edge/leaf switch where the topology has one.
    """
    kind, _, rest = topology.partition(":")
    params = rest.split(":") if rest else []
    try:
        numbers = [int(p) for p in params]
    except ValueError:
        raise ConfigurationError(
            f"non-integer parameter in topology {topology!r}"
        ) from None
    try:
        if kind == "fat-tree" and len(numbers) == 1:
            k = numbers[0]
            density = (
                hosts_per_edge if hosts_per_edge is not None
                else _fat_tree_density(k)
            )
            return build_fat_tree(
                k, hosts_per_edge=density, routing_seed=routing_seed
            )
        if kind == "chain" and len(numbers) == 1:
            return build_chain_graph(
                numbers[0],
                hosts_per_edge if hosts_per_edge is not None else 4,
                routing_seed=routing_seed,
            )
        if kind == "tree" and len(numbers) == 2:
            depth, fanout = numbers
            return build_tree_graph(
                depth,
                fanout,
                hosts_per_edge if hosts_per_edge is not None else fanout,
                routing_seed=routing_seed,
            )
        if kind == "star" and len(numbers) == 1:
            if numbers[0] < 1:
                raise ConfigurationError(
                    f"star needs >= 1 end node, got {numbers[0]}"
                )
            return build_star_graph(
                [f"n{i}" for i in range(numbers[0])],
                routing_seed=routing_seed,
            )
    except ConfigurationError:
        raise
    except Exception as exc:
        raise ConfigurationError(
            f"cannot build topology {topology!r}: {exc}"
        ) from exc
    raise ConfigurationError(
        f"unknown topology {topology!r} (use fat-tree:K, chain:N, "
        "tree:DEPTH:FANOUT or star:N)"
    )


def _request_stream(
    graph: FabricGraph, seed: int, trial: int, n: int
) -> list[tuple[str, str]]:
    """The trial's (source, destination) pairs -- pure in (seed, trial)."""
    rng = RngRegistry(seed).fork(trial).stream("fabric-requests")
    names = list(graph.node_order)
    if len(names) < 2:
        raise ConfigurationError(
            f"topology has {len(names)} end node(s); a sweep needs >= 2"
        )
    pairs = []
    for _ in range(n):
        i = int(rng.integers(0, len(names)))
        j = int(rng.integers(0, len(names) - 1))
        if j >= i:  # uniform over the n-1 non-self destinations
            j += 1
        pairs.append((names[i], names[j]))
    return pairs


def _checkpoint_counts(requests: int, checkpoints: int) -> list[int]:
    if requests <= 0 or checkpoints <= 0:
        raise ConfigurationError(
            f"requests and checkpoints must be positive, got "
            f"{requests}/{checkpoints}"
        )
    counts = sorted({
        round(requests * (i + 1) / checkpoints) for i in range(checkpoints)
    })
    return [c for c in counts if c > 0]


def cross_check_fabric_admission(
    admission: MultiSwitchAdmission,
) -> FabricCrossCheck:
    """Run the three-way oracle on every occupied link of a fabric."""
    from ..oracle.netcalc import NetcalcAgreement, netcalc_cross_check

    capped = 0
    disagreements: list[str] = []
    links = admission.occupied_links()
    for link in links:
        verdict = netcalc_cross_check(admission.tasks_on(link))
        if verdict.agreement is NetcalcAgreement.HORIZON_CAPPED:
            capped += 1
        elif verdict.agreement.is_disagreement:
            disagreements.append(
                f"{link}: {verdict.agreement.value}: {verdict.detail}"
            )
    return FabricCrossCheck(
        links_checked=len(links),
        capped=capped,
        disagreements=tuple(disagreements),
    )


def run_fabric_sweep(config: FabricSweepConfig) -> FabricSweepResult:
    """EXP-X3: the msym-vs-mprop acceptance curve on a graph fabric."""
    from .runner import parallel_map

    if config.trials <= 0:
        raise ConfigurationError(
            f"trials must be positive, got {config.trials}"
        )
    probe = build_fabric_topology(
        config.topology, config.hosts_per_edge, config.routing_seed
    )
    probe.validate_connected()
    names = probe.node_order
    if len(names) < 2:
        raise ConfigurationError(
            f"topology {config.topology!r} has {len(names)} end node(s); "
            "a sweep needs >= 2"
        )
    max_hops = max(
        probe.hop_count(names[0], other) for other in names[1:]
    )
    counts = _checkpoint_counts(config.requests, config.checkpoints)

    def run_unit(unit: tuple[int, str]) -> list[float]:
        trial, key = unit
        graph = build_fabric_topology(
            config.topology, config.hosts_per_edge, config.routing_seed
        )
        pairs = _request_stream(
            graph, config.seed, trial, config.requests
        )
        admission = MultiSwitchAdmission(
            fabric=graph, dps=_SCHEMES[key]()
        )
        row: list[float] = []
        start = 0
        for count in counts:
            admission.admit_many(
                (source, destination, config.spec)
                for source, destination in pairs[start:count]
            )
            row.append(float(admission.accept_count))
            start = count
        return row

    units = [
        (trial, key)
        for trial in range(config.trials)
        for key in _SCHEMES
    ]
    rows = parallel_map(run_unit, units, config.workers)
    totals: dict[str, list[list[float]]] = {key: [] for key in _SCHEMES}
    for (trial, key), row in zip(units, rows):
        totals[key].append(row)
    points = tuple(
        FabricSweepPoint(
            requested=count,
            symmetric_mean=(
                sum(r[i] for r in totals["msym"]) / config.trials
            ),
            proportional_mean=(
                sum(r[i] for r in totals["mprop"]) / config.trials
            ),
        )
        for i, count in enumerate(counts)
    )

    cross_checks: tuple[FabricCrossCheck, ...] = ()
    if config.cross_check:
        checks = []
        for key in sorted(_SCHEMES):
            graph = build_fabric_topology(
                config.topology, config.hosts_per_edge, config.routing_seed
            )
            pairs = _request_stream(
                graph, config.seed, 0, config.requests
            )
            admission = MultiSwitchAdmission(
                fabric=graph, dps=_SCHEMES[key]()
            )
            admission.admit_many(
                (source, destination, config.spec)
                for source, destination in pairs
            )
            checks.append(cross_check_fabric_admission(admission))
        cross_checks = tuple(checks)

    return FabricSweepResult(
        topology=config.topology,
        n_nodes=len(names),
        n_switches=len(probe.switches),
        max_hops=max_hops,
        points=points,
        cross_checks=cross_checks,
    )
