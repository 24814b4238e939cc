"""Graph-based fabric topologies: fat-tree, tree, chain, star + routing.

:class:`FabricGraph` is the one switch-topology type: switch-to-switch
cables may form a tree or cycles (multipath fabrics such as
Clos/fat-tree networks), and routing picks among the equal-cost
shortest paths with a deterministic, *seeded* tie-break so every run
of every process selects the same path for the same (source,
destination) pair.

Construction follows the build-the-graph-then-run-passes idiom: a
builder first lays down the pure vertex/edge structure, then explicit
*passes* run over the finished graph --

* :func:`address_pass` -- deterministic MAC/IP assignment for every
  end node (the exact scheme :func:`repro.network.topology.build_star`
  has always used, now shared);
* :func:`admission_pass` -- place a
  :class:`~repro.multiswitch.admission.MultiSwitchAdmission` (one
  :class:`~repro.core.feasibility_cache.FeasibilityCache` entry per
  directed fabric link) on the graph;
* :func:`wiring_pass` -- materialize the data plane (every node,
  switch, wire and dual queue) as a
  :class:`~repro.multiswitch.simnet.FabricNetwork`.

Everything here is pure Python over adjacency sets -- no third-party
graph library -- so routing behaviour is fully pinned by this file.

Routing determinism
-------------------
All shortest vertex paths between the two end nodes are enumerated
from the source's breadth-first predecessor DAG (vertices expanded in
sorted order; one DAG per source, memoised and cleared together with
the path cache whenever the graph changes), canonically sorted, and
one is selected by indexing with a CRC-32 digest of
``"{routing_seed}|{source}->{destination}"``.  The
digest is stable across platforms, processes and Python hash
randomization, so the choice is reproducible under a fixed seed while
still spreading distinct node pairs over the equal-cost fan
(ECMP-style).  The two directions of a pair hash differently and are
routed independently -- each direction is a distinct set of directed
links anyway.
"""

from __future__ import annotations

import zlib
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Sequence

from ..errors import RoutingError, TopologyError

__all__ = [
    "MAC_BASE",
    "IP_BASE",
    "MAX_EQUAL_COST_PATHS",
    "FabricLink",
    "NodeAddress",
    "FabricGraph",
    "address_pass",
    "admission_pass",
    "wiring_pass",
    "build_star_graph",
    "build_chain_graph",
    "build_tree_graph",
    "build_fat_tree",
]

#: Locally administered MAC prefix for generated end-node addresses.
MAC_BASE = 0x02_00_00_00_00_00
#: First generated IPv4 address (10.0.0.1), assigned in node order.
IP_BASE = 0x0A_00_00_01

#: Safety cap on the equal-cost path fan between one node pair.  A
#: fat-tree's fan is (k/2)^2 (16 for k=8); anything past this cap is a
#: pathological mesh the admission analysis was never meant for.
MAX_EQUAL_COST_PATHS = 4096


@dataclass(frozen=True, slots=True, order=True)
class FabricLink:
    """One directed link of a fabric: the unit of feasibility analysis.

    ``tail`` transmits, ``head`` receives. The reverse direction of the
    same cable is a distinct :class:`FabricLink` (full duplex).
    """

    tail: str
    head: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.tail}->{self.head}"

    @property
    def reverse(self) -> "FabricLink":
        return FabricLink(tail=self.head, head=self.tail)


@dataclass(frozen=True, slots=True)
class NodeAddress:
    """Deterministic layer-2/3 identity of one end node."""

    index: int
    mac: int
    ip: int


class FabricGraph:
    """A general switch graph (cycles allowed) with end nodes at leaves.

    Internal vertices are switches; end nodes attach to exactly one
    switch by one full-duplex cable.  :meth:`connect_switches` accepts
    redundant cables, so multipath fabrics (rings, Clos, fat-trees) are
    expressible; routing resolves the resulting equal-cost ambiguity
    deterministically (see the module docstring), and on a tree the
    shortest path is unique.

    Parameters
    ----------
    routing_seed:
        Salt of the equal-cost tie-break digest.  Two graphs with the
        same structure and seed route identically; changing the seed
        re-spreads pairs across the equal-cost fan.
    """

    def __init__(self, routing_seed: int = 0) -> None:
        self._adj: dict[str, set[str]] = {}
        self._switches: set[str] = set()
        self._node_order: list[str] = []
        self._node_set: set[str] = set()
        self._edge_count = 0
        self.routing_seed = routing_seed
        self._path_cache: dict[tuple[str, str], tuple[FabricLink, ...]] = {}
        #: source -> (BFS distances, predecessor lists); see :meth:`_dag`
        self._dags: dict[str, tuple[dict, dict]] = {}
        self._validated = False

    # -- construction ------------------------------------------------------

    def add_switch(self, name: str) -> None:
        """Add an (initially unconnected) switch."""
        self._check_fresh(name)
        self._switches.add(name)
        self._adj.setdefault(name, set())
        self._invalidate()

    def add_node(self, name: str, switch: str) -> None:
        """Attach an end node to a switch by one cable."""
        self._check_fresh(name)
        if switch not in self._switches:
            raise TopologyError(f"unknown switch {switch!r}")
        self._node_set.add(name)
        self._node_order.append(name)
        self._adj.setdefault(name, set())
        self._add_edge(name, switch)

    def connect_switches(self, a: str, b: str) -> None:
        """Cable two switches together (redundant paths are allowed)."""
        self._pre_connect_checks(a, b)
        self._add_edge(a, b)

    def _pre_connect_checks(self, a: str, b: str) -> None:
        if a not in self._switches or b not in self._switches:
            raise TopologyError(f"both {a!r} and {b!r} must be switches")
        if a == b:
            raise TopologyError(f"cannot cable switch {a!r} to itself")
        if b in self._adj.get(a, ()):
            raise TopologyError(f"switches {a!r} and {b!r} are already cabled")

    def _add_edge(self, a: str, b: str) -> None:
        self._adj.setdefault(a, set()).add(b)
        self._adj.setdefault(b, set()).add(a)
        self._edge_count += 1
        self._invalidate()

    def _invalidate(self) -> None:
        self._path_cache.clear()
        self._dags.clear()
        self._validated = False

    def _check_fresh(self, name: str) -> None:
        if not name:
            raise TopologyError("names must be non-empty")
        if name in self._switches or name in self._node_set:
            raise TopologyError(f"{name!r} is already in the fabric")

    # -- queries -----------------------------------------------------------

    @property
    def switches(self) -> frozenset[str]:
        return frozenset(self._switches)

    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(self._node_set)

    @property
    def node_order(self) -> tuple[str, ...]:
        """End nodes in insertion order (the address pass's ordering)."""
        return tuple(self._node_order)

    def is_node(self, name: str) -> bool:
        return name in self._node_set

    @property
    def vertex_count(self) -> int:
        return len(self._adj)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def is_tree(self) -> bool:
        """True when the (connected) graph has no redundant cable."""
        return self._edge_count == len(self._adj) - 1

    def _reachable(self, start: str, goal: str) -> bool:
        seen = {start}
        queue = deque([start])
        while queue:
            vertex = queue.popleft()
            if vertex == goal:
                return True
            for neighbour in self._adj[vertex]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    queue.append(neighbour)
        return False

    def validate_connected(self) -> None:
        """Raise unless the fabric is non-empty and connected."""
        if self._validated:
            return
        if not self._adj:
            raise TopologyError("the fabric is empty")
        start = next(iter(self._adj))
        seen = {start}
        queue = deque([start])
        while queue:
            for neighbour in self._adj[queue.popleft()]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    queue.append(neighbour)
        if len(seen) != len(self._adj):
            raise TopologyError("the fabric is not connected")
        self._validated = True

    # -- routing -----------------------------------------------------------

    def equal_cost_paths(
        self, source: str, destination: str
    ) -> list[tuple[str, ...]]:
        """All shortest vertex paths, canonically (lexically) sorted.

        The list is a pure function of the graph structure: the
        predecessor DAG is built with vertices expanded in sorted order
        and the enumerated paths are sorted, so neither set iteration
        order nor hash randomization can leak into the result.
        """
        self._check_endpoints(source, destination)
        self.validate_connected()
        return self._all_shortest(source, destination)

    def _check_endpoints(self, source: str, destination: str) -> None:
        if source not in self._node_set:
            raise RoutingError(f"source {source!r} is not an end node")
        if destination not in self._node_set:
            raise RoutingError(
                f"destination {destination!r} is not an end node"
            )
        if source == destination:
            raise RoutingError("source and destination must differ")

    def _dag(
        self, source: str
    ) -> tuple[dict[str, int], dict[str, list[str]]]:
        """BFS distances and shortest-path predecessors from ``source``.

        Vertices are expanded in sorted order, so every predecessor list
        is a pure function of the graph. Memoised per source until the
        graph changes (:meth:`_invalidate`).
        """
        dag = self._dags.get(source)
        if dag is not None:
            return dag
        dist: dict[str, int] = {source: 0}
        preds: dict[str, list[str]] = {}
        queue = deque([source])
        while queue:
            vertex = queue.popleft()
            here = dist[vertex]
            for neighbour in sorted(self._adj[vertex]):
                if neighbour not in dist:
                    dist[neighbour] = here + 1
                    preds[neighbour] = [vertex]
                    queue.append(neighbour)
                elif dist[neighbour] == here + 1:
                    preds[neighbour].append(vertex)
        dag = self._dags[source] = (dist, preds)
        return dag

    def _all_shortest(
        self, source: str, destination: str
    ) -> list[tuple[str, ...]]:
        dist, preds = self._dag(source)
        if destination not in dist:  # pragma: no cover - validate_connected
            raise RoutingError(
                f"no path from {source!r} to {destination!r}"
            )

        paths: list[tuple[str, ...]] = []

        def walk(vertex: str, suffix: tuple[str, ...]) -> None:
            if vertex == source:
                paths.append((source,) + suffix)
                if len(paths) > MAX_EQUAL_COST_PATHS:
                    raise RoutingError(
                        f"more than {MAX_EQUAL_COST_PATHS} equal-cost "
                        f"paths between {source!r} and {destination!r}"
                    )
                return
            for pred in preds[vertex]:
                walk(pred, (vertex,) + suffix)

        walk(destination, ())
        paths.sort()
        return paths

    def _route_index(self, source: str, destination: str, fan: int) -> int:
        """Seeded, platform-stable index into the sorted equal-cost fan."""
        if fan == 1:
            return 0
        digest = zlib.crc32(
            f"{self.routing_seed}|{source}->{destination}".encode()
        )
        return digest % fan

    def path_links(
        self, source: str, destination: str
    ) -> list[FabricLink]:
        """Ordered directed links of the selected shortest path.

        The first link is the source's uplink into its switch, the last
        is the destination's downlink; links in between are inter-switch
        hops.  Among equal-cost shortest paths the choice is the seeded
        deterministic tie-break (module docstring); on trees the path
        is unique and the tie-break is vacuous.
        """
        key = (source, destination)
        cached = self._path_cache.get(key)
        if cached is None:
            paths = self.equal_cost_paths(source, destination)
            chosen = paths[self._route_index(source, destination, len(paths))]
            cached = tuple(
                FabricLink(tail=a, head=b)
                for a, b in zip(chosen, chosen[1:])
            )
            self._path_cache[key] = cached
        return list(cached)

    def hop_count(self, source: str, destination: str) -> int:
        """Number of links a channel between these nodes traverses.

        Every equal-cost path has the BFS distance as its length, so
        this needs no path enumeration.
        """
        self._check_endpoints(source, destination)
        self.validate_connected()
        return self._dag(source)[0][destination]

    def attachment(self, node: str) -> str:
        """The switch an end node is cabled to (leaves have exactly one)."""
        if node not in self._node_set:
            raise RoutingError(f"{node!r} is not an end node")
        neighbours = list(self._adj[node])
        if len(neighbours) != 1:  # pragma: no cover - construction forbids
            raise TopologyError(
                f"end node {node!r} has {len(neighbours)} cables"
            )
        return neighbours[0]

    def switch_adjacencies(self) -> list[tuple[str, str]]:
        """All switch-to-switch cables, each once, deterministically ordered."""
        edges = set()
        for a in self._switches:
            for b in self._adj[a]:
                if b in self._switches:
                    edges.add((min(a, b), max(a, b)))
        return sorted(edges)


# -- passes ----------------------------------------------------------------


def address_pass(fabric: FabricGraph) -> dict[str, NodeAddress]:
    """Deterministic MAC/IP assignment for every end node.

    Nodes are numbered in insertion order (falling back to sorted name
    order for fabric objects that do not track insertion); node ``i``
    gets MAC ``MAC_BASE + i + 1`` and IP ``IP_BASE + i`` -- exactly the
    scheme the star builder has used since the seed, so delegating to
    this pass changes no address anywhere.
    """
    order = getattr(fabric, "node_order", None)
    names: Sequence[str] = (
        tuple(order) if order is not None else tuple(sorted(fabric.nodes))
    )
    return {
        name: NodeAddress(index=i, mac=MAC_BASE + i + 1, ip=IP_BASE + i)
        for i, name in enumerate(names)
    }


def admission_pass(fabric: FabricGraph, dps=None):
    """Place multi-hop admission control on the (validated) graph.

    Returns a :class:`~repro.multiswitch.admission.MultiSwitchAdmission`
    with one per-directed-link feasibility-cache entry, the k-way
    proportional scheme by default.
    """
    from .admission import MultiSwitchAdmission
    from .partitioning import MultiHopProportional

    return MultiSwitchAdmission(
        fabric=fabric,
        dps=dps if dps is not None else MultiHopProportional(),
    )


def wiring_pass(fabric: FabricGraph, dps=None, **kwargs):
    """Materialize the data plane: every node, switch, wire and queue.

    Thin alias for
    :func:`~repro.multiswitch.simnet.build_fabric_network`, named as the
    pass it is in the build-then-passes pipeline.
    """
    from .simnet import build_fabric_network

    return build_fabric_network(fabric, dps=dps, **kwargs)


# -- builders --------------------------------------------------------------


def build_star_graph(
    node_names: Sequence[str],
    *,
    switch_name: str = "sw0",
    routing_seed: int = 0,
) -> FabricGraph:
    """The paper's star (Figure 18.1) as a one-switch graph."""
    graph = FabricGraph(routing_seed=routing_seed)
    graph.add_switch(switch_name)
    for name in node_names:
        graph.add_node(name, switch_name)
    return graph


def build_chain_graph(
    n_switches: int,
    nodes_per_switch: int,
    *,
    routing_seed: int = 0,
) -> FabricGraph:
    """A line of switches, each with its own stations.

    Node names are ``n{switch}_{index}``; switch names ``sw{i}``.
    The worst-case path crosses all ``n_switches + 1`` links.
    """
    if n_switches <= 0 or nodes_per_switch <= 0:
        raise TopologyError(
            "chain needs >= 1 switch and >= 1 node per switch"
        )
    graph = FabricGraph(routing_seed=routing_seed)
    for i in range(n_switches):
        graph.add_switch(f"sw{i}")
        if i > 0:
            graph.connect_switches(f"sw{i - 1}", f"sw{i}")
        for j in range(nodes_per_switch):
            graph.add_node(f"n{i}_{j}", f"sw{i}")
    return graph


def build_tree_graph(
    depth: int,
    fanout: int,
    hosts_per_leaf: int,
    *,
    routing_seed: int = 0,
) -> FabricGraph:
    """A complete switch tree: ``fanout``-ary, ``depth`` switch levels.

    Switches are named ``t{level}_{index}`` breadth-first; hosts
    ``n{leaf}_{j}`` hang off the ``fanout**(depth-1)`` leaf switches.
    """
    if depth <= 0 or fanout <= 0 or hosts_per_leaf <= 0:
        raise TopologyError(
            "tree needs depth, fanout and hosts_per_leaf all >= 1"
        )
    graph = FabricGraph(routing_seed=routing_seed)
    for level in range(depth):
        for index in range(fanout**level):
            graph.add_switch(f"t{level}_{index}")
            if level > 0:
                graph.connect_switches(
                    f"t{level - 1}_{index // fanout}", f"t{level}_{index}"
                )
    leaves = fanout ** (depth - 1)
    for leaf in range(leaves):
        for j in range(hosts_per_leaf):
            graph.add_node(f"n{leaf}_{j}", f"t{depth - 1}_{leaf}")
    return graph


def build_fat_tree(
    k: int,
    hosts_per_edge: int | None = None,
    *,
    routing_seed: int = 0,
) -> FabricGraph:
    """A k-ary fat-tree: core/aggregation/edge layers, hosts at edges.

    The classic Clos arrangement (k = 4 or 8 canonically): ``(k/2)^2``
    core switches ``core{c}``; ``k`` pods of ``k/2`` aggregation
    switches ``agg{pod}_{a}`` and ``k/2`` edge switches
    ``edge{pod}_{e}``; full bipartite edge-agg wiring inside a pod;
    aggregation switch ``a`` of every pod cables to core group ``a``
    (cores ``a*(k/2) .. a*(k/2)+k/2-1``).  ``hosts_per_edge`` (the
    Sieve builder's *density*) defaults to the standard ``k/2``, giving
    ``k^3/4`` hosts; raise it to scale host count without growing the
    switch fabric.  Inter-pod pairs see ``(k/2)^2`` equal-cost paths,
    intra-pod pairs ``k/2`` -- resolved by the seeded tie-break.
    """
    if k < 2 or k % 2:
        raise TopologyError(f"fat-tree arity must be even and >= 2, got {k}")
    half = k // 2
    density = half if hosts_per_edge is None else hosts_per_edge
    if density <= 0:
        raise TopologyError(
            f"hosts_per_edge must be >= 1, got {hosts_per_edge}"
        )
    graph = FabricGraph(routing_seed=routing_seed)
    for c in range(half * half):
        graph.add_switch(f"core{c}")
    for pod in range(k):
        for a in range(half):
            graph.add_switch(f"agg{pod}_{a}")
            for c in range(half):
                graph.connect_switches(f"agg{pod}_{a}", f"core{a * half + c}")
        for e in range(half):
            graph.add_switch(f"edge{pod}_{e}")
            for a in range(half):
                graph.connect_switches(f"edge{pod}_{e}", f"agg{pod}_{a}")
            for i in range(density):
                graph.add_node(f"h{pod}_{e}_{i}", f"edge{pod}_{e}")
    return graph
