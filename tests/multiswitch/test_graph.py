"""Tests for the graph-based fabric builder and multipath routing."""

from __future__ import annotations

import copy
import importlib
import itertools
import pickle
import zlib
from collections import deque

import pytest

import repro.multiswitch as multiswitch
from repro.errors import RoutingError, TopologyError
from repro.multiswitch import (
    FabricGraph,
    FabricLink,
    MultiSwitchAdmission,
    MultiHopProportional,
    address_pass,
    admission_pass,
    build_chain_graph,
    build_fabric_network,
    build_fat_tree,
    build_star_graph,
    build_tree_graph,
    wiring_pass,
)
from repro.multiswitch.graph import IP_BASE, MAC_BASE


class TestFabricGraphConstruction:
    def test_cycles_are_allowed(self):
        graph = FabricGraph()
        for name in ("a", "b", "c"):
            graph.add_switch(name)
        graph.connect_switches("a", "b")
        graph.connect_switches("b", "c")
        graph.connect_switches("c", "a")  # triangle: fine on a graph
        graph.add_node("n0", "a")
        graph.add_node("n1", "b")
        graph.validate_connected()
        assert not graph.is_tree()
        assert graph.hop_count("n0", "n1") == 3

    def test_switch_fabric_still_rejects_cycles(self):
        """``FabricGraph`` is the one topology type: the tree-only
        ``SwitchFabric`` subclass and its module are gone."""
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.multiswitch.fabric")
        assert not hasattr(multiswitch, "SwitchFabric")
        assert "SwitchFabric" not in multiswitch.__all__

    def test_duplicate_and_empty_names_rejected(self):
        graph = FabricGraph()
        graph.add_switch("sw")
        with pytest.raises(TopologyError, match="already in the fabric"):
            graph.add_switch("sw")
        with pytest.raises(TopologyError, match="non-empty"):
            graph.add_switch("")
        graph.add_node("n", "sw")
        with pytest.raises(TopologyError, match="already in the fabric"):
            graph.add_switch("n")

    def test_parallel_cables_rejected(self):
        graph = FabricGraph()
        graph.add_switch("a")
        graph.add_switch("b")
        graph.connect_switches("a", "b")
        with pytest.raises(TopologyError, match="already cabled"):
            graph.connect_switches("a", "b")
        with pytest.raises(TopologyError, match="itself"):
            graph.connect_switches("a", "a")

    def test_validate_connected_errors(self):
        with pytest.raises(TopologyError, match="empty"):
            FabricGraph().validate_connected()
        graph = FabricGraph()
        graph.add_switch("a")
        graph.add_switch("b")  # never cabled
        with pytest.raises(TopologyError, match="not connected"):
            graph.validate_connected()

    def test_routing_endpoint_validation(self):
        graph = build_star_graph(["n0", "n1"])
        with pytest.raises(RoutingError, match="not an end node"):
            graph.path_links("sw0", "n0")
        with pytest.raises(RoutingError, match="must differ"):
            graph.path_links("n0", "n0")


class TestFatTree:
    def test_k4_shape(self):
        graph = build_fat_tree(4)
        assert len(graph.switches) == 20  # 4 cores + 8 agg + 8 edge
        assert len(graph.nodes) == 16  # density k/2 = 2 per edge switch
        assert graph.edge_count == 48  # 16 core-agg + 16 agg-edge + 16 host

    def test_k8_shape(self):
        graph = build_fat_tree(8)
        assert len(graph.switches) == 80  # 16 cores + 32 agg + 32 edge
        assert len(graph.nodes) == 128  # density 4 per edge switch
        graph.validate_connected()

    def test_density_override(self):
        graph = build_fat_tree(4, hosts_per_edge=13)
        assert len(graph.nodes) == 104  # the >= 100-node sweep scale

    def test_invalid_arity_rejected(self):
        with pytest.raises(TopologyError, match="even"):
            build_fat_tree(3)
        with pytest.raises(TopologyError, match="even"):
            build_fat_tree(0)
        with pytest.raises(TopologyError, match="hosts_per_edge"):
            build_fat_tree(4, hosts_per_edge=0)

    def test_path_lengths(self):
        graph = build_fat_tree(4)
        # same edge switch: host -> edge -> host
        assert graph.hop_count("h0_0_0", "h0_0_1") == 2
        # same pod, different edge: via one aggregation switch
        assert graph.hop_count("h0_0_0", "h0_1_0") == 4
        # different pods: up to a core and down
        assert graph.hop_count("h0_0_0", "h3_1_1") == 6

    def test_equal_cost_fan(self):
        graph = build_fat_tree(4)
        # inter-pod: (k/2)^2 = 4 shortest paths; intra-pod: k/2 = 2.
        assert len(graph.equal_cost_paths("h0_0_0", "h3_1_1")) == 4
        assert len(graph.equal_cost_paths("h0_0_0", "h0_1_0")) == 2
        assert len(graph.equal_cost_paths("h0_0_0", "h0_0_1")) == 1

    def test_paths_are_valley_free(self):
        """Shortest fat-tree paths never go down then up (feed-forward)."""
        graph = build_fat_tree(4)

        def layer(vertex: str) -> int:
            if vertex.startswith("core"):
                return 3
            if vertex.startswith("agg"):
                return 2
            if vertex.startswith("edge"):
                return 1
            return 0

        for path in graph.equal_cost_paths("h0_0_0", "h3_1_1"):
            layers = [layer(v) for v in path]
            peak = layers.index(max(layers))
            assert layers[:peak + 1] == sorted(layers[:peak + 1])
            assert layers[peak:] == sorted(layers[peak:], reverse=True)


class TestDeterministicMultipath:
    def test_selection_is_the_seeded_crc32_tie_break(self):
        graph = build_fat_tree(4, routing_seed=7)
        source, destination = "h0_0_0", "h3_1_1"
        paths = graph.equal_cost_paths(source, destination)
        digest = zlib.crc32(f"7|{source}->{destination}".encode())
        chosen = paths[digest % len(paths)]
        links = graph.path_links(source, destination)
        assert tuple(l.tail for l in links) == chosen[:-1]
        assert links[-1].head == chosen[-1]

    def test_same_seed_same_paths(self):
        a = build_fat_tree(4, routing_seed=3)
        b = build_fat_tree(4, routing_seed=3)
        for pair in [("h0_0_0", "h3_1_1"), ("h1_0_0", "h2_1_0")]:
            assert a.path_links(*pair) == b.path_links(*pair)

    def test_seeds_spread_over_the_fan(self):
        source, destination = "h0_0_0", "h3_1_1"
        chosen = {
            tuple(build_fat_tree(4, routing_seed=seed).path_links(
                source, destination
            ))
            for seed in range(8)
        }
        assert len(chosen) > 1  # the tie-break actually varies by seed

    def test_directions_route_independently(self):
        graph = build_fat_tree(4)
        forward = graph.path_links("h0_0_0", "h3_1_1")
        backward = graph.path_links("h3_1_1", "h0_0_0")
        # both directions are shortest paths; the tie-break hashes the
        # ordered pair, so the reverse direction is chosen independently
        assert len(forward) == len(backward) == 6
        assert forward[0].tail == "h0_0_0"
        assert backward[0].tail == "h3_1_1"

    def test_tree_paths_unaffected_by_seed(self):
        a = build_chain_graph(3, 2, routing_seed=0)
        b = build_chain_graph(3, 2, routing_seed=99)
        assert a.path_links("n0_0", "n2_1") == b.path_links("n0_0", "n2_1")


class TestBuilders:
    def test_chain_graph_matches_switch_fabric_chain(self):
        """The shape the deleted ``SwitchFabric.chain(2, 3)`` built."""
        graph = build_chain_graph(2, 3)
        assert graph.switches == {"sw0", "sw1"}
        assert graph.nodes == {
            "n0_0", "n0_1", "n0_2", "n1_0", "n1_1", "n1_2",
        }
        assert graph.switch_adjacencies() == [("sw0", "sw1")]
        assert graph.path_links("n0_0", "n1_2") == [
            FabricLink("n0_0", "sw0"),
            FabricLink("sw0", "sw1"),
            FabricLink("sw1", "n1_2"),
        ]

    def test_tree_graph_shape(self):
        graph = build_tree_graph(3, 2, 2)
        assert len(graph.switches) == 7  # 1 + 2 + 4
        assert len(graph.nodes) == 8  # 4 leaves x 2 hosts
        graph.validate_connected()
        assert graph.is_tree()
        assert graph.hop_count("n0_0", "n3_1") == 6  # across the root

    def test_star_graph_delegation_preserves_addresses(self):
        from repro.network.topology import build_star

        names = ["alpha", "beta", "gamma"]
        graph = build_star_graph(names)
        addresses = address_pass(graph)
        net = build_star(names)
        for index, name in enumerate(names):
            assert addresses[name].mac == MAC_BASE + index + 1
            assert addresses[name].ip == IP_BASE + index
            assert net.nodes[name].mac == addresses[name].mac
            assert net.nodes[name].ip == addresses[name].ip

    def test_builder_validation(self):
        with pytest.raises(TopologyError):
            build_chain_graph(0, 1)
        with pytest.raises(TopologyError):
            build_tree_graph(1, 0, 1)


class TestPasses:
    def test_address_pass_uses_insertion_order(self):
        graph = FabricGraph()
        graph.add_switch("sw")
        for name in ("zz", "aa", "mm"):  # deliberately unsorted
            graph.add_node(name, "sw")
        addresses = address_pass(graph)
        assert [a.index for a in addresses.values()] is not None
        assert addresses["zz"].index == 0
        assert addresses["aa"].index == 1
        assert addresses["mm"].index == 2

    def test_admission_pass_places_per_link_cache(self):
        graph = build_fat_tree(4)
        admission = admission_pass(graph)
        assert admission.uses_cache
        assert isinstance(admission, MultiSwitchAdmission)
        assert admission.fabric is graph

    def test_wiring_pass_builds_the_data_plane(self):
        graph = build_chain_graph(2, 2)
        net = wiring_pass(graph)
        assert set(net.nodes) == set(graph.nodes)
        assert set(net.switches) == set(graph.switches)


class TestFatTreeAdmission:
    def test_admission_along_multihop_path(self, paper_spec):
        graph = build_fat_tree(4)
        admission = MultiSwitchAdmission(
            fabric=graph, dps=MultiHopProportional()
        )
        decision = admission.request("h0_0_0", "h3_1_1", paper_spec)
        assert decision.accepted
        assert len(decision.links) == 6
        assert sum(decision.parts) == paper_spec.deadline
        for link in decision.links:
            assert admission.link_load(link) == 1

    def test_cache_parity_on_the_fat_tree(self, paper_spec):
        pairs = [
            ("h0_0_0", "h3_1_1"), ("h1_0_0", "h2_1_0"),
            ("h0_0_0", "h0_1_0"), ("h3_1_1", "h0_0_0"),
        ]
        cached = MultiSwitchAdmission(
            fabric=build_fat_tree(4), dps=MultiHopProportional(),
            use_cache=True,
        )
        naive = MultiSwitchAdmission(
            fabric=build_fat_tree(4), dps=MultiHopProportional(),
            use_cache=False,
        )
        for source, destination in pairs * 8:
            got = cached.request(source, destination, paper_spec)
            want = naive.request(source, destination, paper_spec)
            assert got.accepted == want.accepted
            assert got.parts == want.parts
            assert got.links == want.links


def _adjacency(graph: FabricGraph) -> dict[str, set[str]]:
    """The graph's cables, rebuilt through the public queries only."""
    adj: dict[str, set[str]] = {v: set() for v in graph.switches | graph.nodes}
    cables = list(graph.switch_adjacencies())
    cables += [(node, graph.attachment(node)) for node in graph.nodes]
    for a, b in cables:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def _reference_equal_cost_paths(
    adj: dict[str, set[str]], source: str, destination: str
) -> list[tuple[str, ...]]:
    """Per-pair enumeration: a fresh BFS bounded at the destination's
    level (vertices expanded in sorted order), every predecessor path
    walked, the result sorted. The memoised per-source DAG must give
    the same list for every pair."""
    dist = {source: 0}
    preds: dict[str, list[str]] = {}
    queue = deque([source])
    goal = None
    while queue:
        vertex = queue.popleft()
        here = dist[vertex]
        if goal is not None and here >= goal:
            break
        for neighbour in sorted(adj[vertex]):
            if neighbour not in dist:
                dist[neighbour] = here + 1
                preds[neighbour] = [vertex]
                if neighbour == destination:
                    goal = here + 1
                queue.append(neighbour)
            elif dist[neighbour] == here + 1:
                preds[neighbour].append(vertex)
    paths = []

    def walk(vertex: str, suffix: tuple[str, ...]) -> None:
        if vertex == source:
            paths.append((source,) + suffix)
            return
        for pred in preds[vertex]:
            walk(pred, (vertex,) + suffix)

    walk(destination, ())
    return sorted(paths)


def _switch_ring(n_switches: int) -> FabricGraph:
    """A ring of switches (cycles, so equal-cost ties), two nodes each."""
    graph = FabricGraph()
    for i in range(n_switches):
        graph.add_switch(f"r{i}")
    for i in range(n_switches):
        graph.connect_switches(f"r{i}", f"r{(i + 1) % n_switches}")
    for i in range(n_switches):
        for j in range(2):
            graph.add_node(f"m{i}_{j}", f"r{i}")
    return graph


class TestRouteMemo:
    """One BFS predecessor DAG per attachment switch, and one sorted
    equal-cost enumeration per switch pair, serve every end-node pair."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_fat_tree(4, hosts_per_edge=2),
            lambda: build_chain_graph(4, 2),
            lambda: build_tree_graph(3, 2, 2),
            lambda: _switch_ring(6),
        ],
        ids=["fat-tree", "chain", "tree", "ring"],
    )
    def test_every_pair_matches_the_per_pair_enumeration(self, build):
        graph = build()
        adj = _adjacency(graph)
        for source, destination in itertools.permutations(
            graph.node_order, 2
        ):
            assert graph.equal_cost_paths(
                source, destination
            ) == _reference_equal_cost_paths(adj, source, destination)
            assert graph.hop_count(source, destination) == len(
                graph.path_links(source, destination)
            )

    def test_new_cable_forgets_the_memoised_routes(self):
        graph = build_chain_graph(4, 1)
        assert graph.hop_count("n0_0", "n3_0") == 5
        assert len(graph.path_links("n0_0", "n3_0")) == 5
        graph.connect_switches("sw0", "sw3")
        assert graph.path_links("n0_0", "n3_0") == [
            FabricLink("n0_0", "sw0"),
            FabricLink("sw0", "sw3"),
            FabricLink("sw3", "n3_0"),
        ]
        assert graph.hop_count("n0_0", "n3_0") == 3

    def test_network_build_runs_one_bfs_per_attachment_switch(self):
        net = build_fabric_network(build_fat_tree(4, hosts_per_edge=13))
        graph = net.fabric
        edges = {graph.attachment(node) for node in graph.nodes}
        assert len(edges) == 8
        # the worst-hop scan reads switch distances only: at most one
        # DAG per edge switch, and not a single path enumerated or cached
        assert set(graph._dags) <= edges  # noqa: SLF001
        assert graph._routes == {}  # noqa: SLF001
        assert graph._path_cache == {}  # noqa: SLF001
        for source, destination in itertools.permutations(
            graph.node_order, 2
        ):
            graph.path_links(source, destination)
        assert len(graph._path_cache) == 104 * 103  # noqa: SLF001
        # 10 712 host pairs routed over at most 8 x 8 switch pairs
        assert len(graph._dags) <= 8  # noqa: SLF001
        assert len(graph._routes) <= 64  # noqa: SLF001
        assert set(graph._routes) <= set(  # noqa: SLF001
            itertools.product(edges, edges)
        )


class TestEqualCostCap:
    """``MAX_EQUAL_COST_PATHS`` bounds the fan of one switch pair."""

    @pytest.fixture
    def capped(self, monkeypatch):
        graph_module = importlib.import_module("repro.multiswitch.graph")
        monkeypatch.setattr(graph_module, "MAX_EQUAL_COST_PATHS", 3)
        return build_fat_tree(4)

    def test_inter_pod_fan_over_the_cap_names_the_end_nodes(self, capped):
        with pytest.raises(RoutingError) as raised:
            capped.path_links("h0_0_0", "h3_1_1")
        message = str(raised.value)
        assert "more than 3 equal-cost paths" in message
        assert "'h0_0_0'" in message and "'h3_1_1'" in message
        # another host pair over the same edge-switch pair raises again:
        # the failed enumeration memoised nothing
        with pytest.raises(RoutingError) as again:
            capped.equal_cost_paths("h0_0_1", "h3_1_0")
        assert "'h0_0_1'" in str(again.value)
        assert "'h3_1_0'" in str(again.value)
        assert ("edge0_0", "edge3_1") not in capped._routes  # noqa: SLF001
        assert capped._path_cache == {}  # noqa: SLF001

    def test_intra_pod_fan_under_the_cap_still_routes(self, capped):
        assert len(capped.equal_cost_paths("h0_0_0", "h0_1_0")) == 2
        assert len(capped.path_links("h0_0_0", "h0_1_0")) == 4


class TestFabricLinkHash:
    def test_hash_is_the_field_tuples(self):
        link = FabricLink("edge0_0", "agg0_1")
        assert hash(link) == hash(("edge0_0", "agg0_1"))
        assert hash(link.reverse) == hash(("agg0_1", "edge0_0"))

    def test_equality_and_order_ignore_the_cached_hash(self):
        a = FabricLink("a", "b")
        b = FabricLink("a", "b")
        assert a == b and not a < b and a <= b
        object.__setattr__(b, "_hash", a._hash + 1)  # noqa: SLF001
        assert a == b and not a < b and not b < a
        assert FabricLink("a", "b") < FabricLink("a", "c")
        assert sorted([FabricLink("b", "a"), FabricLink("a", "z")]) == [
            FabricLink("a", "z"), FabricLink("b", "a"),
        ]
        assert "_hash" not in repr(a)

    def test_pickling_recomputes_the_hash(self):
        link = FabricLink("edge0_0", "agg0_1")
        # a hash written by another process (str hashes are salted per
        # process) must not survive a pickle round trip
        object.__setattr__(link, "_hash", 12345)  # noqa: SLF001
        loaded = pickle.loads(pickle.dumps(link))
        assert loaded == link
        assert hash(loaded) == hash(("edge0_0", "agg0_1"))
        assert {FabricLink("edge0_0", "agg0_1"): 1}[loaded] == 1
        assert copy.deepcopy(loaded) == loaded
