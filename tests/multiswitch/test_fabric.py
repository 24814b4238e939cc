"""Tests for switch-tree fabrics and routing on the one topology type."""

from __future__ import annotations

import importlib

import pytest

import repro.multiswitch as multiswitch
from repro.errors import RoutingError, TopologyError
from repro.multiswitch.graph import (
    FabricGraph,
    FabricLink,
    build_chain_graph,
    build_star_graph,
)


def line(n_switches=3) -> FabricGraph:
    fabric = FabricGraph()
    for i in range(n_switches):
        fabric.add_switch(f"sw{i}")
        if i:
            fabric.connect_switches(f"sw{i - 1}", f"sw{i}")
    return fabric


class TestConstruction:
    def test_duplicate_names_rejected(self):
        fabric = FabricGraph()
        fabric.add_switch("sw0")
        with pytest.raises(TopologyError):
            fabric.add_switch("sw0")
        fabric.add_node("n0", "sw0")
        with pytest.raises(TopologyError):
            fabric.add_node("n0", "sw0")
        with pytest.raises(TopologyError):
            fabric.add_switch("n0")

    def test_node_needs_existing_switch(self):
        fabric = FabricGraph()
        with pytest.raises(TopologyError):
            fabric.add_node("n0", "ghost")

    def test_cycle_rejected(self):
        """The tree-only ``SwitchFabric`` and its module are gone; a
        redundant cable is a legal multipath fabric on ``FabricGraph``."""
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.multiswitch.fabric")
        assert not hasattr(multiswitch, "SwitchFabric")
        assert "SwitchFabric" not in multiswitch.__all__
        fabric = line(3)
        fabric.connect_switches("sw0", "sw2")
        assert not fabric.is_tree()

    def test_self_loop_rejected(self):
        fabric = line(1)
        with pytest.raises(TopologyError):
            fabric.connect_switches("sw0", "sw0")

    def test_duplicate_cable_rejected(self):
        fabric = line(2)
        with pytest.raises(TopologyError):
            fabric.connect_switches("sw0", "sw1")

    def test_switch_to_node_cable_rejected(self):
        fabric = line(1)
        fabric.add_node("n0", "sw0")
        with pytest.raises(TopologyError):
            fabric.connect_switches("sw0", "n0")

    def test_empty_name_rejected(self):
        fabric = FabricGraph()
        with pytest.raises(TopologyError):
            fabric.add_switch("")


class TestValidation:
    def test_disconnected_fabric_rejected(self):
        fabric = FabricGraph()
        fabric.add_switch("sw0")
        fabric.add_switch("sw1")  # no cable
        fabric.add_node("a", "sw0")
        fabric.add_node("b", "sw1")
        with pytest.raises(TopologyError, match="connected"):
            fabric.path_links("a", "b")

    def test_empty_fabric_rejected(self):
        with pytest.raises(TopologyError):
            FabricGraph().validate_connected()


class TestRouting:
    def test_single_switch_path_is_two_links(self):
        fabric = build_star_graph(["a", "b"])
        links = fabric.path_links("a", "b")
        assert links == [
            FabricLink("a", "sw0"),
            FabricLink("sw0", "b"),
        ]

    def test_cross_fabric_path(self):
        fabric = line(3)
        fabric.add_node("a", "sw0")
        fabric.add_node("b", "sw2")
        links = fabric.path_links("a", "b")
        assert links == [
            FabricLink("a", "sw0"),
            FabricLink("sw0", "sw1"),
            FabricLink("sw1", "sw2"),
            FabricLink("sw2", "b"),
        ]
        assert fabric.hop_count("a", "b") == 4

    def test_reverse_path_uses_reverse_links(self):
        fabric = line(2)
        fabric.add_node("a", "sw0")
        fabric.add_node("b", "sw1")
        forward = fabric.path_links("a", "b")
        backward = fabric.path_links("b", "a")
        assert backward == [link.reverse for link in reversed(forward)]

    def test_switch_endpoints_rejected(self):
        fabric = line(2)
        fabric.add_node("a", "sw0")
        with pytest.raises(RoutingError):
            fabric.path_links("a", "sw1")
        with pytest.raises(RoutingError):
            fabric.path_links("sw0", "a")

    def test_self_route_rejected(self):
        fabric = build_star_graph(["a"])
        with pytest.raises(RoutingError):
            fabric.path_links("a", "a")


class TestFactories:
    def test_chain_shape(self):
        fabric = build_chain_graph(n_switches=3, nodes_per_switch=2)
        assert len(fabric.switches) == 3
        assert len(fabric.nodes) == 6
        assert fabric.hop_count("n0_0", "n2_1") == 4
        assert fabric.hop_count("n1_0", "n1_1") == 2

    def test_chain_validation(self):
        with pytest.raises(TopologyError):
            build_chain_graph(0, 1)


class TestFabricLink:
    def test_reverse(self):
        link = FabricLink("a", "b")
        assert link.reverse == FabricLink("b", "a")
        assert link.reverse.reverse == link

    def test_hashable_ordered(self):
        links = {FabricLink("a", "b"), FabricLink("b", "a")}
        assert len(links) == 2
        assert sorted(links)
