"""Tests for the fabric data plane (multi-hop EDF simulation)."""

from __future__ import annotations

import pytest

from repro.core.channel import ChannelSpec
from repro.errors import SimulationError, UnknownChannelError
from repro.multiswitch.graph import address_pass, build_chain_graph
from repro.multiswitch.partitioning import (
    MultiHopProportional,
    MultiHopSymmetric,
)
from repro.multiswitch.simnet import build_fabric_network
from repro.network.node import EndNode
from repro.obs.profiling import KernelProfiler

SPEC = ChannelSpec(period=100, capacity=3, deadline=60)


def chain_network(n_switches=3, nodes_per_switch=2, dps=None):
    fabric = build_chain_graph(n_switches, nodes_per_switch)
    return build_fabric_network(fabric, dps=dps)


class TestWiring:
    def test_every_node_has_an_uplink(self):
        net = chain_network()
        for node in net.nodes.values():
            assert node.uplink is not None

    def test_switch_port_counts(self):
        net = chain_network(3, 2)
        # edge switches: 2 stations + 1 trunk; middle: 2 stations + 2 trunks
        assert len(net.switches["sw0"].ports) == 3
        assert len(net.switches["sw1"].ports) == 4
        assert len(net.switches["sw2"].ports) == 3

    def test_t_latency_scales_with_max_hops(self):
        short = chain_network(1, 2)
        long = chain_network(4, 2)
        assert long.metrics.t_latency_ns > short.metrics.t_latency_ns

    def test_leaves_are_the_star_end_node(self):
        net = chain_network()
        addresses = address_pass(net.fabric)
        for name, node in net.nodes.items():
            assert type(node) is EndNode
            assert (node.mac, node.ip) == (
                addresses[name].mac, addresses[name].ip
            )

    def test_traced_run_reads_like_a_star_run(self):
        """The RT layer traces ``rt.emit`` and sources carry the star's
        ``start``/``period`` labels."""
        net = build_fabric_network(build_chain_graph(3, 2), trace_enabled=True)
        for source, destination in (
            ("n0_0", "n2_0"), ("n0_1", "n2_1"), ("n2_0", "n0_1"),
            ("n1_0", "n1_1"),
        ):
            assert net.establish(source, destination, SPEC) is not None
        profiler = KernelProfiler()
        net.sim.profiler = profiler
        net.start_all_sources(stop_after_messages=4)
        net.sim.run()
        assert len(net.trace.by_category("rt.emit")) == 16
        rows = {label: count for label, count, _, _ in profiler.rows()}
        assert (rows["start"], rows["period"]) == (4, 16)
        assert "(unlabelled)" not in rows


class TestEstablishment:
    def test_accept_installs_grant_and_routes(self):
        net = chain_network()
        channel = net.establish("n0_0", "n2_0", SPEC)
        assert channel is not None
        assert len(channel.links) == 4
        # uplink grant on the source node
        grants = net.nodes["n0_0"].rt_layer.grants
        assert channel.channel_id in grants
        # forwarding installed on all three switches along the path
        for switch_name in ("sw0", "sw1", "sw2"):
            switch = net.switches[switch_name]
            assert channel.channel_id in switch._forwarding  # noqa: SLF001

    def test_reject_returns_none(self):
        net = chain_network()
        bad = ChannelSpec(period=100, capacity=3, deadline=8)  # < 4 hops * 3
        assert net.establish("n0_0", "n2_0", bad) is None

    def test_release_clears_routes(self):
        net = chain_network()
        channel = net.establish("n0_0", "n2_0", SPEC)
        net.release(channel.channel_id)
        assert net.channels == []
        for switch in net.switches.values():
            assert channel.channel_id not in switch._forwarding  # noqa: SLF001

    def test_release_stops_the_source(self):
        net = chain_network(2, 2)
        channel = net.establish("n0_0", "n1_0", SPEC)
        net.start_all_sources()
        period_ns = SPEC.period * net.phy.slot_ns
        # two messages delivered; the third is not yet released
        net.sim.run(until=2 * period_ns - 1)
        assert net.metrics.total_rt_messages == 2
        dropped = sum(s.frames_dropped for s in net.switches.values())
        net.release(channel.channel_id)
        net.sim.run(until=net.sim.now + 5 * period_ns)
        assert sum(s.frames_dropped for s in net.switches.values()) == dropped
        assert channel.channel_id not in net.nodes["n0_0"].rt_layer.grants
        assert net.sim.pending_events == 0

    def test_a_wrapped_channel_id_delivers(self):
        # Start the ID hint at the top of the 16-bit space instead of
        # making 65 535 channels: the next ID after 65 535 is 1, which
        # the RT header can carry.
        net = chain_network(2, 2)
        net.admission._next_id = net.admission.MAX_CHANNEL_ID
        first = net.establish("n0_0", "n1_0", SPEC)
        assert first.channel_id == 65_535
        net.release(first.channel_id)
        second = net.establish("n0_0", "n1_0", SPEC)
        assert second.channel_id == 1
        net.start_all_sources(stop_after_messages=3)
        net.sim.run()
        assert net.metrics.total_rt_messages == 3

    def test_cumulative_deadlines_increase_along_path(self):
        net = chain_network()
        channel = net.establish("n0_0", "n2_0", SPEC)
        offsets = []
        for link in channel.links[1:]:
            entry = net.switches[link.tail]._forwarding[  # noqa: SLF001
                channel.channel_id
            ]
            offsets.append(entry.cumulative_deadline_slots)
        assert offsets == sorted(offsets)
        assert offsets[-1] == SPEC.deadline  # last hop = end-to-end deadline
        grant = net.nodes["n0_0"].rt_layer.grants[channel.channel_id]
        assert grant.uplink_deadline_slots == channel.parts[0]


class TestDataPlane:
    @pytest.mark.parametrize(
        "dps", [MultiHopSymmetric(), MultiHopProportional()]
    )
    def test_no_misses_at_critical_instant(self, dps):
        net = chain_network(3, 3, dps=dps)
        established = 0
        for i in range(3):
            for j in range(3):
                if net.establish(f"n0_{i}", f"n2_{j}", SPEC) is not None:
                    established += 1
        assert established > 0
        net.start_all_sources(stop_after_messages=3)
        net.sim.run()
        assert net.metrics.total_deadline_misses == 0
        assert net.per_link_misses() == 0
        assert net.metrics.total_rt_messages == 3 * established

    def test_local_and_cross_traffic_coexist(self):
        net = chain_network(2, 2)
        local = net.establish("n0_0", "n0_1", SPEC)
        cross = net.establish("n1_0", "n0_0", SPEC)
        assert local is not None and cross is not None
        assert len(local.links) == 2
        assert len(cross.links) == 3
        net.start_all_sources(stop_after_messages=2)
        net.sim.run()
        assert net.metrics.total_deadline_misses == 0
        assert net.metrics.total_rt_messages == 4

    def test_trunk_contention_still_meets_deadlines(self):
        """Many channels share one trunk at the critical instant."""
        net = chain_network(2, 4)
        established = 0
        for i in range(4):
            for j in range(4):
                if net.establish(f"n0_{i}", f"n1_{j}", SPEC) is not None:
                    established += 1
        assert established >= 4  # the trunk is the bottleneck
        net.start_all_sources(stop_after_messages=2)
        net.sim.run()
        assert net.metrics.total_deadline_misses == 0
        trunk = net.switches["sw0"].ports["sw1"]
        assert trunk.stats.rt_transmitted == established * 3 * 2

    def test_frames_to_unrouted_channel_dropped(self):
        net = chain_network()
        channel = net.establish("n0_0", "n2_0", SPEC)
        net.nodes["n0_0"].send_message(channel.channel_id)
        # remove the route mid-flight at sw1
        net.switches["sw1"].remove_route(channel.channel_id)
        net.sim.run()
        assert net.switches["sw1"].frames_dropped == 3

    def test_send_on_unknown_channel_raises(self):
        net = chain_network()
        with pytest.raises(UnknownChannelError):
            net.nodes["n0_0"].start_periodic_source(99)

    def test_install_route_to_unknown_neighbour_rejected(self):
        net = chain_network()
        with pytest.raises(SimulationError):
            net.switches["sw0"].install_route(1, "ghost", 10)


class TestFabricHelpers:
    def test_attachment(self):
        fabric = build_chain_graph(2, 2)
        assert fabric.attachment("n0_0") == "sw0"
        assert fabric.attachment("n1_1") == "sw1"
        from repro.errors import RoutingError

        with pytest.raises(RoutingError):
            fabric.attachment("sw0")

    def test_switch_adjacencies(self):
        fabric = build_chain_graph(3, 1)
        assert fabric.switch_adjacencies() == [("sw0", "sw1"), ("sw1", "sw2")]
