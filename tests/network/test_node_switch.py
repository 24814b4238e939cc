"""Integration tests for EndNode + Switch over the simulated wire."""

from __future__ import annotations

import pytest

from repro.core.channel import ChannelSpec
from repro.core.partitioning import AsymmetricDPS, SymmetricDPS
from repro.errors import TopologyError, UnknownChannelError
from repro.multiswitch.graph import build_chain_graph
from repro.multiswitch.partitioning import MultiHopProportional
from repro.multiswitch.simnet import build_fabric_network
from repro.network.topology import build_star
from repro.protocol.signaling import ConnectionRequestState


@pytest.fixture
def net():
    return build_star(["a", "b", "c"], dps=SymmetricDPS())


class TestHandshake:
    def test_accepted_channel_installs_grant(self, net, paper_spec):
        grant = net.establish("a", "b", paper_spec)
        assert grant is not None
        assert grant.channel_id == 1
        assert grant.uplink_deadline_slots == 20
        assert net.nodes["a"].rt_layer.grants[1] is grant
        assert net.nodes["b"].incoming_channels == {1: 3}

    def test_rejected_channel_reports_none(self, net):
        bad = ChannelSpec(period=100, capacity=3, deadline=5)
        assert net.establish("a", "b", bad) is None
        assert net.rejections == 1
        assert net.nodes["a"].rt_layer.grants == {}

    def test_destination_policy_can_decline(self, paper_spec):
        net = build_star(
            ["a", "b"],
            dps=SymmetricDPS(),
            destination_policy=lambda request: False,
        )
        assert net.establish("a", "b", paper_spec) is None
        # The switch must have released the reservation.
        assert len(net.admission.state) == 0

    def test_source_signaling_state(self, net, paper_spec):
        completed = []
        node = net.nodes["a"]
        node.request_channel(
            destination_mac=net.nodes["b"].mac,
            destination_ip=net.nodes["b"].ip,
            destination_name="b",
            spec=paper_spec,
            on_complete=lambda record, grant: completed.append(record),
        )
        net.sim.run()
        assert len(completed) == 1
        assert completed[0].state is ConnectionRequestState.ACCEPTED
        assert node.signaling.outstanding == 0

    def test_callback_receives_grant(self, net, paper_spec):
        results = []
        node = net.nodes["a"]
        node.request_channel(
            destination_mac=net.nodes["b"].mac,
            destination_ip=net.nodes["b"].ip,
            destination_name="b",
            spec=paper_spec,
            on_complete=lambda req, grant: results.append((req, grant)),
        )
        net.sim.run()
        (request, grant), = results
        assert request.state is ConnectionRequestState.ACCEPTED
        assert grant is not None

    def test_many_channels_fill_uplink(self, net, paper_spec):
        accepted = sum(
            net.establish("a", dest, paper_spec) is not None
            for dest in ["b", "c"] * 4
        )
        assert accepted == 6  # SDPS cap on one uplink

    def test_analytical_matches_wire(self, paper_spec):
        wire = build_star(["a", "b", "c"], dps=AsymmetricDPS())
        fast = build_star(["a", "b", "c"], dps=AsymmetricDPS())
        for dest in ["b", "c"] * 6:
            w = wire.establish("a", dest, paper_spec)
            f = fast.establish_analytically("a", dest, paper_spec)
            assert (w is None) == (f is None)
            if w is not None and f is not None:
                assert (
                    w.uplink_deadline_slots == f.uplink_deadline_slots
                )


class TestDataPath:
    def test_message_arrives_complete(self, net, paper_spec):
        grant = net.establish("a", "b", paper_spec)
        net.nodes["a"].send_message(grant.channel_id)
        net.sim.run()
        stats = net.metrics.channels[grant.channel_id]
        assert stats.frames_delivered == 3
        assert stats.messages_completed == 1
        assert stats.deadline_misses == 0

    def test_periodic_source_produces_messages(self, net, paper_spec):
        grant = net.establish("a", "b", paper_spec)
        net.nodes["a"].start_periodic_source(
            grant.channel_id, stop_after_messages=4
        )
        net.sim.run()
        stats = net.metrics.channels[grant.channel_id]
        assert stats.messages_completed == 4
        assert stats.frames_delivered == 12

    def test_stop_periodic_source(self, net, paper_spec):
        grant = net.establish("a", "b", paper_spec)
        net.nodes["a"].start_periodic_source(grant.channel_id)
        net.run_slots(250)  # a few periods
        net.nodes["a"].stop_periodic_source(grant.channel_id)
        count = net.metrics.channels[grant.channel_id].messages_completed
        net.run_slots(300)
        assert net.metrics.channels[grant.channel_id].messages_completed <= count + 1

    def test_send_on_unknown_channel_raises(self, net):
        with pytest.raises(UnknownChannelError):
            net.nodes["a"].send_message(99)
        with pytest.raises(UnknownChannelError):
            net.nodes["a"].start_periodic_source(99)

    def test_best_effort_delivery(self, net):
        net.nodes["a"].send_best_effort("b", 500)
        net.sim.run()
        assert net.metrics.be_frames_delivered == 1
        assert net.metrics.be_bytes_delivered == 500

    def test_best_effort_to_unknown_destination_dropped(self, net):
        net.nodes["a"].send_best_effort("ghost", 500)
        net.sim.run()
        assert net.metrics.be_frames_delivered == 0
        assert net.switch.frames_dropped == 1


class TestTeardown:
    def test_teardown_frees_capacity(self, net, paper_spec):
        grants = [
            net.establish("a", dest, paper_spec) for dest in ["b", "c"] * 3
        ]
        assert all(g is not None for g in grants)
        assert net.establish("a", "b", paper_spec) is None  # uplink full
        net.nodes["a"].teardown_channel(grants[0].channel_id)
        net.sim.run()
        assert net.establish("a", "b", paper_spec) is not None

    def test_frames_in_flight_after_teardown_dropped(self, net, paper_spec):
        grant = net.establish("a", "b", paper_spec)
        net.nodes["a"].send_message(grant.channel_id)
        # tear down immediately; data frames race the teardown frame but
        # signalling shares the FCFS queue behind the 3 RT frames, so the
        # data always wins here; to force a drop, tear down analytically:
        net.admission.release(grant.channel_id)
        net.sim.run()
        assert net.switch.frames_dropped == 3


class TestTopologyBuilder:
    def test_duplicate_names_rejected(self):
        with pytest.raises(TopologyError):
            build_star(["a", "a"])

    def test_empty_rejected(self):
        with pytest.raises(TopologyError):
            build_star([])

    def test_switch_name_reserved(self):
        with pytest.raises(TopologyError):
            build_star(["a", "switch"])

    def test_unknown_node_lookup(self, net):
        with pytest.raises(TopologyError):
            net.node("ghost")

    def test_deterministic_addressing(self):
        one = build_star(["a", "b"])
        two = build_star(["a", "b"])
        assert one.nodes["a"].mac == two.nodes["a"].mac
        assert one.nodes["b"].ip == two.nodes["b"].ip
        assert one.nodes["a"].mac != one.nodes["b"].mac


class TestProcessingOrder:
    """Frames waiting out a switch's processing delay sit in a FIFO that
    each processing event pops: same-instant arrivals from two uplinks
    are processed, and so forwarded, in the order they arrived."""

    @staticmethod
    def _arrivals_and_deliveries(trace, uplinks, receiver):
        arrivals = [
            (r.time, r.subject, r.detail)
            for r in trace.by_category("link.deliver")
            if r.subject in uplinks
        ]
        delivered = [
            r.detail for r in trace.by_category("node.deliver")
            if r.subject == receiver
        ]
        return arrivals, delivered

    def test_star_switch(self):
        net = build_star(["a", "b", "c"], dps=SymmetricDPS(),
                         trace_enabled=True)
        net.nodes["a"].send_best_effort("c", 500)
        net.nodes["b"].send_best_effort("c", 500)
        net.sim.run()
        arrivals, delivered = self._arrivals_and_deliveries(
            net.trace, ("a->switch", "b->switch"), "c"
        )
        assert [subject for _, subject, _ in arrivals] == [
            "a->switch", "b->switch"
        ]
        assert arrivals[0][0] == arrivals[1][0]  # one instant
        assert delivered == [detail for _, _, detail in arrivals]

    def test_fabric_switch_model(self):
        net = build_fabric_network(
            build_chain_graph(2, 2), MultiHopProportional(),
            trace_enabled=True,
        )
        spec = ChannelSpec(period=100, capacity=1, deadline=60)
        channels = [
            net.establish(source, "n1_0", spec).channel_id
            for source in ("n0_0", "n0_1")
        ]
        for source, channel in zip(("n0_0", "n0_1"), channels):
            net.nodes[source].send_message(channel)
        net.sim.run()
        arrivals, delivered = self._arrivals_and_deliveries(
            net.trace, ("n0_0->sw0", "n0_1->sw0"), "n1_0"
        )
        assert [subject for _, subject, _ in arrivals] == [
            "n0_0->sw0", "n0_1->sw0"
        ]
        assert arrivals[0][0] == arrivals[1][0]  # one instant
        # equal deadlines, so per-hop EDF keeps the processing order
        assert delivered == [detail for _, _, detail in arrivals]
