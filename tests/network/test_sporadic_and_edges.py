"""Tests for sporadic sources and remaining node/switch edge cases."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.channel import ChannelSpec
from repro.core.partitioning import AsymmetricDPS, SymmetricDPS
from repro.errors import (
    ProtocolError,
    SimulationError,
    UnknownChannelError,
)
from repro.network.topology import build_star
from repro.protocol.ethernet import EthernetFrame, FrameKind


class TestSporadicSources:
    def test_sporadic_traffic_meets_all_deadlines(self):
        """Sporadic releases (gaps >= P) demand no more than periodic:
        the periodic reservation still guarantees every deadline."""
        net = build_star(
            ["m"] + [f"s{i}" for i in range(6)], dps=SymmetricDPS()
        )
        spec = ChannelSpec(period=100, capacity=3, deadline=40)
        rng = np.random.default_rng(21)
        for i in range(6):
            grant = net.establish_analytically("m", f"s{i}", spec)
            net.nodes["m"].start_sporadic_source(
                grant.channel_id, rng=rng, stop_after_messages=8,
                mean_extra_gap_slots=30.0,
            )
        net.sim.run()
        assert net.metrics.total_rt_messages == 48
        assert net.metrics.total_deadline_misses == 0

    def test_gaps_are_at_least_one_period(self):
        net = build_star(["a", "b"], dps=SymmetricDPS())
        spec = ChannelSpec(period=50, capacity=1, deadline=20)
        grant = net.establish_analytically("a", "b", spec)
        releases = []
        original = net.nodes["a"].send_message

        def spy(channel_id):
            releases.append(net.sim.now)
            return original(channel_id)

        net.nodes["a"].send_message = spy  # type: ignore[method-assign]
        net.nodes["a"].start_sporadic_source(
            grant.channel_id, rng=np.random.default_rng(5),
            stop_after_messages=20,
        )
        net.sim.run()
        period_ns = 50 * net.phy.slot_ns
        gaps = [b - a for a, b in zip(releases, releases[1:])]
        assert all(gap >= period_ns for gap in gaps)

    def test_sporadic_requires_grant(self):
        net = build_star(["a", "b"], dps=SymmetricDPS())
        with pytest.raises(UnknownChannelError):
            net.nodes["a"].start_sporadic_source(
                9, rng=np.random.default_rng(1)
            )

    def test_negative_gap_rejected(self):
        net = build_star(["a", "b"], dps=SymmetricDPS())
        grant = net.establish_analytically(
            "a", "b", ChannelSpec(period=100, capacity=3, deadline=40)
        )
        with pytest.raises(SimulationError):
            net.nodes["a"].start_sporadic_source(
                grant.channel_id,
                rng=np.random.default_rng(1),
                mean_extra_gap_slots=-1.0,
            )


class TestNodeEdgeCases:
    def test_double_uplink_attach_rejected(self):
        net = build_star(["a", "b"], dps=SymmetricDPS())
        with pytest.raises(SimulationError, match="already has an uplink"):
            net.nodes["a"].attach_uplink(net.nodes["b"].uplink)

    def test_unexpected_signaling_payload_raises(self):
        net = build_star(["a", "b"], dps=SymmetricDPS())
        bogus = EthernetFrame(
            kind=FrameKind.SIGNALING,
            source="switch",
            destination="a",
            payload_bytes=11,
            payload_object="garbage",
        )
        with pytest.raises(ProtocolError, match="unexpected"):
            net.nodes["a"].receive(bogus)

    def test_malformed_tuple_payload_raises(self):
        net = build_star(["a", "b"], dps=SymmetricDPS())
        bogus = EthernetFrame(
            kind=FrameKind.SIGNALING,
            source="switch",
            destination="a",
            payload_bytes=11,
            payload_object=("not a response", "not a grant"),
        )
        with pytest.raises(ProtocolError, match="malformed"):
            net.nodes["a"].receive(bogus)

    def test_teardown_of_unknown_channel_raises(self):
        net = build_star(["a", "b"], dps=SymmetricDPS())
        with pytest.raises(UnknownChannelError):
            net.nodes["a"].teardown_channel(5)


class TestSwitchEdgeCases:
    def test_duplicate_port_attach_rejected(self):
        net = build_star(["a", "b"], dps=SymmetricDPS())
        port = net.switch.port_toward("a")
        with pytest.raises(SimulationError, match="already has a port"):
            net.switch.attach_port("a", port)

    def test_port_toward_unknown_raises(self):
        net = build_star(["a", "b"], dps=SymmetricDPS())
        with pytest.raises(SimulationError, match="no port"):
            net.switch.port_toward("ghost")

    def test_unexpected_signaling_at_switch_raises(self):
        net = build_star(["a", "b"], dps=SymmetricDPS())
        bogus = EthernetFrame(
            kind=FrameKind.SIGNALING,
            source="a",
            destination="switch",
            payload_bytes=11,
            payload_object=12345,
        )
        net.switch.receive(bogus)
        with pytest.raises(ProtocolError, match="unexpected"):
            net.sim.run()

    def test_forwarded_counters(self):
        net = build_star(["a", "b"], dps=AsymmetricDPS())
        grant = net.establish_analytically(
            "a", "b", ChannelSpec(period=100, capacity=3, deadline=40)
        )
        net.nodes["a"].send_message(grant.channel_id)
        net.nodes["a"].send_best_effort("b", 100)
        net.sim.run()
        assert net.switch.frames_forwarded == 4  # 3 RT + 1 BE
        assert net.switch.frames_dropped == 0


class TestSourceRestart:
    """Each start owns its event chain: a stopped chain dies at its next
    event even if the channel's source was started again meanwhile, and
    a channel never runs two sources at once."""

    SPEC = ChannelSpec(period=100, capacity=1, deadline=40)

    def _net(self):
        net = build_star(["m", "s"], dps=SymmetricDPS())
        grant = net.establish_analytically("m", "s", self.SPEC)
        return net, net.nodes["m"], grant.channel_id

    def _stop_and_restart(self, start):
        net, node, channel = self._net()
        start(node, channel, 10)
        net.run_slots(150)
        before = net.metrics.total_rt_messages
        node.stop_periodic_source(channel)
        net.run_slots(10)
        start(node, channel, 3)
        net.sim.run()
        return before, net.metrics.total_rt_messages

    def test_restarted_periodic_source_sends_only_its_own_messages(self):
        before, total = self._stop_and_restart(
            lambda node, ch, n: node.start_periodic_source(
                ch, stop_after_messages=n
            )
        )
        assert before == 2
        assert total == before + 3  # the stopped chain sent 8 more

    def test_restarted_sporadic_source_sends_only_its_own_messages(self):
        rng = np.random.default_rng(4)
        before, total = self._stop_and_restart(
            lambda node, ch, n: node.start_sporadic_source(
                ch, rng=rng, stop_after_messages=n,
                mean_extra_gap_slots=0.0,
            )
        )
        assert before == 1
        assert total == before + 3

    @pytest.mark.parametrize("second", ["periodic", "sporadic"])
    def test_starting_a_running_source_raises(self, second):
        net, node, channel = self._net()
        node.start_periodic_source(channel, stop_after_messages=4)
        with pytest.raises(SimulationError, match=rf"'m'.*channel {channel}"):
            if second == "periodic":
                node.start_periodic_source(channel, stop_after_messages=4)
            else:
                node.start_sporadic_source(
                    channel, rng=np.random.default_rng(0)
                )
        net.sim.run()
        assert net.metrics.total_rt_messages == 4  # the admitted rate

    def test_a_finished_source_can_start_again(self):
        net, node, channel = self._net()
        node.start_periodic_source(channel, stop_after_messages=2)
        net.sim.run()
        node.start_periodic_source(channel, stop_after_messages=2)
        net.sim.run()
        assert net.metrics.total_rt_messages == 4
