"""Tests for fault injection: lossy wires and request timeouts."""

from __future__ import annotations

import pytest

from repro.core.channel import ChannelSpec
from repro.core.partitioning import SymmetricDPS
from repro.errors import ConfigurationError, ProtocolError
from repro.faults import FaultPlan
from repro.network.link import HalfLink
from repro.network.phy import PhyProfile
from repro.network.topology import build_star
from repro.protocol.ethernet import EthernetFrame, FrameKind
from repro.protocol.signaling import ConnectionRequestState, RetryPolicy
from repro.sim.kernel import Simulator
from repro.sim.trace import Observer, TraceRecorder


def be_frame():
    return EthernetFrame(
        kind=FrameKind.BEST_EFFORT,
        source="a",
        destination="b",
        payload_bytes=100,
    )


class TestLossyLink:
    def test_loss_rate_validation(self):
        for rate in (1.0, -0.1):
            with pytest.raises(ConfigurationError, match="corruption"):
                FaultPlan(corruption=rate)

    def test_all_or_nothing_statistics(self):
        sim = Simulator()
        phy = PhyProfile.fast_ethernet()
        delivered = []
        link = HalfLink(
            sim, phy, "x", delivered.append,
            fault_plan=FaultPlan(seed=42, corruption=0.5),
        )

        def pump():
            if link.frames_carried < 200 and not link.busy:
                link.transmit(be_frame())
                link.wake_when_free()

        link.on_idle = pump
        pump()
        sim.run()
        assert link.frames_carried == 200
        assert link.frames_lost + len(delivered) == 200
        # with p=0.5 and n=200, both counts are safely in (60, 140)
        assert 60 < link.frames_lost < 140

    def test_lost_counts_split_by_cause(self):
        sim = Simulator()
        delivered = []
        plan = FaultPlan(
            seed=4, drop_occurrences={"best-effort": [0, 1]}, corruption=0.5
        )
        trace = TraceRecorder(enabled=True)
        link = HalfLink(
            sim, PhyProfile.fast_ethernet(), "x", delivered.append,
            obs=Observer.of(trace, None), fault_plan=plan,
        )

        def pump():
            if link.frames_carried < 40 and not link.busy:
                link.transmit(be_frame())
                link.wake_when_free()

        link.on_idle = pump
        pump()
        sim.run()
        causes = [r.fields for r in trace.by_category("link.lost")]
        assert link.frames_faulted == 2
        assert link.frames_lost == len(causes) == 40 - len(delivered)
        assert causes.count({"cause": "fault-plan"}) == 2
        assert causes.count(None) == link.frames_lost - 2 > 0

    def test_zero_loss_default(self):
        sim = Simulator()
        phy = PhyProfile.fast_ethernet()
        delivered = []
        link = HalfLink(sim, phy, "x", delivered.append)
        link.transmit(be_frame())
        sim.run()
        assert link.frames_lost == 0
        assert len(delivered) == 1

    def test_loss_is_reproducible(self):
        def run(seed):
            net = build_star(
                ["a", "b"], dps=SymmetricDPS(),
                fault_plan=FaultPlan(seed=seed, corruption=0.2),
            )
            grant = net.establish_analytically(
                "a", "b", ChannelSpec(period=10, capacity=1, deadline=8)
            )
            net.nodes["a"].start_periodic_source(
                grant.channel_id, stop_after_messages=50
            )
            net.sim.run()
            return net.metrics.total_rt_frames

        assert run(1) == run(1)
        # different seeds almost surely differ over 50 Bernoulli draws
        outcomes = {run(seed) for seed in range(5)}
        assert len(outcomes) > 1

    def test_lost_frames_never_late(self):
        """Loss degrades completeness, never timeliness (EXP-R1 core)."""
        net = build_star(
            ["a", "b"], dps=SymmetricDPS(),
            fault_plan=FaultPlan(seed=3, corruption=0.3),
        )
        grant = net.establish_analytically(
            "a", "b", ChannelSpec(period=10, capacity=2, deadline=8)
        )
        net.nodes["a"].start_periodic_source(
            grant.channel_id, stop_after_messages=40
        )
        net.sim.run()
        stats = net.metrics.channels[grant.channel_id]
        assert stats.frames_delivered < 80  # some were lost
        assert stats.deadline_misses == 0  # none arrived late


class TestRequestTimeout:
    def test_timeout_fires_on_total_loss(self):
        """With a near-certain loss rate the handshake cannot complete;
        the timeout completes the request as TIMED_OUT."""
        net = build_star(
            ["a", "b"], dps=SymmetricDPS(),
            fault_plan=FaultPlan(seed=7, corruption=0.99),
        )
        outcomes = []
        net.nodes["a"].request_channel(
            destination_mac=net.nodes["b"].mac,
            destination_ip=net.nodes["b"].ip,
            destination_name="b",
            spec=ChannelSpec(period=100, capacity=3, deadline=40),
            on_complete=lambda req, grant: outcomes.append((req.state, grant)),
            retry=RetryPolicy(timeout_ns=10_000_000),
        )
        net.sim.run()
        assert outcomes == [(ConnectionRequestState.TIMED_OUT, None)]
        assert net.nodes["a"].rt_layer.grants == {}

    def test_response_wins_race_when_wire_is_clean(self):
        net = build_star(["a", "b"], dps=SymmetricDPS())
        outcomes = []
        net.nodes["a"].request_channel(
            destination_mac=net.nodes["b"].mac,
            destination_ip=net.nodes["b"].ip,
            destination_name="b",
            spec=ChannelSpec(period=100, capacity=3, deadline=40),
            on_complete=lambda req, grant: outcomes.append(req.state),
            retry=RetryPolicy(timeout_ns=1_000_000_000),  # generous
        )
        net.sim.run()
        assert outcomes == [ConnectionRequestState.ACCEPTED]

    def test_late_response_releases_orphaned_reservation(self):
        """Timeout shorter than the handshake RTT: the switch accepts,
        but the source has given up -- the node's automatic teardown must
        free the reservation. ``RetryPolicy(timeout_ns=T)`` is the
        one-shot timer: the request ends TIMED_OUT exactly T after its
        send, and the late positive response calls nothing back."""
        net = build_star(["a", "b"], dps=SymmetricDPS())
        outcomes = []
        sent_at = net.sim.now
        net.nodes["a"].request_channel(
            destination_mac=net.nodes["b"].mac,
            destination_ip=net.nodes["b"].ip,
            destination_name="b",
            spec=ChannelSpec(period=100, capacity=3, deadline=40),
            on_complete=lambda req, grant: outcomes.append(
                (net.sim.now, req.state, grant)
            ),
            # far below the ~300 us handshake RTT
            retry=RetryPolicy(timeout_ns=1_000),
        )
        net.sim.run()
        assert outcomes == [
            (sent_at + 1_000, ConnectionRequestState.TIMED_OUT, None)
        ]
        # the late positive response triggered an automatic teardown:
        assert len(net.admission.state) == 0
        assert net.nodes["a"].rt_layer.grants == {}

    def test_timer_acts_only_on_its_own_request(self):
        """A refused request frees its ID at once, so the 256th request
        takes ID 1 again while request 1's timer is still armed. That
        timer must leave the new request alone: the new request times
        out T after its own send, not when request 1's timer fires."""
        timeout = 1_000_000_000
        plan = FaultPlan(drop_occurrences={"request": [255]})
        net = build_star(["a", "b"], dps=SymmetricDPS(), fault_plan=plan)
        outcomes = []

        def ask(deadline):
            sent_at = net.sim.now
            net.nodes["a"].request_channel(
                destination_mac=net.nodes["b"].mac,
                destination_ip=net.nodes["b"].ip,
                destination_name="b",
                spec=ChannelSpec(period=100, capacity=3, deadline=deadline),
                on_complete=lambda req, grant: outcomes.append(
                    (req.connect_request_id, net.sim.now - sent_at, req.state)
                ),
                retry=RetryPolicy(timeout_ns=timeout),
            )
            net.sim.run(until=net.sim.now + 1_000_000)

        for _ in range(255):
            ask(deadline=5)  # d < 2C: refused by admission
        ask(deadline=40)  # its RequestFrame is lost
        net.sim.run()
        assert [state for _, _, state in outcomes[:255]] == [
            ConnectionRequestState.REJECTED
        ] * 255
        assert outcomes[255] == (1, timeout, ConnectionRequestState.TIMED_OUT)

    def test_timeout_id_not_reused_while_reserved(self):
        from repro.protocol.signaling import SourceSignaling

        signaling = SourceSignaling(node_mac=1, switch_mac=2, node_ip=3)
        request = signaling.build_request("b", 2, 2, 100, 3, 40)
        signaling.timeout_request(request.connect_request_id)
        fresh = signaling.build_request("b", 2, 2, 100, 3, 40)
        assert fresh.connect_request_id != request.connect_request_id

    def test_timeout_unknown_request_raises(self):
        from repro.protocol.signaling import SourceSignaling

        signaling = SourceSignaling(node_mac=1, switch_mac=2, node_ip=3)
        with pytest.raises(ProtocolError):
            signaling.timeout_request(5)


class TestEstablishWithTimeout:
    def test_establish_on_lossy_wire_times_out_gracefully(self):
        net = build_star(
            ["a", "b"], dps=SymmetricDPS(),
            fault_plan=FaultPlan(seed=11, corruption=0.99),
        )
        grant = net.establish(
            "a", "b", ChannelSpec(period=100, capacity=3, deadline=40),
            retry=RetryPolicy(timeout_ns=5_000_000),
        )
        assert grant is None
        assert net.rejections == 1

    def test_establish_without_timeout_raises_on_total_loss(self):
        net = build_star(
            ["a", "b"], dps=SymmetricDPS(),
            fault_plan=FaultPlan(seed=11, corruption=0.99),
        )
        from repro.errors import TopologyError

        with pytest.raises(TopologyError, match="timeout_ns"):
            net.establish(
                "a", "b", ChannelSpec(period=100, capacity=3, deadline=40)
            )

    def test_establish_with_timeout_on_clean_wire_succeeds(self):
        net = build_star(["a", "b"], dps=SymmetricDPS())
        grant = net.establish(
            "a", "b", ChannelSpec(period=100, capacity=3, deadline=40),
            retry=RetryPolicy(timeout_ns=1_000_000_000),
        )
        assert grant is not None
