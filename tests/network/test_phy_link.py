"""Tests for PhyProfile and HalfLink timing."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.faults.plan import FaultPlan
from repro.network.link import HalfLink
from repro.network.phy import PhyProfile
from repro.protocol.ethernet import EthernetFrame, FrameKind
from repro.sim.kernel import Simulator
from repro.sim.trace import Observer, TraceRecorder
from repro.units import ETH_MAX_PAYLOAD


def be_frame(payload=ETH_MAX_PAYLOAD) -> EthernetFrame:
    return EthernetFrame(
        kind=FrameKind.BEST_EFFORT,
        source="a",
        destination="b",
        payload_bytes=payload,
    )


class TestPhyProfile:
    def test_fast_ethernet_slot(self):
        phy = PhyProfile.fast_ethernet()
        assert phy.slot_ns == 123_040
        assert phy.max_frame_ns == phy.slot_ns

    def test_gigabit_slot(self):
        assert PhyProfile.gigabit().slot_ns == 12_304

    def test_transmission_time_scales_with_size(self):
        phy = PhyProfile.fast_ethernet()
        big = phy.transmission_ns(be_frame(ETH_MAX_PAYLOAD))
        small = phy.transmission_ns(be_frame(1))
        assert big == phy.slot_ns
        assert small == 84 * 80  # min wire frame at 80 ns/byte

    def test_t_latency_composition(self):
        phy = PhyProfile.fast_ethernet()
        expected = 2 * phy.propagation_ns + phy.switch_processing_ns + (
            2 * phy.max_frame_ns
        )
        assert phy.t_latency_ns == expected

    def test_per_link_allowance(self):
        phy = PhyProfile.fast_ethernet()
        assert phy.per_link_allowance_ns() == (
            phy.propagation_ns + phy.max_frame_ns
        )

    def test_negative_delays_rejected(self):
        from repro.units import TimeBase

        with pytest.raises(ConfigurationError):
            PhyProfile(
                timebase=TimeBase.for_speed_mbps(100), propagation_ns=-1
            )
        with pytest.raises(ConfigurationError):
            PhyProfile(
                timebase=TimeBase.for_speed_mbps(100),
                switch_processing_ns=-1,
            )


class TestHalfLink:
    def make(self):
        sim = Simulator()
        delivered = []
        phy = PhyProfile.fast_ethernet()
        link = HalfLink(
            sim=sim, phy=phy, name="test", deliver=delivered.append
        )
        return sim, phy, link, delivered

    def test_delivery_after_tx_plus_propagation(self):
        sim, phy, link, delivered = self.make()
        frame = be_frame()
        link.transmit(frame)
        sim.run()
        assert delivered == [frame]
        assert sim.now == phy.slot_ns + phy.propagation_ns

    def test_busy_until_transmission_ends(self):
        sim, phy, link, _ = self.make()
        completion = link.transmit(be_frame())
        assert completion == phy.slot_ns
        assert link.busy
        sim.run(until=phy.slot_ns - 1)
        assert link.busy
        sim.run(until=phy.slot_ns)
        assert not link.busy

    def test_transmit_while_busy_raises(self):
        sim, phy, link, _ = self.make()
        link.transmit(be_frame())
        with pytest.raises(SimulationError, match="busy"):
            link.transmit(be_frame())

    def test_on_idle_fires_before_delivery(self):
        sim, phy, link, delivered = self.make()
        events = []
        link.on_idle = lambda: events.append(("idle", sim.now))
        link.transmit(be_frame())
        link.wake_when_free()
        sim.run()
        assert events == [("idle", phy.slot_ns)]
        # delivery strictly after idle (propagation > 0)
        assert delivered

    def test_on_idle_fires_only_when_armed(self):
        sim, phy, link, delivered = self.make()
        events = []
        link.on_idle = lambda: events.append(sim.now)
        link.transmit(be_frame())
        sim.run()
        assert events == [] and delivered
        assert sim.dispatched_events == 1  # the arrival alone

    def test_wake_when_free_arms_once_and_needs_a_busy_wire(self):
        sim, phy, link, _ = self.make()
        events = []
        link.on_idle = lambda: events.append(sim.now)
        with pytest.raises(SimulationError, match="idle wire"):
            link.wake_when_free()
        link.transmit(be_frame())
        link.wake_when_free()
        link.wake_when_free()  # same transmission: queued once
        sim.run()
        assert events == [phy.slot_ns]

    def test_traced_link_records_only_armed_wakeups(self):
        # Tracing queues no wakeup of its own: an unarmed transmission
        # dispatches its arrival alone, and link.idle marks the armed
        # wakeup of the second transmission when it fires.
        sim = Simulator()
        phy = PhyProfile.fast_ethernet()
        trace = TraceRecorder(enabled=True)
        link = HalfLink(
            sim, phy, "test", lambda f: None, obs=Observer.of(trace)
        )
        link.transmit(be_frame())
        sim.run()
        assert trace.by_category("link.idle") == []
        assert sim.dispatched_events == 1
        start = sim.now
        link.transmit(be_frame())
        link.wake_when_free()
        sim.run()
        assert [r.time for r in trace.by_category("link.idle")] == [
            start + phy.slot_ns
        ]
        assert sim.dispatched_events == 3

    def test_statistics(self):
        sim, phy, link, _ = self.make()
        link.transmit(be_frame())
        sim.run()
        link.transmit(be_frame(1))
        sim.run()
        assert link.frames_carried == 2
        assert link.bytes_carried == 1538 + 84
        assert 0 < link.utilization() <= 1.0

    def test_utilization_lifetime_fraction(self):
        sim, phy, link, _ = self.make()
        assert link.utilization() == 0.0  # before time advances
        link.transmit(be_frame())
        sim.run(until=2 * phy.slot_ns)
        assert link.utilization() == pytest.approx(0.5)

    def test_utilization_since_counts_only_the_window(self):
        sim, phy, link, _ = self.make()
        # one slot of busy time, then a long idle stretch
        link.transmit(be_frame())
        sim.run(until=10 * phy.slot_ns)
        mark = link.busy_mark()
        # window: one busy slot out of two
        link.transmit(be_frame())
        sim.run(until=12 * phy.slot_ns)
        assert link.utilization_since(mark) == pytest.approx(0.5)
        # the naive lifetime/window division would have claimed 100%:
        # 2 slots of lifetime busy over a 2-slot window
        assert link.utilization() == pytest.approx(2 / 12)

    def test_utilization_since_empty_window(self):
        sim, phy, link, _ = self.make()
        link.transmit(be_frame())
        sim.run()
        assert link.utilization_since(link.busy_mark()) == 0.0

    def test_back_to_back_via_on_idle(self):
        sim, phy, link, delivered = self.make()
        pending = [be_frame(), be_frame()]

        def pump():
            if pending and not link.busy:
                link.transmit(pending.pop(0))
                link.wake_when_free()

        link.on_idle = pump
        pump()
        sim.run()
        assert len(delivered) == 2
        # second frame starts exactly when the first ends
        assert sim.now == 2 * phy.slot_ns + phy.propagation_ns

    def test_arrivals_meet_their_own_frames_across_a_drop(self):
        # Frames in flight wait in the link's FIFO; a fault-plan drop
        # consumes its own frame, so the survivors arrive as themselves.
        sim = Simulator()
        delivered = []
        plan = FaultPlan(drop_occurrences={"best-effort": [1]})
        link = HalfLink(
            sim, PhyProfile.fast_ethernet(), "test", delivered.append,
            fault_plan=plan,
        )
        frames = [be_frame(), be_frame(1), be_frame(700)]
        pending = list(frames)

        def pump():
            if pending and not link.busy:
                link.transmit(pending.pop(0))
                link.wake_when_free()

        link.on_idle = pump
        pump()
        sim.run()
        assert len(delivered) == 2
        assert delivered[0] is frames[0] and delivered[1] is frames[2]
        assert link.frames_faulted == link.frames_lost == 1
