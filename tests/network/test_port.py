"""Tests for the dual-queue output port (Figure 18.2)."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.network.link import HalfLink
from repro.network.phy import PhyProfile
from repro.network.port import OutputPort
from repro.protocol.ethernet import EthernetFrame, FrameKind
from repro.protocol.headers import encode_rt_header
from repro.sim.kernel import Simulator
from repro.units import ETH_MAX_PAYLOAD


def rt_frame(deadline_ns: int, channel: int = 1) -> EthernetFrame:
    return EthernetFrame(
        kind=FrameKind.RT_DATA,
        source="a",
        destination="b",
        payload_bytes=ETH_MAX_PAYLOAD,
        rt_header=encode_rt_header(deadline_ns, channel),
        channel_id=channel,
    )


def be_frame(payload=ETH_MAX_PAYLOAD) -> EthernetFrame:
    return EthernetFrame(
        kind=FrameKind.BEST_EFFORT,
        source="a",
        destination="b",
        payload_bytes=payload,
    )


def make_port(be_buffer=None, on_rt_complete=None):
    sim = Simulator()
    phy = PhyProfile.fast_ethernet()
    delivered = []
    link = HalfLink(sim=sim, phy=phy, name="wire", deliver=delivered.append)
    port = OutputPort(
        sim=sim,
        phy=phy,
        link=link,
        name="port",
        be_buffer_frames=be_buffer,
        on_rt_complete=on_rt_complete,
    )
    return sim, phy, port, delivered


class TestPriority:
    def test_rt_served_before_waiting_be(self):
        sim, phy, port, delivered = make_port()
        port.submit_be(be_frame())  # starts immediately (link idle)
        port.submit_be(be_frame())
        port.submit_rt(rt_frame(10**9), 10**9)
        sim.run()
        kinds = [f.kind for f in delivered]
        # first BE already started (non-preemption), then the RT frame
        # jumps the second BE frame.
        assert kinds == [
            FrameKind.BEST_EFFORT,
            FrameKind.RT_DATA,
            FrameKind.BEST_EFFORT,
        ]

    def test_edf_order_between_rt_frames(self):
        sim, phy, port, delivered = make_port()
        port.submit_be(be_frame())  # occupy the wire
        late = rt_frame(5_000_000, channel=1)
        early = rt_frame(1_000_000, channel=2)
        port.submit_rt(late, 5_000_000)
        port.submit_rt(early, 1_000_000)
        sim.run()
        rt_order = [f.channel_id for f in delivered if f.kind is FrameKind.RT_DATA]
        assert rt_order == [2, 1]

    def test_non_preemption(self):
        """An RT frame never interrupts a started BE frame."""
        sim, phy, port, delivered = make_port()
        port.submit_be(be_frame())
        sim.run(until=phy.slot_ns // 2)
        port.submit_rt(rt_frame(10**9), 10**9)
        sim.run()
        assert delivered[0].kind is FrameKind.BEST_EFFORT


class TestWireFreeWakeup:
    def test_waiting_frame_keeps_its_place_at_the_free_instant(self):
        """The wakeup a waiting frame arms fires in the slot reserved
        when the transmission began, so a frame submitted at the very
        instant the wire frees, by an event scheduled after that, waits
        behind it -- even with the earliest deadline."""
        sim, phy, port, delivered = make_port()
        port.submit_rt(rt_frame(10**9, channel=1), 10**9)  # A: 0 .. slot
        sim.call_at(
            phy.slot_ns, lambda: port.submit_rt(rt_frame(1, channel=3), 1)
        )  # C, at the instant A frees the wire
        sim.call_at(
            1, lambda: port.submit_rt(rt_frame(10**8, channel=2), 10**8)
        )  # B, queued behind A
        sim.run()
        assert [f.channel_id for f in delivered] == [1, 2, 3]

    def test_wakeup_armed_only_while_a_frame_waits(self):
        sim, phy, port, _ = make_port()
        port.submit_be(be_frame())
        sim.run()
        assert sim.dispatched_events == 1  # the arrival; no wakeup
        port.submit_be(be_frame())
        port.submit_be(be_frame())
        sim.run()
        # two arrivals and one wakeup, armed while the second frame
        # waited; the last transmission leaves nothing behind it
        assert sim.dispatched_events == 1 + 3
        assert port.stats.be_transmitted == 3


class TestDeadlineAccounting:
    def test_on_rt_complete_callback(self):
        seen = []
        sim, phy, port, _ = make_port(
            on_rt_complete=lambda f, done, dl: seen.append((f.channel_id, done, dl))
        )
        port.submit_rt(rt_frame(10**9, channel=3), 10**9)
        sim.run()
        assert len(seen) == 1
        channel, done, deadline = seen[0]
        assert channel == 3
        assert done == phy.slot_ns
        assert deadline == 10**9

    def test_miss_detected_when_late(self):
        sim, phy, port, _ = make_port()
        # The allowance forgives up to one frame of blocking, so a lone
        # frame with deadline ~0 is not a miss -- but the second of two
        # such frames completes two slots in, beyond the allowance.
        port.submit_rt(rt_frame(1, channel=1), 1)
        port.submit_rt(rt_frame(1, channel=2), 1)
        sim.run()
        assert port.stats.rt_link_deadline_misses == 1

    def test_no_miss_within_allowance(self):
        sim, phy, port, _ = make_port()
        # Completion == slot_ns; deadline slightly before completion but
        # within the one-frame allowance -> not a miss.
        deadline = phy.slot_ns - 10
        port.submit_rt(rt_frame(deadline), deadline)
        sim.run()
        assert port.stats.rt_link_deadline_misses == 0

    def test_queueing_delay_stats(self):
        sim, phy, port, _ = make_port()
        port.submit_be(be_frame())
        port.submit_rt(rt_frame(10**9), 10**9)  # waits one slot
        sim.run()
        assert port.stats.rt_queueing_delay_max_ns == phy.slot_ns
        assert port.stats.rt_mean_queueing_delay_ns == phy.slot_ns


class TestBuffering:
    def test_be_buffer_drops_when_full(self):
        sim, phy, port, delivered = make_port(be_buffer=2)
        results = [port.submit_be(be_frame()) for _ in range(5)]
        # first starts transmitting immediately, two buffered, rest dropped
        assert results == [True, True, True, False, False]
        assert port.stats.be_dropped == 2
        sim.run()
        assert len(delivered) == 3

    def test_wrong_queue_usage_rejected(self):
        sim, phy, port, _ = make_port()
        with pytest.raises(SimulationError):
            port.submit_be(rt_frame(1))
        with pytest.raises(SimulationError):
            port.submit_rt(be_frame(), 1)

    def test_backlog_properties(self):
        sim, phy, port, _ = make_port()
        port.submit_be(be_frame())  # transmitting
        port.submit_be(be_frame())  # queued
        port.submit_rt(rt_frame(10**9), 10**9)  # queued
        assert port.rt_backlog == 1
        assert port.be_backlog == 1
        assert port.backlog == 2
        sim.run()
        assert port.backlog == 0

    def test_stats_counters(self):
        sim, phy, port, _ = make_port()
        port.submit_be(be_frame())
        port.submit_rt(rt_frame(10**9), 10**9)
        sim.run()
        assert port.stats.be_enqueued == 1
        assert port.stats.be_transmitted == 1
        assert port.stats.rt_enqueued == 1
        assert port.stats.rt_transmitted == 1


class TestPerFrameAllowance:
    def test_explicit_allowance_overrides_default(self):
        """A generous per-frame allowance suppresses the miss that the
        default first-hop allowance would flag (cascaded-blocking
        accounting; see DESIGN.md)."""
        sim, phy, strict_port, _ = make_port()
        strict_port.submit_rt(rt_frame(1, channel=1), 1)
        strict_port.submit_rt(rt_frame(1, channel=2), 1)
        sim.run()
        assert strict_port.stats.rt_link_deadline_misses == 1

        sim2, phy2, lenient_port, _ = make_port()
        lenient = 3 * phy2.slot_ns
        lenient_port.submit_rt(rt_frame(1, channel=1), 1, allowance_ns=lenient)
        lenient_port.submit_rt(rt_frame(1, channel=2), 1, allowance_ns=lenient)
        sim2.run()
        assert lenient_port.stats.rt_link_deadline_misses == 0

    def test_zero_allowance_is_strict(self):
        sim, phy, port, _ = make_port()
        # completes at slot_ns; deadline slot_ns - 1 with zero allowance
        deadline = phy.slot_ns - 1
        port.submit_rt(rt_frame(deadline), deadline, allowance_ns=0)
        sim.run()
        assert port.stats.rt_link_deadline_misses == 1
