"""End-to-end handshake recovery under targeted signalling loss.

The matrix every retry/lease/idempotence mechanism must pass: each of
the five control-plane frame classes is destroyed exactly once, and the
handshake must still converge -- channel established, no reservation
stranded at the switch, admission state exactly matching the installed
grants.
"""

from __future__ import annotations

import pytest

from repro.core.channel import ChannelSpec
from repro.core.partitioning import AsymmetricDPS, SymmetricDPS
from repro.faults import SIGNALLING_CLASSES, FaultPlan
from repro.network.topology import build_star
from repro.protocol.signaling import RetryPolicy
from repro.sim.rng import RngRegistry
from repro.traffic.patterns import master_slave_names, master_slave_requests
from repro.traffic.spec import FixedSpecSampler

SPEC = ChannelSpec(period=100, capacity=3, deadline=40)

#: deterministic (jitter-free) schedule for the single-drop matrix:
#: one lost frame costs exactly one 2 ms round of retransmission.
RETRY = RetryPolicy(timeout_ns=2_000_000, max_retries=5, backoff=2.0)


def lossy_star(plan: FaultPlan, lease_ns: int | None = 50_000_000):
    return build_star(
        ["a", "b"], dps=SymmetricDPS(), fault_plan=plan,
        signal_lease_ns=lease_ns,
    )


def assert_no_leak(net, expected_channels):
    """Admission state == installed grants, nothing pending at the switch."""
    assert net.switch.manager.pending_offers == 0
    assert set(net.admission.state.channels.keys()) == expected_channels


class TestDropEachHandshakeFrameOnce:
    @pytest.mark.parametrize("frame_class", SIGNALLING_CLASSES[:-1])
    def test_handshake_recovers(self, frame_class):
        # drop the first occurrence of one handshake step; the retry
        # machinery must re-drive the handshake to completion
        plan = FaultPlan(drop_occurrences={frame_class: [0]})
        net = lossy_star(plan)
        grant = net.establish("a", "b", SPEC, retry=RETRY)
        assert grant is not None, f"lost {frame_class} never recovered"
        assert plan.drops_by_class[frame_class] == 1
        assert net.nodes["a"].rt_layer.grants == {grant.channel_id: grant}
        assert_no_leak(net, {grant.channel_id})
        # recovery came from retransmission, not silent luck
        assert net.nodes["a"].signal_retries >= 1

    def test_teardown_drop_recovers_with_repeats(self):
        plan = FaultPlan(drop_occurrences={"teardown": [0]})
        net = lossy_star(plan)
        grant = net.establish("a", "b", SPEC, retry=RETRY)
        net.nodes["a"].teardown_repeats = 2
        net.nodes["a"].teardown_channel(grant.channel_id)
        net.sim.run()
        assert plan.drops_by_class["teardown"] == 1
        assert_no_leak(net, set())
        assert net.nodes["a"].rt_layer.grants == {}

    def test_single_teardown_would_leak(self):
        # control for the test above: without repeats the lost teardown
        # really does strand the reservation (that is the bug class the
        # repeats exist for)
        plan = FaultPlan(drop_occurrences={"teardown": [0]})
        net = lossy_star(plan)
        grant = net.establish("a", "b", SPEC, retry=RETRY)
        net.nodes["a"].teardown_repeats = 1
        net.nodes["a"].teardown_channel(grant.channel_id)
        net.sim.run()
        assert set(net.admission.state.channels.keys()) == {grant.channel_id}

    def test_duplicate_surviving_teardowns_absorbed(self):
        # nothing dropped: all repeats arrive and the switch must absorb
        # the duplicates instead of crashing on the second release
        net = lossy_star(FaultPlan())
        grant = net.establish("a", "b", SPEC, retry=RETRY)
        net.nodes["a"].teardown_repeats = 3
        net.nodes["a"].teardown_channel(grant.channel_id)
        net.sim.run()
        assert_no_leak(net, set())
        assert net.switch.manager.stale_frames == 2


class TestRequestRecord:
    def test_retransmission_resends_the_recorded_frame(self):
        net = lossy_star(FaultPlan(drop_occurrences={"request": [0]}))
        node = net.nodes["a"]
        uplink = node.uplink
        submit = uplink.submit_be
        sent = []

        def recording_submit(frame):
            sent.append(frame.payload_object)
            return submit(frame)

        uplink.submit_be = recording_submit
        records = []
        node.request_channel(
            destination_mac=net.nodes["b"].mac,
            destination_ip=net.nodes["b"].ip,
            destination_name="b",
            spec=SPEC,
            on_complete=lambda record, grant: records.append(record),
            retry=RETRY,
        )
        net.sim.run()
        (record,) = records
        assert record.retries == node.signal_retries == 1
        assert sent == [record.frame.encode()] * 2


class TestLeaseReclaim:
    def test_unanswerable_offer_is_reclaimed(self):
        # the destination response never arrives; once the source gives
        # up, the lease must free the switch's reservation
        plan = FaultPlan(drop_occurrences={"dest-response": range(50)})
        net = lossy_star(plan, lease_ns=5_000_000)
        policy = RetryPolicy(timeout_ns=2_000_000, max_retries=2, backoff=2.0)
        grant = net.establish("a", "b", SPEC, retry=policy)
        assert grant is None
        assert net.rejections == 1
        assert net.switch.manager.lease_reclaims >= 1
        assert_no_leak(net, set())

    def test_fresh_request_succeeds_after_reclaim(self):
        # capacity freed by the reclaim must be reusable: the first
        # request's dest-responses (one per retransmission round) are
        # all destroyed, the second request's pass untouched
        plan = FaultPlan(drop_occurrences={"dest-response": range(3)})
        net = lossy_star(plan, lease_ns=5_000_000)
        policy = RetryPolicy(timeout_ns=2_000_000, max_retries=2, backoff=2.0)
        assert net.establish("a", "b", SPEC, retry=policy) is None
        grant = net.establish("a", "b", SPEC, retry=policy)
        assert grant is not None
        assert_no_leak(net, {grant.channel_id})


class TestLeaseTimers:
    """A lease timer leaves the kernel's queue when its offer resolves."""

    def test_resolved_leases_leave_the_queue_at_once(self):
        # The per-frame allocation guard's star: after the last
        # handshake no lease timer (nor anything else) is queued.
        masters, slaves = master_slave_names(6, 18)
        net = build_star(masters + slaves, dps=AsymmetricDPS())
        requests = master_slave_requests(
            masters, slaves, 80, FixedSpecSampler.paper_default(),
            RngRegistry(55).stream("requests"),
        )
        for request in requests:
            net.establish(request.source, request.destination, request.spec)
        assert len(net.grants) > 0
        assert net.switch.manager.pending_offers == 0
        assert net.sim.pending_events == 0

    def test_duplicate_request_leaves_one_queued_lease(self):
        # The first dest-response is lost, so the source's retransmitted
        # request reaches the switch while the offer is pending and
        # refreshes its lease: the old timer must leave the queue.
        net = lossy_star(FaultPlan(drop_occurrences={"dest-response": [0]}))
        arm = net.switch._arm_lease  # noqa: SLF001
        leases = net.switch._lease_events  # noqa: SLF001
        added, replaced = [], []

        def counting_arm(channel_id):
            old = leases.get(channel_id)
            before = net.sim.pending_events
            arm(channel_id)
            added.append(net.sim.pending_events - before)
            if old is not None:
                assert leases[channel_id] is not old
                # Already out of the queue: nothing left to cancel.
                replaced.append(net.sim.cancel(old))

        net.switch._arm_lease = counting_arm  # noqa: SLF001
        grant = net.establish("a", "b", SPEC, retry=RETRY)
        assert grant is not None
        assert net.switch.manager.duplicate_requests == 1
        assert added == [1, 0]
        assert replaced == [False]
        assert_no_leak(net, {grant.channel_id})
        assert net.sim.pending_events == 0


class TestBernoulliSmoke:
    def _run(self, seed: int):
        plan = FaultPlan.signalling_loss(0.2, seed=seed)
        net = lossy_star(plan)
        policy = RetryPolicy(
            timeout_ns=2_000_000, max_retries=10, backoff=1.5, jitter=0.25,
            max_timeout_ns=20_000_000,
        )
        rng = RngRegistry(seed).stream("retry-jitter")
        channel_ids = []
        for _ in range(8):
            grant = net.establish(
                "a", "b", SPEC, retry=policy, retry_rng=rng
            )
            channel_ids.append(None if grant is None else grant.channel_id)
        return net, plan, channel_ids

    def test_every_request_resolves_without_leaks(self):
        net, plan, channel_ids = self._run(seed=5)
        assert plan.signalling_drops() > 0
        established = {cid for cid in channel_ids if cid is not None}
        assert_no_leak(net, established)

    def test_deterministic_per_seed(self):
        net_a, _, ids_a = self._run(seed=5)
        net_b, _, ids_b = self._run(seed=5)
        assert ids_a == ids_b
        assert net_a.sim.now == net_b.sim.now
        assert (
            net_a.switch.manager.stale_frames
            == net_b.switch.manager.stale_frames
        )
