"""Tests for SystemState and AdmissionController (Sections 18.3/18.4)."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.core.admission import (
    AdmissionController,
    RejectionReason,
    SystemState,
)
from repro.core.channel import (
    ChannelSpec,
    ChannelState,
    DeadlinePartition,
    RTChannel,
)
from repro.core.partitioning import AsymmetricDPS, SymmetricDPS
from repro.core.partitioning_ext import SearchDPS
from repro.core.task import LinkRef
from repro.errors import (
    AdmissionError,
    InfeasibleChannelError,
    UnknownChannelError,
)

NODES = ["a", "b", "c", "d"]


def controller(dps=None, nodes=NODES):
    return AdmissionController(SystemState(nodes), dps or SymmetricDPS())


class TestSystemState:
    def test_nodes(self):
        state = SystemState(["x", "y"])
        assert state.nodes == {"x", "y"}
        state.add_node("z")
        assert state.has_node("z")
        state.add_node("z")  # idempotent
        assert len(state.nodes) == 3

    def test_empty_node_name_rejected(self):
        with pytest.raises(Exception):
            SystemState([""])

    def test_initial_loads_zero(self):
        state = SystemState(NODES)
        assert state.link_load(LinkRef.uplink("a")) == 0
        assert state.link_utilization(LinkRef.uplink("a")) == 0
        assert state.tasks_on(LinkRef.uplink("a")) == ()
        assert len(state) == 0

    def test_candidate_view_counts_candidate(self, paper_spec):
        state = SystemState(NODES)
        view = state.with_candidate("a", "b", paper_spec)
        assert view.link_load(LinkRef.uplink("a")) == 1
        assert view.link_load(LinkRef.downlink("b")) == 1
        assert view.link_load(LinkRef.uplink("b")) == 0
        assert view.link_utilization(LinkRef.uplink("a")) == Fraction(3, 100)


class TestAdmissionAccept:
    def test_first_channel_accepted(self, paper_spec):
        ctrl = controller()
        decision = ctrl.request("a", "b", paper_spec)
        assert decision.accepted
        assert bool(decision)
        assert decision.channel.state is ChannelState.ACTIVE
        assert decision.channel.channel_id == 1  # IDs start at 1
        assert decision.partition is not None
        assert decision.uplink_report is not None
        assert decision.uplink_report.feasible

    def test_state_updated_after_accept(self, paper_spec):
        ctrl = controller()
        ctrl.request("a", "b", paper_spec)
        state = ctrl.state
        assert state.link_load(LinkRef.uplink("a")) == 1
        assert state.link_load(LinkRef.downlink("b")) == 1
        assert state.link_load(LinkRef.downlink("a")) == 0
        assert len(state) == 1

    def test_ids_monotone(self, paper_spec):
        ctrl = controller()
        ids = [
            ctrl.request("a", "b", paper_spec).channel.channel_id
            for _ in range(4)
        ]
        assert ids == [1, 2, 3, 4]

    def test_counters(self, paper_spec):
        ctrl = controller()
        ctrl.request("a", "b", paper_spec)
        ctrl.request("a", "nope", paper_spec)
        assert ctrl.accept_count == 1
        assert ctrl.reject_count == 1


class TestAdmissionReject:
    def test_unknown_node(self, paper_spec):
        ctrl = controller()
        decision = ctrl.request("a", "ghost", paper_spec)
        assert not decision.accepted
        assert decision.reason is RejectionReason.UNKNOWN_NODE
        decision = ctrl.request("ghost", "a", paper_spec)
        assert decision.reason is RejectionReason.UNKNOWN_NODE

    def test_not_partitionable(self):
        ctrl = controller()
        spec = ChannelSpec(period=100, capacity=3, deadline=5)
        decision = ctrl.request("a", "b", spec)
        assert decision.reason is RejectionReason.NOT_PARTITIONABLE

    def test_uplink_saturation_sdps(self, paper_spec):
        """SDPS caps a single uplink at 6 of the Figure 18.5 channels."""
        ctrl = controller(SymmetricDPS())
        accepted = 0
        for dest in ["b", "c", "d"] * 3:
            if ctrl.request("a", dest, paper_spec).accepted:
                accepted += 1
        assert accepted == 6
        last = ctrl.request("a", "b", paper_spec)
        assert last.reason is RejectionReason.UPLINK_INFEASIBLE

    def test_downlink_saturation_detected(self, paper_spec):
        ctrl = controller(SymmetricDPS())
        for source in ["b", "c", "d"] * 2:
            assert ctrl.request(source, "a", paper_spec).accepted
        decision = ctrl.request("b", "a", paper_spec)
        assert not decision.accepted
        assert decision.reason is RejectionReason.DOWNLINK_INFEASIBLE

    def test_rejected_channel_leaves_no_trace(self, paper_spec):
        ctrl = controller(SymmetricDPS())
        for dest in ["b", "c"] * 3:
            ctrl.request("a", dest, paper_spec)
        before = ctrl.state.link_load(LinkRef.uplink("a"))
        ctrl.request("a", "b", paper_spec)  # rejected
        assert ctrl.state.link_load(LinkRef.uplink("a")) == before

    def test_utilization_overload_rejected(self):
        ctrl = controller()
        fat = ChannelSpec(period=10, capacity=5, deadline=20)
        assert ctrl.request("a", "b", fat).accepted
        assert ctrl.request("a", "c", fat).accepted
        decision = ctrl.request("a", "d", fat)
        assert not decision.accepted


class TestAdpsBeatsSdpsOnBottleneck:
    def test_adps_accepts_more_from_one_master(self, paper_spec):
        """The core Figure 18.5 mechanism at the single-uplink scale."""
        nodes = ["m"] + [f"s{i}" for i in range(20)]
        sdps = controller(SymmetricDPS(), nodes)
        adps = controller(AsymmetricDPS(), nodes)
        sdps_count = adps_count = 0
        for i in range(20):
            dest = f"s{i}"
            if sdps.request("m", dest, paper_spec).accepted:
                sdps_count += 1
            if adps.request("m", dest, paper_spec).accepted:
                adps_count += 1
        assert sdps_count == 6
        assert adps_count > sdps_count


class TestRelease:
    def test_release_returns_capacity(self, paper_spec):
        ctrl = controller(SymmetricDPS())
        channels = [
            ctrl.request("a", dest, paper_spec).channel
            for dest in ["b", "c", "d"] * 2
        ]
        assert not ctrl.request("a", "b", paper_spec).accepted
        released = ctrl.release(channels[0].channel_id)
        assert released.state is ChannelState.TORN_DOWN
        assert ctrl.request("a", "b", paper_spec).accepted

    def test_release_unknown_raises(self):
        ctrl = controller()
        with pytest.raises(UnknownChannelError):
            ctrl.release(42)

    def test_double_release_raises(self, paper_spec):
        ctrl = controller()
        channel = ctrl.request("a", "b", paper_spec).channel
        ctrl.release(channel.channel_id)
        with pytest.raises(UnknownChannelError):
            ctrl.release(channel.channel_id)


class TestConvenienceAPIs:
    def test_admit_or_raise_success(self, paper_spec):
        ctrl = controller()
        channel = ctrl.admit_or_raise("a", "b", paper_spec)
        assert channel.state is ChannelState.ACTIVE

    def test_admit_or_raise_failure(self):
        ctrl = controller()
        with pytest.raises(InfeasibleChannelError) as excinfo:
            ctrl.admit_or_raise("a", "ghost", ChannelSpec(100, 3, 40))
        assert excinfo.value.decision is not None

    def test_would_accept_is_non_mutating(self, paper_spec):
        ctrl = controller()
        assert ctrl.would_accept("a", "b", paper_spec)
        assert len(ctrl.state) == 0
        assert ctrl.accept_count == 0
        assert ctrl.reject_count == 0

    def test_would_accept_negative(self):
        ctrl = controller()
        assert not ctrl.would_accept("a", "ghost", ChannelSpec(100, 3, 40))
        assert ctrl.reject_count == 0


class TestSearchDpsIntegration:
    def test_search_beats_fixed_partitions(self):
        """SearchDPS admits a channel ADPS would bounce.

        Load the uplink so only a small d_iu remains feasible while the
        downlink is empty: ADPS (load-proportional) over-allocates to
        the uplink and fails; SearchDPS probes until it finds the
        asymmetric split that fits.
        """
        spec = ChannelSpec(period=100, capacity=10, deadline=40)
        nodes = ["m", "x", "y", "z", "w"]
        searching = controller(SearchDPS(), nodes)
        fixed = controller(SymmetricDPS(), nodes)
        search_accepted = fixed_accepted = 0
        for dest in ("x", "y", "z", "w"):
            if searching.request("m", dest, spec).accepted:
                search_accepted += 1
            if fixed.request("m", dest, spec).accepted:
                fixed_accepted += 1
        # SDPS gives every channel d_iu=20; h(20) = 10*Q <= 20 caps the
        # uplink at 2 channels. SearchDPS staggers the deadlines
        # (20, 27, 30, ...) and fits more.
        assert fixed_accepted == 2
        assert search_accepted > fixed_accepted


class TestChannelIdExhaustion:
    def test_exhaustion_raises(self):
        ctrl = controller()
        ctrl.MAX_CHANNEL_ID = 3  # shrink the space for the test
        spec = ChannelSpec(period=1000, capacity=1, deadline=1000)
        for _ in range(3):
            ctrl.admit_or_raise("a", "b", spec)
        with pytest.raises(AdmissionError, match="16-bit|exhausted"):
            ctrl.admit_or_raise("a", "b", spec)


class TestPreviewPurity:
    """preview()/would_accept() must be observably side-effect free.

    The historical would_accept() installed the channel and rolled it
    back, permanently consuming a 16-bit channel ID per accepted
    preview (an availability bug: ~65k previews bricked the
    controller) and leaving stale zero-count keys in the rejection
    histogram. These tests pin the repaired contract.
    """

    def test_preview_consumes_no_channel_ids(self, paper_spec):
        """70,000 previews -- more than the whole 16-bit ID space --
        then a real request still succeeds with the next sequential
        ID."""
        ctrl = controller()
        assert ctrl.request("a", "b", paper_spec).channel.channel_id == 1
        for _ in range(70_000):
            assert ctrl.would_accept("a", "b", paper_spec)
        decision = ctrl.request("a", "b", paper_spec)
        assert decision.accepted
        assert decision.channel.channel_id == 2

    def test_preview_leaves_snapshot_byte_identical(self, paper_spec):
        from repro.core.persistence import dumps

        ctrl = controller()
        ctrl.request("a", "b", paper_spec)
        before = dumps(ctrl)
        # Accept-path preview, reject-path previews (every reason).
        assert ctrl.preview("a", "c", paper_spec).accepted
        assert not ctrl.preview("a", "ghost", paper_spec).accepted
        assert not ctrl.preview(
            "a", "b", ChannelSpec(period=100, capacity=3, deadline=5)
        ).accepted
        assert dumps(ctrl) == before

    def test_preview_touches_no_counters_or_histogram(self, paper_spec):
        ctrl = controller()
        ctrl.preview("a", "ghost", paper_spec)
        ctrl.preview("a", "b", ChannelSpec(100, 3, 5))
        ctrl.preview("a", "b", paper_spec)
        assert ctrl.accept_count == 0
        assert ctrl.reject_count == 0
        assert ctrl.rejections_by_reason == {}
        assert len(ctrl.state) == 0

    def test_preview_reports_would_be_partition(self, paper_spec):
        ctrl = controller()
        decision = ctrl.preview("a", "b", paper_spec)
        assert decision.accepted
        assert decision.partition is not None
        assert decision.channel.channel_id == -1  # no ID consumed
        assert decision.channel.state is ChannelState.REQUESTED

    def test_preview_matches_subsequent_request(self, paper_spec):
        """A preview's verdict agrees with an immediately following
        request, accept and reject alike."""
        ctrl = controller(SymmetricDPS())
        for _ in range(8):  # SDPS caps the uplink at 6 paper channels
            previewed = ctrl.preview("a", "b", paper_spec)
            decided = ctrl.request("a", "b", paper_spec)
            assert previewed.accepted == decided.accepted
            assert previewed.reason == decided.reason


class TestNoFeasiblePartition:
    """A probing DPS exhausting every split is a load problem, not a
    spec problem: the rejection must be NO_FEASIBLE_PARTITION (not
    NOT_PARTITIONABLE, which is reserved for d < 2C) and must keep the
    histogram consistent."""

    def _saturate(self, ctrl, spec):
        while True:
            decision = ctrl.request("m", "x", spec)
            if not decision.accepted:
                return decision

    def test_strict_search_reports_no_feasible_partition(self):
        spec = ChannelSpec(period=100, capacity=10, deadline=40)
        assert spec.is_partitionable()
        ctrl = controller(SearchDPS(strict=True), ["m", "x"])
        decision = self._saturate(ctrl, spec)
        assert decision.reason is RejectionReason.NO_FEASIBLE_PARTITION
        assert decision.partition is None
        assert (
            ctrl.rejections_by_reason[
                RejectionReason.NO_FEASIBLE_PARTITION
            ]
            == 1
        )
        assert sum(ctrl.rejections_by_reason.values()) == ctrl.reject_count

    def test_non_strict_search_reports_link_instead(self):
        """Without strict mode the centre split is returned and the
        rejection is attributed to the infeasible link, as before."""
        spec = ChannelSpec(period=100, capacity=10, deadline=40)
        ctrl = controller(SearchDPS(), ["m", "x"])
        decision = self._saturate(ctrl, spec)
        assert decision.reason in (
            RejectionReason.UPLINK_INFEASIBLE,
            RejectionReason.DOWNLINK_INFEASIBLE,
        )

    def test_histogram_has_no_zero_count_keys(self, paper_spec):
        ctrl = controller(SearchDPS(strict=True))
        ctrl.request("a", "ghost", paper_spec)
        ctrl.request("a", "b", ChannelSpec(100, 3, 5))
        ctrl.would_accept("a", "b", paper_spec)
        assert all(v > 0 for v in ctrl.rejections_by_reason.values())
        assert sum(ctrl.rejections_by_reason.values()) == ctrl.reject_count


class TestCachedControllerEquivalence:
    """The cached fast path is an implementation detail: a cached and a
    from-scratch controller fed the same requests must be
    indistinguishable through the public API."""

    def test_decision_streams_identical_under_saturation(self, paper_spec):
        cached = controller(AsymmetricDPS())
        naive = AdmissionController(
            SystemState(NODES), AsymmetricDPS(), use_cache=False
        )
        assert cached.uses_cache and not naive.uses_cache
        pairs = [
            ("a", "b"), ("a", "c"), ("b", "a"), ("c", "d"), ("d", "a"),
        ]
        for source, dest in pairs * 6:
            got = cached.request(source, dest, paper_spec)
            want = naive.request(source, dest, paper_spec)
            assert got.accepted == want.accepted
            assert got.reason == want.reason
            assert got.partition == want.partition
            if got.accepted:
                assert (
                    got.channel.channel_id == want.channel.channel_id
                )
        assert cached.rejections_by_reason == naive.rejections_by_reason
        for node in NODES:
            for link in (LinkRef.uplink(node), LinkRef.downlink(node)):
                assert cached.state.link_utilization(
                    link
                ) == naive.state.link_utilization(link)

    def test_release_keeps_cache_in_lockstep(self, paper_spec):
        ctrl = controller(SymmetricDPS())
        ids = [
            ctrl.request("a", dest, paper_spec).channel.channel_id
            for dest in ("b", "c", "d")
        ]
        ctrl.release(ids[1])
        up = LinkRef.uplink("a")
        assert ctrl.cache is not None
        assert ctrl.cache.link_load(up) == ctrl.state.link_load(up) == 2
        assert ctrl.cache.link_utilization(
            up
        ) == ctrl.state.link_utilization(up)
        # The freed capacity is immediately usable again.
        assert ctrl.request("a", "b", paper_spec).accepted

    def test_count_preserving_swap_through_state_is_seen(self):
        """Release one channel and install a heavier one on the same
        uplink straight through the state: the uplink holds one task
        before and after, and the cached controller must still decide
        against the heavier one."""
        state = SystemState(["a", "b", "c"])
        cached = AdmissionController(state, SymmetricDPS())
        naive = AdmissionController(state, SymmetricDPS(), use_cache=False)
        first = cached.request(
            "a", "b", ChannelSpec(period=100, capacity=2, deadline=40)
        )
        assert first.accepted and first.channel.channel_id == 1
        state.release(1)
        heavy = RTChannel(
            source="a",
            destination="c",
            spec=ChannelSpec(period=100, capacity=18, deadline=40),
            channel_id=77,
        )
        heavy.assign_partition(DeadlinePartition(uplink=20, downlink=20))
        heavy.state = ChannelState.ACTIVE
        state.install(heavy)
        assert state.link_load(LinkRef.uplink("a")) == 1
        spec = ChannelSpec(period=100, capacity=3, deadline=40)
        want = naive.request("a", "b", spec)
        assert want.reason is RejectionReason.UPLINK_INFEASIBLE
        got = cached.request("a", "b", spec)
        assert (got.accepted, got.reason) == (want.accepted, want.reason)
        assert cached.cache is state.cache
