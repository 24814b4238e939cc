"""Tests for k-way partitioning and multi-switch admission."""

from __future__ import annotations

import pytest

from repro.core.channel import ChannelSpec
from repro.errors import (
    AdmissionError,
    PartitioningError,
    UnknownChannelError,
)
from repro.multiswitch.admission import MultiSwitchAdmission
from repro.multiswitch.graph import (
    FabricLink,
    build_chain_graph,
    build_fat_tree,
    build_star_graph,
)
from repro.multiswitch.partitioning import (
    MultiHopProportional,
    MultiHopSymmetric,
    split_deadline,
)


class TestSplitDeadline:
    def test_even_split(self):
        assert split_deadline(40, 3, [1, 1]) == [20, 20]
        assert split_deadline(60, 3, [1, 1, 1]) == [20, 20, 20]

    def test_sum_always_exact(self):
        for weights in ([1, 2], [3, 1, 2], [5, 5, 5, 1]):
            parts = split_deadline(41, 2, weights)
            assert sum(parts) == 41

    def test_proportional(self):
        parts = split_deadline(40, 3, [3, 1])
        assert parts == [30, 10]

    def test_floor_repair(self):
        # weight 0 link must still get >= C.
        parts = split_deadline(40, 5, [1, 0])
        assert parts[1] >= 5
        assert sum(parts) == 40

    def test_all_zero_weights_fall_back_to_even(self):
        assert split_deadline(40, 3, [0, 0]) == [20, 20]

    def test_impossible_split_rejected(self):
        with pytest.raises(PartitioningError):
            split_deadline(5, 3, [1, 1])  # needs >= 6
        with pytest.raises(PartitioningError):
            split_deadline(8, 3, [1, 1, 1])  # needs >= 9

    def test_boundary_exact_k_times_c(self):
        assert split_deadline(9, 3, [7, 1, 1]) == [3, 3, 3]

    def test_zero_links_rejected(self):
        with pytest.raises(PartitioningError):
            split_deadline(10, 1, [])

    def test_negative_weight_rejected(self):
        with pytest.raises(PartitioningError):
            split_deadline(10, 1, [1, -1])

    def test_deterministic_remainder_assignment(self):
        a = split_deadline(10, 1, [1, 1, 1])
        b = split_deadline(10, 1, [1, 1, 1])
        assert a == b
        assert sum(a) == 10


class TestSplitDeadlineEdges:
    """Boundary coverage for the exact-rational split."""

    def test_forced_all_floor_at_k_times_c(self):
        # deadline == k*capacity leaves zero slack: every part must be
        # exactly the floor no matter how skewed the weights are.
        assert split_deadline(20, 4, [97, 1, 1, 1, 1]) == [4, 4, 4, 4, 4]
        assert split_deadline(6, 2, [0, 0, 5]) == [2, 2, 2]

    def test_all_zero_weights_fall_back_with_repair(self):
        # fallback even split plus largest-remainder on the odd unit
        assert split_deadline(7, 2, [0, 0, 0]) == [3, 2, 2]

    def test_single_link_path(self):
        # k == 1 is the star's degenerate case: the whole deadline.
        assert split_deadline(40, 3, [1]) == [40]
        assert split_deadline(40, 3, [0]) == [40]
        assert split_deadline(3, 3, [17]) == [3]

    def test_hundreds_of_links(self):
        k = 300
        parts = split_deadline(1000, 2, [1] * k)
        assert sum(parts) == 1000
        assert min(parts) == 3 and max(parts) == 4  # 100 remainder units
        assert parts == sorted(parts, reverse=True)  # ties -> low index
        skewed = split_deadline(5000, 3, list(range(1, 251)))
        assert sum(skewed) == 5000
        assert min(skewed) >= 3

    def test_remainder_ties_break_toward_low_index(self):
        # equal weights, equal remainders 0.5: the first two win
        assert split_deadline(10, 1, [1, 1, 1, 1]) == [3, 3, 2, 2]
        # distinct weights with pairwise-tied remainders (1.25 / 3.75):
        # among the 0.75 ties index 1 beats index 3
        assert split_deadline(10, 1, [1, 3, 1, 3]) == [1, 4, 1, 4]

    def test_float_hazardous_weights_are_exact(self):
        # weights whose float shares would round unpredictably; the
        # Fraction path pins one bit-reproducible answer.
        big = 10**15
        parts = split_deadline(10, 1, [big, big + 1, 1])
        assert sum(parts) == 10
        assert parts == [4, 5, 1]
        again = split_deadline(10, 1, [big, big + 1, 1])
        assert parts == again


class TestMultiHopSchemes:
    def test_symmetric_equal_parts(self, paper_spec):
        fabric = build_chain_graph(2, 1)
        links = fabric.path_links("n0_0", "n1_0")
        parts = MultiHopSymmetric().partition(
            paper_spec, links, lambda link: 1
        )
        assert sum(parts) == paper_spec.deadline
        assert max(parts) - min(parts) <= 1

    def test_proportional_follows_loads(self, paper_spec):
        fabric = build_chain_graph(2, 1)
        links = fabric.path_links("n0_0", "n1_0")
        loads = {links[0]: 8, links[1]: 1, links[2]: 1}
        parts = MultiHopProportional().partition(
            paper_spec, links, lambda link: loads[link]
        )
        assert sum(parts) == paper_spec.deadline
        assert parts[0] > parts[1] and parts[0] > parts[2]

    def test_two_link_proportional_matches_adps_ratio(self, paper_spec):
        fabric = build_star_graph(["a", "b"])
        links = fabric.path_links("a", "b")
        loads = {links[0]: 2, links[1]: 1}
        parts = MultiHopProportional().partition(
            paper_spec, links, lambda link: loads[link]
        )
        # 40 * 2/3 ~ 26.67 -> largest remainder gives 27/13.
        assert parts == [27, 13]


class TestMultiSwitchAdmission:
    def make(self, scheme=None):
        fabric = build_chain_graph(2, 2)
        return MultiSwitchAdmission(
            fabric=fabric, dps=scheme or MultiHopSymmetric()
        )

    def test_accept_installs_on_every_path_link(self, paper_spec):
        admission = self.make()
        decision = admission.request("n0_0", "n1_0", paper_spec)
        assert decision.accepted
        assert len(decision.links) == 3
        for link in decision.links:
            assert admission.link_load(link) == 1
        assert admission.active_channels == 1

    def test_reject_leaves_no_trace(self):
        admission = self.make()
        bad = ChannelSpec(period=100, capacity=3, deadline=8)  # < 3 links * 3
        decision = admission.request("n0_0", "n1_0", bad)
        assert not decision.accepted
        for link in decision.links:
            assert admission.link_load(link) == 0

    def test_trunk_is_shared_bottleneck(self, paper_spec):
        """Channels between different node pairs contend on the trunk."""
        admission = self.make()
        trunk = FabricLink("sw0", "sw1")
        admission.request("n0_0", "n1_0", paper_spec)
        admission.request("n0_1", "n1_1", paper_spec)
        assert admission.link_load(trunk) == 2

    def test_local_channels_skip_trunk(self, paper_spec):
        admission = self.make()
        admission.request("n0_0", "n0_1", paper_spec)
        assert admission.link_load(FabricLink("sw0", "sw1")) == 0

    def test_saturation_reported_with_failed_link(self, paper_spec):
        admission = self.make()
        results = [
            admission.request("n0_0", "n1_0", paper_spec) for _ in range(30)
        ]
        rejected = [r for r in results if not r.accepted]
        assert rejected
        assert rejected[0].failed_link is not None
        assert rejected[0].reports  # evidence present

    def test_release_restores_capacity(self, paper_spec):
        admission = self.make()
        decisions = []
        while True:
            decision = admission.request("n0_0", "n1_0", paper_spec)
            if not decision.accepted:
                break
            decisions.append(decision)
        admission.release(decisions[0].channel_id)
        assert admission.request("n0_0", "n1_0", paper_spec).accepted

    def test_release_unknown_raises(self):
        with pytest.raises(UnknownChannelError):
            self.make().release(999)

    def test_proportional_beats_symmetric_on_bottleneck(self, paper_spec):
        """The ADPS advantage generalizes to the trunk bottleneck."""
        def fill(admission):
            accepted = 0
            pairs = [("n0_0", "n1_0"), ("n0_1", "n1_1")]
            for _ in range(40):
                for source, destination in pairs:
                    if admission.request(
                        source, destination, paper_spec
                    ).accepted:
                        accepted += 1
            return accepted

        symmetric = fill(self.make(MultiHopSymmetric()))
        proportional = fill(self.make(MultiHopProportional()))
        assert proportional >= symmetric

    def test_degenerate_single_switch_matches_star_semantics(
        self, paper_spec
    ):
        """One-switch fabric behaves like the paper's SDPS star: 6 fit."""
        fabric = build_star_graph(["m", "x", "y"])
        admission = MultiSwitchAdmission(
            fabric=fabric, dps=MultiHopSymmetric()
        )
        accepted = sum(
            admission.request("m", dest, paper_spec).accepted
            for dest in ["x", "y"] * 5
        )
        assert accepted == 6


class TestMultiSwitchCacheParity:
    """The multi-switch admission's cached fast path must be decision-
    identical to its from-scratch path, mirroring the single-switch
    differential guarantee."""

    def _pairs(self):
        return [
            ("n0_0", "n1_0"), ("n0_1", "n1_1"), ("n0_0", "n0_1"),
            ("n1_1", "n0_0"),
        ]

    def test_cached_and_naive_decisions_match(self, paper_spec):
        fabric = build_chain_graph(2, 2)
        cached = MultiSwitchAdmission(
            fabric=fabric, dps=MultiHopProportional(), use_cache=True
        )
        naive = MultiSwitchAdmission(
            fabric=build_chain_graph(2, 2),
            dps=MultiHopProportional(),
            use_cache=False,
        )
        assert cached.uses_cache and not naive.uses_cache
        released = False
        for source, destination in self._pairs() * 10:
            got = cached.request(source, destination, paper_spec)
            want = naive.request(source, destination, paper_spec)
            assert got.accepted == want.accepted
            assert got.channel_id == want.channel_id
            assert got.parts == want.parts
            if got.accepted and not released:
                # One interleaved release on both sides.
                cached.release(got.channel_id)
                naive.release(want.channel_id)
                released = True
        for source, destination in self._pairs():
            for link in cached.fabric.path_links(source, destination):
                assert cached.link_load(link) == naive.link_load(link)

    def test_rejections_do_not_burn_channel_ids(self):
        """Rejected multi-hop requests no longer consume IDs."""
        fabric = build_chain_graph(2, 2)
        admission = MultiSwitchAdmission(
            fabric=fabric, dps=MultiHopSymmetric()
        )
        bad = ChannelSpec(period=100, capacity=3, deadline=8)
        for _ in range(5):
            assert not admission.request("n0_0", "n1_0", bad).accepted
        decision = admission.request(
            "n0_0", "n1_0", ChannelSpec(period=100, capacity=3, deadline=40)
        )
        assert decision.accepted
        assert decision.channel_id == 1


class TestMultiSwitchReads:
    def test_reads_never_insert(self):
        fabric = build_fat_tree(4, hosts_per_edge=2)
        admission = MultiSwitchAdmission(
            fabric=fabric, dps=MultiHopSymmetric()
        )
        hosts = sorted(fabric.nodes)
        links = {
            link
            for source in hosts[:8]
            for destination in hosts[8:]
            for link in fabric.path_links(source, destination)
        }
        assert len(links) == 48
        for link in links:
            assert admission.tasks_on(link) == ()
            assert admission.link_load(link) == 0
        assert admission.occupied_links() == ()
        assert admission._cache._entries == {}
        assert admission._refs == {}


class TestFabricChannelIds:
    """The fabric's IDs stay in 1..MAX_CHANNEL_ID (shrunk to 3 here, as
    tests/core/test_admission.py does for the star)."""

    SPEC = ChannelSpec(period=1000, capacity=1, deadline=1000)

    def admission(self) -> MultiSwitchAdmission:
        admission = MultiSwitchAdmission(
            fabric=build_chain_graph(2, 2), dps=MultiHopSymmetric()
        )
        admission.MAX_CHANNEL_ID = 3
        return admission

    def admit(self, admission) -> int:
        decision = admission.request("n0_0", "n1_0", self.SPEC)
        assert decision.accepted
        return decision.channel_id

    def test_ids_wrap_and_skip_live_ones(self):
        admission = self.admission()
        assert [self.admit(admission) for _ in range(3)] == [1, 2, 3]
        admission.release(2)
        assert self.admit(admission) == 2  # wraps past 3, skips live 1
        admission.release(1)
        assert self.admit(admission) == 1  # skips live 3
        assert sorted(admission.decisions) == [1, 2, 3]

    def test_exhaustion_raises(self):
        admission = self.admission()
        for _ in range(3):
            self.admit(admission)
        with pytest.raises(AdmissionError, match="exhausted"):
            admission.request("n0_0", "n1_0", self.SPEC)
        admission.release(3)
        assert self.admit(admission) == 3
