"""Tests for the batch admission engine (``admit_many`` / ``preview_many``).

The contract under test is *stream equality*: admit_many over any burst
must produce exactly the decisions, counters and final state the scalar
``request()`` loop would -- including mid-burst failures, which must
leave the controller byte-identical (per the persistence snapshot) to a
scalar controller that processed the same prefix.
"""

from __future__ import annotations

import pytest

from repro.core import persistence
from repro.core.admission import (
    AdmissionController,
    RejectionReason,
    SystemState,
)
from repro.core.channel import ChannelSpec
from repro.core.partitioning import AsymmetricDPS, SymmetricDPS
from repro.errors import ChannelParameterError
from repro.multiswitch.admission import MultiSwitchAdmission
from repro.multiswitch.graph import build_chain_graph
from repro.multiswitch.partitioning import MultiHopSymmetric

SPEC = ChannelSpec(period=100, capacity=3, deadline=40)
#: valid spec the symmetric split cannot partition (d/2 < C).
TIGHT = ChannelSpec(period=100, capacity=3, deadline=4)

NODES = [f"m{i}" for i in range(4)] + [f"s{i}" for i in range(6)]


def build(scheme="sdps", use_cache=True):
    dps = SymmetricDPS() if scheme == "sdps" else AsymmetricDPS()
    return AdmissionController(
        SystemState(list(NODES)), dps, use_cache=use_cache
    )


def saturating_burst():
    """A burst that accepts, saturates, repeats, and hits every
    state-independent rejection at least once."""
    burst = []
    for m in ("m0", "m1", "m2", "m3"):
        for s in ("s0", "s1", "s2", "s3", "s4", "s5"):
            burst.append((m, s, SPEC))
    burst.append(("m0", "ghost", SPEC))       # UNKNOWN_NODE
    burst.append(("m0", "s0", TIGHT))         # NOT_PARTITIONABLE
    # Saturated tail: repeats of already-decided keys.
    burst.extend(burst[:20] * 3)
    burst.append(("ghost", "s0", SPEC))
    return burst


def assert_streams_equal(scalar, batched):
    assert len(scalar) == len(batched)
    for i, (a, b) in enumerate(zip(scalar, batched)):
        assert a.accepted == b.accepted, i
        assert a.reason == b.reason, i
        assert a.channel.channel_id == b.channel.channel_id, i
        assert a.partition == b.partition, i
        assert a.uplink_report == b.uplink_report, i
        assert a.downlink_report == b.downlink_report, i


def assert_controllers_identical(a, b):
    assert a.accept_count == b.accept_count
    assert a.reject_count == b.reject_count
    assert a.rejections_by_reason == b.rejections_by_reason
    assert persistence.dumps(a) == persistence.dumps(b)


class TestAdmitManyEquality:
    @pytest.mark.parametrize("scheme", ["sdps", "adps"])
    def test_stream_equal_to_scalar_loop(self, scheme):
        burst = saturating_burst()
        scalar_ctrl, batch_ctrl = build(scheme), build(scheme)
        scalar = [scalar_ctrl.request(s, d, sp) for s, d, sp in burst]
        batched = batch_ctrl.admit_many(burst)
        assert_streams_equal(scalar, batched)
        assert_controllers_identical(scalar_ctrl, batch_ctrl)

    @pytest.mark.parametrize("scheme", ["sdps", "adps"])
    def test_uncached_fallback_is_stream_equal(self, scheme):
        burst = saturating_burst()
        scalar_ctrl = build(scheme, use_cache=False)
        batch_ctrl = build(scheme, use_cache=False)
        scalar = [scalar_ctrl.request(s, d, sp) for s, d, sp in burst]
        batched = batch_ctrl.admit_many(burst)
        assert_streams_equal(scalar, batched)
        assert_controllers_identical(scalar_ctrl, batch_ctrl)

    def test_repeats_hit_the_template_path(self):
        ctrl = build()
        decisions = ctrl.admit_many(saturating_burst())
        assert ctrl.batch_count == 1
        assert ctrl.batch_template_hits > 0
        # Hits only ever answer rejected repeats: acceptances always
        # run the fresh path (each consumes a channel ID).
        accepted = sum(1 for d in decisions if d.accepted)
        assert accepted == ctrl.accept_count

    def test_interleaved_bursts_and_releases(self):
        scalar_ctrl, batch_ctrl = build(), build()
        burst = saturating_burst()
        assert_streams_equal(
            [scalar_ctrl.request(s, d, sp) for s, d, sp in burst],
            batch_ctrl.admit_many(burst),
        )
        for channel_id in sorted(scalar_ctrl.state.channels)[::2]:
            scalar_ctrl.release(channel_id)
            batch_ctrl.release(channel_id)
        # Freed capacity must be re-admittable identically.
        assert_streams_equal(
            [scalar_ctrl.request(s, d, sp) for s, d, sp in burst],
            batch_ctrl.admit_many(burst),
        )
        assert_controllers_identical(scalar_ctrl, batch_ctrl)

    def test_empty_burst_is_a_counted_noop(self):
        ctrl = build()
        before = persistence.dumps(ctrl)
        assert ctrl.admit_many([]) == []
        assert persistence.dumps(ctrl) == before
        assert ctrl.batch_count == 1
        assert ctrl.batch_template_hits == 0


class TestPartialBatchFailure:
    def test_mid_burst_error_leaves_scalar_prefix_state(self):
        """A poisoned request mid-burst must leave zero residue beyond
        the already-decided prefix: counters and snapshot byte-identical
        to the scalar loop failing at the same element."""
        burst = saturating_burst()
        poisoned = burst[:31] + [("m0", "m0", SPEC)] + burst[31:]
        scalar_ctrl, batch_ctrl = build(), build()
        with pytest.raises(ChannelParameterError):
            for s, d, sp in poisoned:
                scalar_ctrl.request(s, d, sp)
        with pytest.raises(ChannelParameterError):
            batch_ctrl.admit_many(poisoned)
        assert_controllers_identical(scalar_ctrl, batch_ctrl)

    def test_poisoned_burst_counts_only_the_prefix(self):
        ctrl = build()
        with pytest.raises(ChannelParameterError):
            ctrl.admit_many(
                [("m0", "s0", SPEC), ("m0", "m0", SPEC), ("m1", "s1", SPEC)]
            )
        assert ctrl.accept_count == 1
        assert ctrl.reject_count == 0
        assert ctrl.batch_count == 1


class TestPreviewMany:
    def test_zero_side_effects(self):
        ctrl = build()
        ctrl.admit_many(saturating_burst()[:10])
        before = persistence.dumps(ctrl)
        counters = (ctrl.accept_count, ctrl.reject_count, ctrl.batch_count)
        ctrl.preview_many(saturating_burst())
        assert persistence.dumps(ctrl) == before
        assert (
            ctrl.accept_count, ctrl.reject_count, ctrl.batch_count
        ) == counters

    def test_matches_scalar_preview(self):
        ctrl = build()
        ctrl.admit_many(saturating_burst()[:25])
        burst = saturating_burst()
        scalar = [ctrl.preview(s, d, sp) for s, d, sp in burst]
        batched = ctrl.preview_many(burst)
        for a, b in zip(scalar, batched):
            assert a.accepted == b.accepted
            assert a.reason == b.reason
            assert a.partition == b.partition

    def test_agrees_with_would_accept_and_admit(self):
        ctrl = build()
        burst = saturating_burst()
        previews = ctrl.preview_many(burst)
        # would_accept must agree with the preview at the same state...
        for (s, d, sp), decision in zip(burst[:10], previews[:10]):
            assert ctrl.would_accept(s, d, sp) == decision.accepted
        # ...and the first decision of a real burst matches its preview.
        first = ctrl.admit_many(burst[:1])[0]
        assert first.accepted == previews[0].accepted


class TestMultiSwitchAdmitMany:
    def make(self, use_cache=True):
        return MultiSwitchAdmission(
            fabric=build_chain_graph(2, 2),
            dps=MultiHopSymmetric(),
            use_cache=use_cache,
        )

    def multihop_burst(self):
        nodes = ("n0_0", "n0_1", "n1_0", "n1_1")
        burst = [
            (a, b, SPEC) for a in nodes for b in nodes if a != b
        ]
        return burst * 4

    def test_stream_equal_to_scalar_loop(self):
        burst = self.multihop_burst()
        scalar_adm, batch_adm = self.make(), self.make()
        scalar = [scalar_adm.request(s, d, sp) for s, d, sp in burst]
        batched = batch_adm.admit_many(burst)
        assert len(scalar) == len(batched)
        for i, (a, b) in enumerate(zip(scalar, batched)):
            assert a.accepted == b.accepted, i
            assert a.channel_id == b.channel_id, i
            assert a.parts == b.parts, i
            assert a.failed_link == b.failed_link, i
        assert scalar_adm.accept_count == batch_adm.accept_count
        assert scalar_adm.reject_count == batch_adm.reject_count
        touched = {
            link for d in scalar if d.accepted for link in d.links
        }
        for link in touched:
            assert scalar_adm.link_load(link) == batch_adm.link_load(link)
