"""Tests for the incremental per-link feasibility cache.

The cache's contract is *verdict equality* with the from-scratch
:func:`repro.core.feasibility.is_feasible` under any interleaving of
``check`` / ``install`` / ``release`` -- these tests drive randomized
histories against a mirrored reference task list and also pin each
internal fast path (density shortcut, beyond-horizon shortcut, sticky
infeasible memo, graft-on-install, installs made through the owning
state, size-guard fallback)
individually so a regression names the mechanism that broke.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from repro.core.admission import SystemState
from repro.core.channel import (
    ChannelSpec,
    ChannelState,
    DeadlinePartition,
    RTChannel,
)
from repro.core.feasibility import is_feasible
from repro.core.feasibility_cache import (
    FeasibilityCache,
    LinkCacheEntry,
    MAX_CACHED_POINTS,
)
from repro.core.task import LinkRef, LinkTask
from repro.errors import UnknownChannelError

LINK = LinkRef.uplink("cache-node")


def task(period, capacity, deadline, channel_id=-1, link=LINK):
    return LinkTask(
        link=link,
        period=period,
        capacity=capacity,
        deadline=deadline,
        channel_id=channel_id,
    )


def reference(installed, candidate):
    return is_feasible(list(installed) + [candidate])


class TestVerdictParity:
    def test_randomized_histories_match_reference(self):
        """check/install/release in random order: verdicts always agree."""
        rng = random.Random(18_5)
        for _ in range(3):
            cache = FeasibilityCache()
            mirror: list[LinkTask] = []
            next_id = 0
            for _ in range(120):
                period = rng.choice((10, 20, 25, 40, 50, 100))
                capacity = rng.randint(1, max(1, period // 4))
                deadline = rng.randint(capacity, 2 * period)
                candidate = task(period, capacity, deadline, next_id)
                report = cache.check(candidate)
                expected = reference(mirror, candidate)
                assert report.feasible == expected.feasible, (
                    f"verdict diverged for {candidate} over {mirror}"
                )
                assert report.link_utilization == expected.link_utilization
                roll = rng.random()
                if roll < 0.45 and report.feasible:
                    cache.install(candidate)
                    mirror.append(candidate)
                    next_id += 1
                elif roll < 0.60 and mirror:
                    victim = rng.choice(mirror)
                    cache.release(LINK, victim.channel_id)
                    mirror.remove(victim)
            stats = cache.stats
            assert stats.checks == 120
            assert (
                stats.memo_hits
                + stats.incremental_checks
                + stats.shortcut_accepts
                + stats.full_fallbacks
                == stats.checks
            )

    def test_incremental_report_fields_match_reference(self):
        """A fresh (non-shortcut) overlay matches the reference report
        field-for-field, not just in verdict."""
        cache = FeasibilityCache()
        installed = []
        # Dense deadlines keep density > 1, forcing the exact path.
        for cid, deadline in enumerate((12, 14, 16, 18)):
            t = task(100, 6, deadline, cid)
            cache.install(t)
            installed.append(t)
        for deadline in (13, 20, 35, 90):
            candidate = task(100, 6, deadline)
            got = cache.check(candidate)
            want = reference(installed, candidate)
            assert got.feasible == want.feasible
            assert got.link_utilization == want.link_utilization
            assert got.horizon == want.horizon
            assert got.violation == want.violation

    def test_infeasible_verdict_and_violation_point(self):
        cache = FeasibilityCache()
        for cid in range(4):
            cache.install(task(100, 6, 18, cid))
        candidate = task(100, 6, 18)
        got = cache.check(candidate)
        want = reference([task(100, 6, 18, c) for c in range(4)], candidate)
        assert not want.feasible
        assert not got.feasible
        assert got.violation == want.violation


class TestShortcutPaths:
    def test_density_shortcut_accepts_and_matches_reference(self):
        cache = FeasibilityCache()
        base = task(100, 2, 50, 0)
        cache.install(base)
        candidate = task(100, 3, 40)
        report = cache.check(candidate)
        want = reference([base], candidate)
        assert report.feasible and want.feasible
        assert cache.stats.shortcut_accepts == 1
        # The density path still runs the busy-period fixpoint so even
        # the report horizon matches the from-scratch test.
        assert report.horizon == want.horizon
        assert report.points_checked == 0  # the shortcut's signature

    def test_beyond_horizon_shortcut(self):
        cache = FeasibilityCache()
        cache.install(task(100, 2, 4, 0))
        cache.install(task(100, 2, 5, 1))
        cache.check(task(100, 2, 6))  # materialize the base arrays
        before = cache.stats.shortcut_accepts
        # Density 2/4 + 2/5 + 30/95 > 1 forces the exact path; the
        # combined busy period (34) stays below the candidate deadline
        # (95), so the candidate cannot violate anywhere.
        candidate = task(100, 30, 95)
        report = cache.check(candidate)
        assert report.feasible
        assert cache.stats.shortcut_accepts == before + 1
        assert reference(
            [task(100, 2, 4, 0), task(100, 2, 5, 1)], candidate
        ).feasible

    def test_infeasible_memo_survives_installs(self):
        """Sticky rejection: demand monotonicity keeps memo_i valid."""
        cache = FeasibilityCache()
        for cid in range(4):
            cache.install(task(100, 6, 18, cid))
        rejected = task(100, 6, 18)
        assert not cache.check(rejected).feasible
        cache.install(task(100, 2, 90, 99))
        hits_before = cache.stats.memo_hits
        report = cache.check(rejected)
        assert not report.feasible
        assert cache.stats.memo_hits == hits_before + 1
        # And the sticky verdict is still the true verdict.
        mirror = [task(100, 6, 18, c) for c in range(4)]
        mirror.append(task(100, 2, 90, 99))
        assert not reference(mirror, rejected).feasible

    def test_feasible_memo_dies_on_install(self):
        cache = FeasibilityCache()
        cache.install(task(100, 10, 30, 0))
        candidate = task(100, 10, 30)
        assert cache.check(candidate).feasible
        cache.install(task(100, 10, 30, 1))
        hits_before = cache.stats.memo_hits
        cache.check(candidate)  # must re-evaluate, not hit a stale memo
        assert cache.stats.memo_hits == hits_before

    def test_repeated_check_hits_memo(self):
        cache = FeasibilityCache()
        cache.install(task(100, 3, 40, 0))
        candidate = task(100, 3, 40)
        first = cache.check(candidate)
        second = cache.check(candidate)
        assert cache.stats.memo_hits == 1
        assert first is second  # the exact memoized report


class TestInstallGraft:
    def test_grafted_arrays_equal_fresh_rebuild(self):
        """After check-then-install cycles the entry's cached arrays are
        identical to those of a freshly built entry -- the graft (and
        its next_pt bookkeeping) introduces no drift."""
        cache = FeasibilityCache()
        installed = []
        for cid, (c, d) in enumerate(
            ((6, 18), (6, 25), (4, 33), (5, 60), (3, 97))
        ):
            candidate = task(100, c, d, cid)
            if cache.check(candidate).feasible:
                cache.install(candidate)
                installed.append(candidate)
        entry = cache.entry(LINK)
        entry._ensure_base()
        fresh = LinkCacheEntry(LINK, installed)
        fresh._ensure_base()
        assert entry.points == fresh.points
        assert entry.demands == fresh.demands
        assert entry.busy == fresh.busy
        assert entry.horizon == fresh.horizon
        assert entry.next_pt == fresh.next_pt
        assert entry.util == fresh.util

    def test_release_then_check_matches_reference(self):
        cache = FeasibilityCache()
        mirror = []
        for cid in range(5):
            t = task(100, 5, 30 + 10 * cid, cid)
            cache.install(t)
            mirror.append(t)
        cache.release(LINK, 2)
        del mirror[2]
        candidate = task(100, 12, 45)
        got = cache.check(candidate)
        want = reference(mirror, candidate)
        assert got.feasible == want.feasible
        assert got.link_utilization == want.link_utilization

    def test_release_unknown_channel_raises(self):
        cache = FeasibilityCache()
        cache.install(task(100, 3, 40, 7))
        with pytest.raises(UnknownChannelError):
            cache.release(LINK, 8)


class TestFallbacks:
    def test_infeasible_base_falls_back_to_reference(self):
        """A base set that is itself infeasible disables the overlay."""
        cache = FeasibilityCache()
        for cid in range(5):  # five C=6 d=18 tasks: h(18)=30 > 18
            cache.install(task(100, 6, 18, cid))
        candidate = task(100, 1, 90)
        report = cache.check(candidate)
        want = reference([task(100, 6, 18, c) for c in range(5)], candidate)
        assert report.feasible == want.feasible
        assert not report.feasible
        assert cache.stats.full_fallbacks == 1

    def test_size_guard_falls_back_but_stays_correct(self, monkeypatch):
        import repro.core.feasibility_cache as fc

        assert MAX_CACHED_POINTS > 4
        monkeypatch.setattr(fc, "MAX_CACHED_POINTS", 4)
        cache = FeasibilityCache()
        mirror = []
        # Dense deadlines (density > 1) keep the exact path in play, so
        # the overlay's point estimate actually hits the shrunken cap.
        for cid in range(4):
            t = task(100, 6, 18 + 2 * cid, cid)
            cache.install(t)
            mirror.append(t)
        candidate = task(100, 6, 26)
        report = cache.check(candidate)
        want = reference(mirror, candidate)
        assert report.feasible == want.feasible
        assert cache.stats.full_fallbacks >= 1

    def test_overutilized_candidate_rejected_instantly(self):
        cache = FeasibilityCache()
        cache.install(task(10, 6, 10, 0))
        report = cache.check(task(10, 5, 10))
        assert not report.feasible
        assert report.link_utilization > 1

    def test_all_implicit_uses_liu_layland(self):
        cache = FeasibilityCache()
        cache.install(task(50, 10, 50, 0))
        report = cache.check(task(100, 20, 100))
        assert report.feasible
        assert report.used_liu_layland


class TestDriftResync:
    """A state keeps its tasks in its cache, so there is no second copy
    to drift: what the state installs, the next check sees."""

    def test_external_state_mutation_triggers_resync(self, paper_spec):
        state = SystemState(["a", "b"])
        cache = state.cache
        up = LinkRef.uplink("a")
        candidate = task(100, 3, 20, link=up)
        assert cache.check(candidate).feasible
        # Install straight into the state: it keeps its tasks in this
        # cache, so the next check sees the channel.
        channel = RTChannel(source="a", destination="b", spec=paper_spec)
        channel.channel_id = 1
        channel.assign_partition(DeadlinePartition(uplink=20, downlink=20))
        channel.state = ChannelState.ACTIVE
        state.install(channel)
        report = cache.check(candidate)
        want = reference(state.tasks_on(up), candidate)
        assert report.feasible == want.feasible
        assert report.link_utilization == want.link_utilization

    def test_epoch_advances_on_every_mutation(self):
        cache = FeasibilityCache()
        first = cache.entry(LINK).epoch
        cache.install(task(100, 3, 40, 0))
        second = cache.entry(LINK).epoch
        cache.release(LINK, 0)
        third = cache.entry(LINK).epoch
        assert first < second < third


class TestReadsNeverInsert:
    """Reading a link the cache has not seen creates no entry."""

    def test_cache_reads_of_an_unknown_link(self):
        cache = FeasibilityCache()
        assert cache.tasks_on(LINK) == ()
        assert cache.link_load(LINK) == 0
        assert cache.link_utilization(LINK) == Fraction(0)
        assert cache.occupied_links() == ()
        assert cache._entries == {}

    def test_system_state_reads_of_an_unknown_link(self):
        state = SystemState(nodes=["a", "b"])
        ghost = LinkRef.uplink("zzz")
        assert state.tasks_on(ghost) == ()
        assert state.link_load(ghost) == 0
        assert state.link_utilization(ghost) == 0
        assert state.cache._entries == {}


class TestMultiLinkIndependence:
    def test_links_do_not_interfere(self):
        cache = FeasibilityCache()
        other = LinkRef.downlink("cache-node-2")
        cache.install(task(100, 6, 18, 0))
        cache.install(task(100, 6, 18, 1, link=other))
        # LINK has one 6/18 task; four more fit exactly (h(18)=30>18 at
        # five), so the fifth is rejected on LINK but the same shape is
        # still fine on the lightly loaded other link.
        for cid in range(2, 4):
            assert cache.check(task(100, 6, 18, cid)).feasible
            cache.install(task(100, 6, 18, cid))
        assert cache.link_load(LINK) == 3
        assert cache.link_load(other) == 1
        assert cache.check(task(100, 6, 18, link=other)).feasible

    def test_spec_to_channel_spec_alignment(self):
        spec = ChannelSpec(period=100, capacity=3, deadline=40)
        assert spec.is_partitionable()
