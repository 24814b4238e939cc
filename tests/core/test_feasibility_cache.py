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

import math
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
    _busy_period_capped,
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
        """check/install/release in random order: verdicts always agree,
        and a check that misses both memos reports the reference's
        horizon and violation too (a memoized infeasible report keeps
        describing the smaller set it was derived on, THEORY.md §7
        item 6)."""
        rng = random.Random(18_5)
        # (periods, max capacity, max deadline): the first menu runs
        # every path. In the second every deadline is at most 40, so a
        # feasible set holds at most 40 slots (h(40) <= 40), and every
        # period exceeds that plus a candidate's capacity: each busy
        # period is the closed-form capacity sum.
        menus = [
            ((10, 20, 25, 40, 50, 100), lambda p: max(1, p // 4),
             lambda p: 2 * p),
            ((200, 250, 400, 500), lambda p: 4, lambda p: 40),
        ]
        fresh = [0, 0]
        for menu, (periods, max_capacity, max_deadline) in enumerate(menus):
            for _ in range(3):
                cache = FeasibilityCache()
                mirror: list[LinkTask] = []
                next_id = 0
                for _ in range(120):
                    period = rng.choice(periods)
                    capacity = rng.randint(1, max_capacity(period))
                    deadline = rng.randint(capacity, max_deadline(period))
                    candidate = task(period, capacity, deadline, next_id)
                    hits = cache.stats.memo_hits
                    report = cache.check(candidate)
                    expected = reference(mirror, candidate)
                    assert report.feasible == expected.feasible, (
                        f"verdict diverged for {candidate} over {mirror}"
                    )
                    assert report.link_utilization == (
                        expected.link_utilization
                    )
                    if cache.stats.memo_hits == hits:
                        fresh[menu] += 1
                        assert report.horizon == expected.horizon
                        assert report.violation == expected.violation
                        if menu == 1:
                            assert sum(
                                t.capacity for t in mirror
                            ) + capacity <= min(periods)
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
        assert min(fresh) > 100

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


def busy_reference(periods, capacities):
    """Least L > 0 with W(L) = L: W iterated from L_0 = W(0+) = sum C."""
    length = sum(capacities)
    while True:
        nxt = sum(-(-length // p) * c for p, c in zip(periods, capacities))
        if nxt == length:
            return length
        length = nxt


def demand_reference(tasks, t):
    """h(t) of ``tasks``: every job due by t, counted task by task."""
    return sum(
        (1 + (t - x.deadline) // x.period) * x.capacity
        for x in tasks
        if t >= x.deadline
    )


def random_task_set(rng, n, periods, max_capacity):
    """``n`` tasks with utilization at most 1 (drawn until it is)."""
    while True:
        tasks = []
        for cid in range(n):
            period = rng.choice(periods)
            capacity = rng.randint(1, min(period, max_capacity))
            tasks.append(task(
                period, capacity, rng.randint(capacity, 2 * period), cid
            ))
        if sum(Fraction(x.capacity, x.period) for x in tasks) <= 1:
            return tasks


class TestClosedForms:
    """The closed-form busy periods and the one-pass new-point demands
    against plain loops written here (THEORY.md §7 items 2 and 7)."""

    PERIODS = (6, 10, 12, 15, 20, 25, 40, 60, 100)

    def test_base_busy_period_matches_a_plain_iteration(self):
        rng = random.Random(24)
        inside = outside = 0
        for _ in range(600):
            tasks = random_task_set(
                rng, rng.randint(1, 7), self.PERIODS, rng.choice((2, 8, 30))
            )
            periods = [x.period for x in tasks]
            capacities = [x.capacity for x in tasks]
            want = busy_reference(periods, capacities)
            hyper = math.lcm(*periods)
            # uncapped, the result is the least fixpoint itself
            assert _busy_period_capped(periods, capacities, 10**18) == want
            got = _busy_period_capped(periods, capacities, hyper)
            if sum(capacities) <= min(periods):
                inside += 1
                assert got == want == sum(capacities)
            else:
                outside += 1
                # an early exit at the cap is still a lower bound
                assert min(got, hyper) == min(want, hyper)
                assert got <= want
        assert inside > 100 and outside > 100
        assert _busy_period_capped([], [], 1) == 0

    def test_combined_busy_period_matches_a_plain_iteration(self):
        rng = random.Random(25)
        inside = outside = 0
        for _ in range(600):
            tasks = random_task_set(
                rng, rng.randint(0, 6), self.PERIODS, rng.choice((2, 8, 30))
            )
            entry = LinkCacheEntry(LINK, tasks)
            if rng.random() < 0.5:
                entry._ensure_base()  # warm start from the cached busy
            period = rng.choice(self.PERIODS)
            capacity = rng.randint(1, min(period, rng.choice((2, 8, 30))))
            combined = tasks + [task(period, capacity, period)]
            if sum(Fraction(x.capacity, x.period) for x in combined) > 1:
                continue
            periods = [x.period for x in combined]
            capacities = [x.capacity for x in combined]
            want = busy_reference(periods, capacities)
            got, hyper2 = entry._combined_busy(period, capacity)
            assert hyper2 == math.lcm(*periods)
            if sum(capacities) <= min(periods):
                inside += 1
                assert got == want == sum(capacities)
            else:
                outside += 1
                assert min(got, hyper2) == min(want, hyper2)
                assert got <= want
        assert inside > 100 and outside > 100

    def test_cached_busy_never_exceeds_the_least_fixpoint(self):
        """Installs adopt overlay busy periods; each stays a lower bound
        on the installed set's busy period, which is what lets the
        closed form stand in for the warm-started iteration."""
        rng = random.Random(26)
        for _ in range(6):
            cache = FeasibilityCache()
            mirror: list[LinkTask] = []
            for cid in range(80):
                period = rng.choice(self.PERIODS)
                capacity = rng.randint(1, max(1, period // 5))
                candidate = task(
                    period, capacity, rng.randint(capacity, 2 * period), cid
                )
                if cache.check(candidate).feasible:
                    cache.install(candidate)
                    mirror.append(candidate)
                elif mirror and rng.random() < 0.3:
                    victim = rng.choice(mirror)
                    cache.release(LINK, victim.channel_id)
                    mirror.remove(victim)
                entry = cache.entry(LINK)
                if entry.busy is not None and mirror:
                    assert entry.busy <= busy_reference(
                        entry.plist, entry.clist
                    )

    def test_new_point_demands_match_the_task_scan(self):
        """Every demand ``_new_points`` returns is the installed set's
        h(t) counted task by task, and the points are exactly the
        combined set's control points the cached arrays lack."""
        rng = random.Random(27)
        seen = {"inside": 0, "growth": 0, "beyond": 0, "no_base_point": 0}
        for _ in range(400):
            tasks = random_task_set(
                rng, rng.randint(1, 6), self.PERIODS, rng.choice((3, 10))
            )
            if rng.random() < 0.5:
                entry = LinkCacheEntry(LINK, tasks)
            else:
                # the same set reached through check-and-install, so
                # grafted arrays are covered too
                cache = FeasibilityCache()
                for t in tasks:
                    if cache.check(t).feasible:
                        cache.install(t)
                entry = cache.entry(LINK)
                tasks = list(entry.tasks)
            if not entry._ensure_base():
                continue
            for _ in range(8):
                period = rng.choice(self.PERIODS)
                capacity = rng.randint(1, max(1, period // 4))
                deadline = rng.randint(capacity, 2 * period)
                if entry.util + Fraction(capacity, period) > 1:
                    continue
                busy2, hyper2 = entry._combined_busy(period, capacity)
                horizon2 = min(busy2, hyper2)
                if deadline > horizon2:
                    continue
                sized = entry._new_points(period, deadline, horizon2)
                assert sized is not None
                lo_idx, new_pts, new_dems = sized
                assert lo_idx == sum(1 for t in entry.points if t < deadline)
                base_h = entry.horizon
                expected = {
                    x.deadline + m * x.period
                    for x in tasks
                    for m in range(horizon2 // x.period + 1)
                    if base_h < x.deadline + m * x.period <= horizon2
                }
                expected |= {
                    t for t in range(deadline, horizon2 + 1, period)
                    if t not in entry.points
                }
                assert new_pts == sorted(expected)
                assert len(new_dems) == len(new_pts)
                for t, h in zip(new_pts, new_dems):
                    assert h == demand_reference(tasks, t), (t, tasks)
                    if t <= base_h:
                        seen["inside"] += 1
                    elif (t - deadline) % period or t < deadline:
                        seen["growth"] += 1
                    else:
                        seen["beyond"] += 1
                if new_pts and not entry.points:
                    seen["no_base_point"] += 1
        assert min(seen.values()) > 10, seen


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
        assert cache.stats.releases == 0
        cache.release(LINK, 7)
        assert cache.stats.releases == 1

    def test_release_on_an_unknown_link_leaves_nothing_behind(self):
        # A failed release creates no entry and is not counted.
        cache = FeasibilityCache()
        with pytest.raises(UnknownChannelError, match="channel 1"):
            cache.release(LinkRef.uplink("x"), 1)
        assert cache._entries == {}
        assert cache.stats.releases == 0

    def test_release_keeps_every_field_equal_to_a_rebuild(self):
        # release() subtracts the utilization through the interned sums
        # and recomputes the hyperperiod in one lcm; every derived field
        # must equal a from-scratch rebuild of the remaining tasks.
        cache = FeasibilityCache()
        specs = ((100, 5, 30), (60, 4, 60), (45, 3, 20), (100, 7, 100),
                 (30, 2, 25))
        for cid, spec in enumerate(specs):
            cache.install(task(*spec, cid))
        for cid in (2, 0, 4, 1, 3):
            cache.release(LINK, cid)
            entry = cache.entry(LINK)
            fresh = LinkCacheEntry(LINK, entry.tasks)
            for name in REBUILT:
                assert getattr(entry, name) == getattr(fresh, name), name
        assert cache.link_utilization(LINK) == 0

    def test_an_empty_entry_matches_an_empty_rebuild(self):
        entry = LinkCacheEntry(LINK)
        before = {name: getattr(entry, name) for name in REBUILT + DIRTY}
        types = {name: type(value) for name, value in before.items()}
        entry._rebuild()
        after = {name: getattr(entry, name) for name in REBUILT + DIRTY}
        assert after == before
        assert {name: type(value) for name, value in after.items()} == types


#: The fields LinkCacheEntry._rebuild() computes from the task list, and
#: the lazily rebuilt ones it clears.
REBUILT = ("plist", "clist", "dlist", "util", "fdensity", "cap_sum",
           "hyper", "min_p", "implicit")
DIRTY = ("busy", "horizon", "points", "demands", "next_pt", "feasible")


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
