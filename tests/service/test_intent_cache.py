"""The intent path's cached admission against the from-scratch EDF test.

:class:`~repro.service.intent.IntentCoordinator` (trunks) and
:class:`~repro.service.intent.SharedLinkFabric` (access links) decide
through :class:`~repro.core.feasibility_cache.FeasibilityCache`. The
caches are derived state: the checkpointed views (``committed`` and
``_access``) stay authoritative, and :func:`is_feasible` over a task
list rebuilt from them is the reference every verdict must equal.
"""

from __future__ import annotations

import json

import pytest

from repro.core.feasibility import is_feasible
from repro.core.feasibility_cache import FeasibilityCache
from repro.core.task import LinkDirection, LinkTask
from repro.faults.plan import FaultPlan
from repro.protocol.frames import IntentFrame, IntentKind
from repro.service.intent import IntentCoordinator, SharedLinkFabric

MAC_A = 0x0200_0000_0000
MAC_B = 0x0200_0000_0001
CHECKPOINT_NS = 10_000_000


def build_fabric(seed: int, loss: float) -> SharedLinkFabric:
    plan = FaultPlan.control_loss(loss, seed=seed) if loss else None
    return SharedLinkFabric(
        n_switches=2,
        nodes_per_switch=4,
        seed=seed,
        fault_plan=plan,
        checkpoint_every_ns=CHECKPOINT_NS,
    )


def reference(link, view: dict[int, list[int]], candidate: LinkTask) -> bool:
    """``is_feasible`` of a view's task list plus the candidate.

    ``view`` maps channel ID to ``[P, C, d]``.
    """
    tasks = [
        LinkTask(link=link, period=p, capacity=c, deadline=d, channel_id=cid)
        for cid, (p, c, d) in sorted(view.items())
    ]
    return is_feasible(tasks + [candidate]).feasible


class VerdictAudit:
    """Wraps every cache ``check`` of a fabric with the reference test."""

    def __init__(self, fabric: SharedLinkFabric) -> None:
        self.verdicts = {"access": [], "trunk": []}
        self._wrap(fabric._access_cache, "access", self._access_view(fabric))
        for coordinator in fabric.coordinators:
            self._wrap(
                coordinator._trunks, "trunk", self._trunk_view(coordinator)
            )

    @staticmethod
    def _access_view(fabric):
        def view_of(link):
            side = "up" if link.direction is LinkDirection.UPLINK else "down"
            return fabric._access.get(f"{link.node}|{side}", {})

        return view_of

    @staticmethod
    def _trunk_view(coordinator):
        link_ids = {ref: link_id for link_id, ref in coordinator._refs.items()}

        def view_of(link):
            committed = coordinator.committed[link_ids[link]]
            return {cid: entry[1:4] for cid, entry in committed.items()}

        return view_of

    def _wrap(self, cache: FeasibilityCache, kind: str, view_of) -> None:
        check = cache.check

        def audited(candidate: LinkTask):
            report = check(candidate)
            expected = reference(
                candidate.link, view_of(candidate.link), candidate
            )
            assert report.feasible == expected, (kind, candidate)
            self.verdicts[kind].append(report.feasible)
            return report

        cache.check = audited  # instance attribute shadows the method


def cache_rows(cache: FeasibilityCache) -> dict:
    """A cache's installed tasks per link, order-free."""
    return {
        link: sorted((t.channel_id, t.pcd) for t in entry.tasks)
        for link, entry in cache._entries.items()
        if entry.tasks
    }


def fresh_access_cache(fabric: SharedLinkFabric) -> FeasibilityCache:
    cache = FeasibilityCache()
    for key, view in fabric._access.items():
        for cid, (p, c, d) in view.items():
            cache.install(LinkTask(
                link=fabric._access_ref(key), period=p, capacity=c,
                deadline=d, channel_id=cid,
            ))
    return cache


def fresh_trunk_cache(coordinator: IntentCoordinator) -> FeasibilityCache:
    cache = FeasibilityCache()
    for link_id, view in coordinator.committed.items():
        for cid, entry in view.items():
            cache.install(LinkTask(
                link=coordinator._refs[link_id], period=entry[1],
                capacity=entry[2], deadline=entry[3], channel_id=cid,
            ))
    return cache


class TestVerdictEquality:
    @pytest.mark.parametrize("loss", [0.0, 0.1, 0.2, 0.3])
    @pytest.mark.parametrize("seed", [7, 2004, 11])
    def test_every_decision_matches_the_reference(self, seed, loss):
        fabric = build_fabric(seed, loss)
        audit = VerdictAudit(fabric)
        fabric.start()
        fabric.run_until(80_000_000)
        fabric.quiesce()
        access, trunk = audit.verdicts["access"], audit.verdicts["trunk"]
        assert len(access) > 20 and len(trunk) > 0
        assert True in trunk

    def test_the_campaign_sees_both_verdicts(self):
        seen = {"access": set(), "trunk": set()}
        for seed in (7, 2004, 11):
            fabric = build_fabric(seed, 0.3)
            audit = VerdictAudit(fabric)
            fabric.start()
            fabric.run_until(200_000_000)
            for kind in seen:
                seen[kind].update(audit.verdicts[kind])
        assert seen == {"access": {True, False}, "trunk": {True, False}}

    def test_resumed_fabric_matches_the_reference(self):
        victim = build_fabric(7, 0.2)
        victim.start()
        victim.run_until(35_000_000)
        resumed = SharedLinkFabric.resume(
            json.loads(json.dumps(victim.checkpoints[-1])),
            fault_plan=FaultPlan.control_loss(0.2, seed=7),
            checkpoint_every_ns=CHECKPOINT_NS,
        )
        audit = VerdictAudit(resumed)
        resumed.run_until(80_000_000)
        assert audit.verdicts["access"] and audit.verdicts["trunk"]


def commit(mac: int, seq: int, channel_id: int, spec) -> IntentFrame:
    period, capacity, deadline = spec
    return IntentFrame(
        kind=IntentKind.COMMIT, intent_seq=seq, switch_mac=mac, ack_mac=0,
        link_id=0, channel_id=channel_id, priority=0, period=period,
        capacity=capacity, deadline=deadline,
    )


def release(mac: int, seq: int, channel_id: int) -> IntentFrame:
    return IntentFrame(
        kind=IntentKind.RELEASE, intent_seq=seq, switch_mac=mac, ack_mac=0,
        link_id=0, channel_id=channel_id, priority=0, period=1,
        capacity=1, deadline=1,
    )


def trunk_candidate(coordinator: IntentCoordinator, spec) -> bool:
    coordinator.begin_intent(999, 0, 4242, 0, spec, peers=(MAC_B,))
    verdict = coordinator.trunk_feasible(999)
    del coordinator.pending[999]
    return verdict


class TestCoordinatorCache:
    def test_commit_over_a_live_id_replaces_the_stale_task(self):
        # B missed A's release of channel 7, then A reused the ID for
        # a much lighter channel: the stale heavy task must leave the
        # cache, or it keeps blocking the trunk.
        b = IntentCoordinator(MAC_B, (0,))
        b.apply_commit(commit(MAC_A, 1, 7, (100, 60, 100)))
        b.apply_commit(commit(MAC_A, 5, 7, (100, 10, 100)))
        assert b.committed[0][7] == [MAC_A, 100, 10, 100, 5]
        assert cache_rows(b._trunks) == cache_rows(fresh_trunk_cache(b))
        spec = (100, 50, 100)
        view = {cid: e[1:4] for cid, e in b.committed[0].items()}
        candidate = LinkTask(b._refs[0], *spec, channel_id=4242)
        assert trunk_candidate(b, spec) is True
        assert reference(b._refs[0], view, candidate) is True

    def test_release_of_an_unknown_id_changes_nothing(self):
        b = IntentCoordinator(MAC_B, (0,))
        b.apply_commit(commit(MAC_A, 1, 7, (100, 3, 40)))
        before = cache_rows(b._trunks)
        assert b.apply_release(release(MAC_A, 2, 8)) is False
        assert (MAC_A, 2) in b.applied  # deduplicated all the same
        assert b.version[0] == 1
        assert cache_rows(b._trunks) == before

    def test_import_state_rebuilds_the_trunk_cache(self):
        a = IntentCoordinator(MAC_A, (0,))
        for seq, cid in enumerate((3, 5, 9, 12), start=1):
            a.apply_commit(commit(MAC_B, seq, cid, (100, 20, 60)))
        a.apply_release(release(MAC_B, 10, 5))
        copy = IntentCoordinator(MAC_A, (0,))
        copy.import_state(json.loads(json.dumps(a.export_state())))
        assert cache_rows(copy._trunks) == cache_rows(fresh_trunk_cache(a))
        assert cache_rows(copy._trunks) == cache_rows(a._trunks)
        for spec in ((100, 20, 60), (100, 30, 60), (50, 10, 20)):
            assert trunk_candidate(copy, spec) == trunk_candidate(a, spec)

    def test_resume_rebuilds_every_cache(self):
        victim = build_fabric(2004, 0.2)
        victim.start()
        victim.run_until(45_000_000)
        resumed = SharedLinkFabric.resume(
            json.loads(json.dumps(victim.checkpoints[-1])),
            fault_plan=FaultPlan.control_loss(0.2, seed=2004),
            checkpoint_every_ns=CHECKPOINT_NS,
        )
        assert resumed._access
        assert cache_rows(resumed._access_cache) == cache_rows(
            fresh_access_cache(resumed)
        )
        for coordinator in resumed.coordinators:
            assert cache_rows(coordinator._trunks) == cache_rows(
                fresh_trunk_cache(coordinator)
            )
        # and the victim's live caches agree with its own views
        assert cache_rows(victim._access_cache) == cache_rows(
            fresh_access_cache(victim)
        )
