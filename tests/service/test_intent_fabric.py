"""Soak-level tests for the shared-link fabric and its intent lock."""

from __future__ import annotations

import json

import pytest

from repro.faults.plan import FaultPlan
from repro.obs.monitor import InvariantMonitor
from repro.service.intent import SharedLinkFabric

HORIZON = 60_000_000
CHECKPOINT_NS = 10_000_000


def build_fabric(
    seed: int = 7, loss: float = 0.0, checkpoint_every_ns: int | None = None
) -> SharedLinkFabric:
    plan = FaultPlan.control_loss(loss, seed=seed) if loss else None
    return SharedLinkFabric(
        n_switches=2,
        nodes_per_switch=4,
        seed=seed,
        fault_plan=plan,
        checkpoint_every_ns=checkpoint_every_ns,
    )


def assert_clean(fabric: SharedLinkFabric) -> None:
    """No double-bookings, converged views, no leaked reservations."""
    monitor = InvariantMonitor()
    anomalies = monitor.check_shared_links(
        fabric, fabric.now, require_converged=True
    )
    assert anomalies == 0, monitor.anomalies
    assert fabric.leaked_reservations() == []


class TestLosslessFabric:
    def test_soak_commits_and_converges(self):
        fabric = build_fabric()
        fabric.start()
        fabric.run_until(HORIZON)
        assert fabric.counters["arrivals"] > 20
        assert fabric.counters["commits"] > 0
        assert fabric.counters["departures"] > 0
        fabric.quiesce()
        assert_clean(fabric)

    def test_contending_switches_never_double_book(self):
        # both switches race intents onto the single trunk the whole
        # run; the union of their committed views must stay feasible
        # at every checkpoint-like instant, not just at the end
        fabric = build_fabric(seed=3)
        fabric.start()
        monitor = InvariantMonitor()
        for step in range(1, 13):
            fabric.run_until(step * 5_000_000)
            assert (
                monitor.check_shared_links(fabric, fabric.now) == 0
            ), monitor.anomalies

    def test_departures_free_the_trunk(self):
        fabric = build_fabric()
        fabric.start()
        fabric.run_until(HORIZON)
        fabric.quiesce()
        # after quiescence (no new arrivals, all holds drained) every
        # remaining committed entry belongs to a still-active channel
        for link_id in range(fabric.n_switches - 1):
            for view in fabric.trunk_views(link_id):
                for channel_id in view:
                    assert channel_id in fabric._active


class TestLossyFabric:
    def test_soak_at_twenty_percent_loss(self):
        fabric = build_fabric(loss=0.2)
        fabric.start()
        fabric.run_until(HORIZON)
        assert fabric.counters["retransmissions"] > 0
        assert fabric.plan is not None and fabric.plan.total_drops > 0
        fabric.quiesce()
        assert_clean(fabric)

    def test_loss_changes_timing_but_not_safety(self):
        for seed in (1, 2, 3):
            fabric = build_fabric(seed=seed, loss=0.3)
            fabric.start()
            fabric.run_until(30_000_000)
            fabric.quiesce()
            assert_clean(fabric)


class TestFabricCheckpointResume:
    @pytest.mark.parametrize("kill_at", [15_000_000, 35_000_000])
    def test_kill_and_resume_is_byte_identical(self, kill_at):
        loss = 0.2
        reference = build_fabric(
            loss=loss, checkpoint_every_ns=CHECKPOINT_NS
        )
        reference.start()
        reference.run_until(HORIZON)

        victim = build_fabric(loss=loss, checkpoint_every_ns=CHECKPOINT_NS)
        victim.start()
        victim.run_until(kill_at)
        checkpoint = json.loads(json.dumps(victim.checkpoints[-1]))
        resumed = SharedLinkFabric.resume(
            checkpoint,
            fault_plan=FaultPlan.control_loss(loss, seed=7),
            checkpoint_every_ns=CHECKPOINT_NS,
        )
        resumed.run_until(HORIZON)

        prefix = [list(e) for e in victim.ledger[: checkpoint["ledger_len"]]]
        suffix = [list(e) for e in resumed.ledger]
        assert [list(e) for e in reference.ledger] == prefix + suffix
        ref_states = [c.export_state() for c in reference.coordinators]
        res_states = [c.export_state() for c in resumed.coordinators]
        assert json.loads(json.dumps(ref_states)) == json.loads(
            json.dumps(res_states)
        )
        assert reference.counters == resumed.counters

    def test_resumed_fabric_still_satisfies_invariants(self):
        victim = build_fabric(loss=0.2, checkpoint_every_ns=CHECKPOINT_NS)
        victim.start()
        victim.run_until(25_000_000)
        checkpoint = json.loads(json.dumps(victim.checkpoints[-1]))
        resumed = SharedLinkFabric.resume(
            checkpoint,
            fault_plan=FaultPlan.control_loss(0.2, seed=7),
            checkpoint_every_ns=CHECKPOINT_NS,
        )
        resumed.run_until(HORIZON)
        resumed.quiesce()
        assert_clean(resumed)

    def test_checkpoint_survives_later_mutation(self):
        # Regression: a checkpoint whose nested lists stay shared with
        # live state (pending acks, outstanding retransmit sets) rots
        # when the fabric runs past it -- the resume then diverges.
        # Every checkpoint is plain JSON data (its own round trip) and
        # its ``applied`` rows are the sorted dedup set of that instant
        # (a checkpoint is the last event of its instant).
        fabric = build_fabric(loss=0.2, checkpoint_every_ns=CHECKPOINT_NS)
        fabric.start()
        fabric.run_until(2 * CHECKPOINT_NS)
        checkpoint = fabric.checkpoints[-1]
        assert checkpoint["now_ns"] == fabric.now
        assert checkpoint == json.loads(json.dumps(checkpoint))
        applied = [
            sorted(list(pair) for pair in c.applied)
            for c in fabric.coordinators
        ]
        assert [c["applied"] for c in checkpoint["coordinators"]] == applied
        assert any(applied)
        frozen = json.dumps(checkpoint, sort_keys=True)
        fabric.run_until(HORIZON)
        assert json.dumps(checkpoint, sort_keys=True) == frozen
        for later in fabric.checkpoints:
            assert later == json.loads(json.dumps(later))

    def test_resume_leaves_its_checkpoint_untouched(self):
        victim = build_fabric(loss=0.2, checkpoint_every_ns=CHECKPOINT_NS)
        victim.start()
        victim.run_until(25_000_000)
        checkpoint = victim.checkpoints[-1]
        frozen = json.dumps(checkpoint, sort_keys=True)
        resumed = SharedLinkFabric.resume(
            checkpoint,
            fault_plan=FaultPlan.control_loss(0.2, seed=7),
            checkpoint_every_ns=CHECKPOINT_NS,
        )
        resumed.run_until(HORIZON)
        assert json.dumps(checkpoint, sort_keys=True) == frozen


class TestMonitorDetection:
    def test_conflicting_records_are_reported(self):
        fabric = build_fabric()
        fabric.start()
        fabric.run_until(20_000_000)
        # forge a conflict: switch 1 believes channel 9999 has a
        # different owner/spec than switch 0 does
        fabric.coordinators[0].committed[0][9999] = [1, 100, 3, 40, 77]
        fabric.coordinators[1].committed[0][9999] = [2, 100, 4, 40, 78]
        monitor = InvariantMonitor()
        assert monitor.check_shared_links(fabric, fabric.now) >= 1
        kinds = {a["invariant"] for a in monitor.anomalies}
        assert kinds == {"shared-link-double-book"}

    def test_divergence_only_flagged_when_required(self):
        fabric = build_fabric()
        fabric.start()
        fabric.run_until(20_000_000)
        fabric.coordinators[0].committed[0][9999] = [1, 100, 3, 40, 77]
        relaxed = InvariantMonitor()
        assert relaxed.check_shared_links(fabric, fabric.now) == 0
        strict = InvariantMonitor()
        assert strict.check_shared_links(
            fabric, fabric.now, require_converged=True
        ) == 1
        assert strict.anomalies[0]["invariant"] == "shared-link-divergence"
        assert strict.anomalies[0]["severity"] == "warning"
