"""Tests for the resident admission service (churn + checkpoint/resume)."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.admission import AdmissionController, SystemState
from repro.core.channel import ChannelSpec
from repro.core.partitioning import SymmetricDPS
from repro.errors import ConfigurationError
from repro.service import (
    AdmissionService,
    ChurnConfig,
    ChurnProcess,
    resume,
)
from repro.service.churn import ChurnRequest
from repro.service.service import SERVICE_CHECKPOINT_VERSION
from repro.sim.rng import RngRegistry

NODES = tuple(f"m{i}" for i in range(6))


def build_service(
    seed: int = 42, checkpoint_every_ns: int | None = 5_000_000
) -> AdmissionService:
    controller = AdmissionController(SystemState(NODES), SymmetricDPS())
    churn = ChurnProcess(RngRegistry(seed), ChurnConfig(nodes=NODES))
    return AdmissionService(
        controller, churn, checkpoint_every_ns=checkpoint_every_ns
    )


class TestServiceRun:
    def test_churn_drives_decisions(self):
        service = build_service()
        service.start()
        service.run_until(30_000_000)
        counters = service.counters
        assert counters["arrivals"] > 10
        assert counters["arrivals"] == (
            counters["accepts"] + counters["rejects"]
        )
        assert counters["departures"] <= counters["accepts"]
        # live channels = accepts - departures, mirrored by the state.
        assert service.active_channels == (
            counters["accepts"] - counters["departures"]
        )
        assert counters["checkpoints"] == 6  # every 5 ms over 30 ms

    def test_ledger_is_json_serializable(self):
        service = build_service()
        service.start()
        service.run_until(10_000_000)
        json.dumps(service.ledger)  # must not raise

    def test_departures_release_capacity(self):
        service = build_service()
        service.start()
        service.run_until(60_000_000)
        assert service.counters["departures"] > 0
        # every departed channel is gone from the admission state
        live = set(service.controller.state.channels)
        departed = {
            entry[2] for entry in service.ledger if entry[0] == "depart"
        }
        assert live.isdisjoint(departed - live)

    def test_start_twice_raises(self):
        service = build_service()
        service.start()
        with pytest.raises(ConfigurationError):
            service.start()

    def test_run_before_start_raises(self):
        with pytest.raises(ConfigurationError):
            build_service().run_until(1_000_000)

    def test_bad_checkpoint_period_raises(self):
        with pytest.raises(ConfigurationError):
            build_service(checkpoint_every_ns=0)


class TestCheckpointResume:
    @pytest.mark.parametrize("kill_at", [7_000_000, 23_000_000, 41_500_000])
    def test_kill_and_resume_is_byte_identical(self, kill_at):
        horizon = 60_000_000
        reference = build_service()
        reference.start()
        reference.run_until(horizon)

        victim = build_service()
        victim.start()
        victim.run_until(kill_at)
        checkpoint = victim.last_checkpoint
        assert checkpoint is not None
        # simulate a process boundary: the payload crosses as JSON
        data = json.loads(json.dumps(checkpoint.data))
        resumed = resume(
            data, SymmetricDPS(), RngRegistry(42), ChurnConfig(nodes=NODES)
        )
        resumed.run_until(horizon)

        # prefix up to (and including) the checkpoint's own ledger
        # entry, then the resumed run's suffix, must equal the
        # uninterrupted stream byte for byte.
        prefix = victim.ledger[: checkpoint.data["ledger_len"] + 1]
        assert list(reference.ledger) == list(prefix) + list(resumed.ledger)
        assert reference.final_state_json() == resumed.final_state_json()
        assert reference.counters == resumed.counters

    def test_checkpoint_survives_later_mutation(self):
        # Regression: the checkpoint payload must be deep-frozen -- a
        # snapshot sharing nested lists with live state rots as soon as
        # the service keeps running past it. Every checkpoint is dumped
        # when it is taken and must read the same after the run.
        service = build_service()
        service.start()
        frozen = []
        for until in range(5_000_000, 30_000_001, 5_000_000):
            service.run_until(until)
            checkpoint = service.last_checkpoint
            assert checkpoint.taken_at_ns == until
            frozen.append(json.dumps(checkpoint.data, sort_keys=True))
        assert len(service.checkpoints) == len(frozen) == 6
        for checkpoint, dump in zip(service.checkpoints, frozen):
            assert json.dumps(checkpoint.data, sort_keys=True) == dump
            assert checkpoint.data == json.loads(dump)

    def test_resume_rejects_unknown_version(self):
        service = build_service()
        service.start()
        service.run_until(6_000_000)
        data = json.loads(json.dumps(service.last_checkpoint.data))
        data["version"] = SERVICE_CHECKPOINT_VERSION + 1
        with pytest.raises(ConfigurationError):
            resume(
                data,
                SymmetricDPS(),
                RngRegistry(42),
                ChurnConfig(nodes=NODES),
            )

    def test_digest_tracks_admission_state(self):
        service = build_service()
        service.start()
        service.run_until(30_000_000)
        digests = [c.digest for c in service.checkpoints]
        assert len(digests) == 6
        # churn keeps admitting/releasing, so states (and digests) move
        assert len(set(digests)) > 1
        # the digest is the sorted-key JSON of the payload's snapshot
        for checkpoint in service.checkpoints:
            blob = json.dumps(checkpoint.data["admission"], sort_keys=True)
            assert checkpoint.digest == (
                hashlib.sha256(blob.encode()).hexdigest()[:16]
            )


class _LockstepChurn:
    """A churn whose channels hold for exactly one interarrival gap.

    Arrivals land every 1 ms and each admitted channel departs 1 ms
    later, so every departure shares its instant with the next arrival.
    Every request asks m0 -> m1 for 6 of every 10 slots: the two links
    have room for one such channel at a time.
    """

    GAP_NS = 1_000_000

    def __init__(self, registry=None, config=None) -> None:
        self.draws = 0

    def next_interarrival_ns(self) -> int:
        return self.GAP_NS

    def holding_ns(self) -> int:
        return self.GAP_NS

    def draw_request(self) -> ChurnRequest:
        self.draws += 1
        return ChurnRequest(
            "m0", "m1", ChannelSpec(period=10, capacity=6, deadline=20)
        )

    def export_state(self) -> dict:
        return {"draws": self.draws}

    def import_state(self, data: dict) -> None:
        self.draws = data["draws"]


def build_lockstep_service(checkpoint_every_ns=None) -> AdmissionService:
    return AdmissionService(
        AdmissionController(SystemState(NODES), SymmetricDPS()),
        _LockstepChurn(),
        checkpoint_every_ns=checkpoint_every_ns,
    )


class TestSharedInstant:
    """Events that share an instant fire in the order the service relies
    on: a departure before the arrival it makes room for."""

    def test_departure_makes_room_for_the_same_instants_arrival(self):
        service = build_lockstep_service()
        service.start()
        service.run_until(5_000_000)
        # Two of these channels never fit together on m0's uplink.
        probe = AdmissionController(SystemState(NODES), SymmetricDPS())
        spec = ChannelSpec(period=10, capacity=6, deadline=20)
        assert probe.request("m0", "m1", spec).accepted
        assert not probe.request("m0", "m1", spec).accepted
        assert service.ledger[:3] == [
            ("arrive", 1_000_000, "m0", "m1", 10, 6, 20, 1, 1),
            ("depart", 2_000_000, 1),
            ("arrive", 2_000_000, "m0", "m1", 10, 6, 20, 1, 2),
        ]
        assert service.counters["arrivals"] == 5
        assert service.counters["rejects"] == 0

    def test_resume_from_a_checkpoint_sharing_the_instant(
        self, monkeypatch
    ):
        horizon = 9_000_000
        reference = build_lockstep_service(checkpoint_every_ns=2_000_000)
        reference.start()
        reference.run_until(horizon)

        victim = build_lockstep_service(checkpoint_every_ns=2_000_000)
        victim.start()
        victim.run_until(3_500_000)
        checkpoint = victim.last_checkpoint
        assert checkpoint.taken_at_ns == 2_000_000
        # The checkpoint's instant also holds a departure and an arrival.
        instants = [entry[:2] for entry in reference.ledger]
        assert ("depart", 2_000_000) in instants
        assert ("arrive", 2_000_000) in instants

        monkeypatch.setattr(
            "repro.service.service.ChurnProcess", _LockstepChurn
        )
        resumed = resume(
            json.loads(json.dumps(checkpoint.data)),
            SymmetricDPS(),
            RngRegistry(42),
            ChurnConfig(nodes=NODES),
        )
        resumed.run_until(horizon)
        prefix = victim.ledger[: checkpoint.data["ledger_len"] + 1]
        assert list(reference.ledger) == list(prefix) + list(resumed.ledger)
        assert reference.final_state_json() == resumed.final_state_json()
        assert reference.counters == resumed.counters
