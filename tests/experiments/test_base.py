"""Tests for the acceptance-curve machinery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.admission import AdmissionController, SystemState
from repro.core.channel import ChannelSpec
from repro.core.partitioning import AsymmetricDPS, SymmetricDPS
from repro.errors import ConfigurationError
from repro.experiments.base import (
    _ANALYTIC_TICK_NS,
    TraceLane,
    acceptance_curve,
    run_requests,
)
from repro.obs import Telemetry, TelemetryConfig
from repro.traffic.patterns import ChannelRequest

SPEC = ChannelSpec(period=100, capacity=3, deadline=40)
NODES = ["m", "s0", "s1", "s2"]


def reqs(n, dest_cycle=("s0", "s1", "s2")):
    return [
        ChannelRequest("m", dest_cycle[i % len(dest_cycle)], SPEC)
        for i in range(n)
    ]


class TestRunRequests:
    def test_final_count_only(self):
        counts = run_requests(NODES, reqs(10), SymmetricDPS())
        assert counts == [6]  # SDPS uplink cap

    def test_checkpoints_are_running_counts(self):
        counts = run_requests(
            NODES, reqs(10), SymmetricDPS(), checkpoints=[2, 5, 10]
        )
        assert counts == [2, 5, 6]

    def test_checkpoint_zero(self):
        counts = run_requests(
            NODES, reqs(3), SymmetricDPS(), checkpoints=[0, 3]
        )
        assert counts == [0, 3]

    def test_duplicate_checkpoints_deduplicated(self):
        counts = run_requests(
            NODES, reqs(4), SymmetricDPS(), checkpoints=[2, 2, 4]
        )
        assert counts == [2, 4]

    def test_checkpoint_beyond_requests_rejected(self):
        with pytest.raises(ConfigurationError):
            run_requests(NODES, reqs(3), SymmetricDPS(), checkpoints=[4])

    def test_empty_requests(self):
        assert run_requests(NODES, [], SymmetricDPS(), checkpoints=[0]) == [0]


class TestTraceLane:
    def decisions(self, lane):
        telemetry = Telemetry(TelemetryConfig(probe_cadence_ns=None))
        run_requests(
            NODES, reqs(3), SymmetricDPS(), telemetry=telemetry, lane=lane
        )
        return telemetry.recorder.by_category("admission.decision")

    def test_lane_offsets_timestamps_and_tags_fields(self):
        lane = TraceLane(trial=2, scheme="sdps", offset_ns=7_000_000)
        records = self.decisions(lane)
        assert [r.time for r in records] == [
            lane.offset_ns + offered * _ANALYTIC_TICK_NS
            for offered in (1, 2, 3)
        ]
        for record in records:
            assert record.fields["trial"] == 2
            assert record.fields["scheme"] == "sdps"

    def test_without_lane_classic_timestamps(self):
        records = self.decisions(lane=None)
        assert [r.time for r in records] == [
            offered * _ANALYTIC_TICK_NS for offered in (1, 2, 3)
        ]
        for record in records:
            assert "trial" not in record.fields

    def test_distinct_lanes_never_collide(self):
        a = self.decisions(TraceLane(trial=0, scheme="sdps", offset_ns=0))
        b = self.decisions(
            TraceLane(
                trial=0, scheme="adps", offset_ns=4 * _ANALYTIC_TICK_NS
            )
        )
        assert not {r.time for r in a} & {r.time for r in b}


class TestAcceptanceCurve:
    def factory(self, count, rng):
        destinations = ["s0", "s1", "s2"]
        return [
            ChannelRequest(
                "m", destinations[int(rng.integers(0, 3))], SPEC
            )
            for _ in range(count)
        ]

    def test_shape_and_pairing(self):
        curve = acceptance_curve(
            node_names=NODES,
            request_factory=self.factory,
            schemes={"sdps": SymmetricDPS, "adps": AsymmetricDPS},
            requested_counts=[5, 10, 15],
            trials=4,
            seed=11,
        )
        assert curve.requested == (5, 10, 15)
        assert {c.scheme for c in curve.curves} == {"sdps", "adps"}
        sdps = curve.curve("sdps")
        assert len(sdps.means) == 3
        # monotone in requested count (more offers never fewer accepts)
        assert sdps.means[0] <= sdps.means[1] <= sdps.means[2]

    def test_reproducible(self):
        kwargs = dict(
            node_names=NODES,
            request_factory=self.factory,
            schemes={"sdps": SymmetricDPS},
            requested_counts=[10],
            trials=3,
            seed=5,
        )
        assert (
            acceptance_curve(**kwargs).curve("sdps").means
            == acceptance_curve(**kwargs).curve("sdps").means
        )

    def test_seed_changes_results_structurally_ok(self):
        a = acceptance_curve(
            node_names=NODES,
            request_factory=self.factory,
            schemes={"sdps": SymmetricDPS},
            requested_counts=[10],
            trials=3,
            seed=5,
        )
        b = acceptance_curve(
            node_names=NODES,
            request_factory=self.factory,
            schemes={"sdps": SymmetricDPS},
            requested_counts=[10],
            trials=3,
            seed=6,
        )
        # different seeds may coincide numerically, but objects are valid
        assert a.trials == b.trials == 3

    def test_unknown_scheme_lookup_raises(self):
        curve = acceptance_curve(
            node_names=NODES,
            request_factory=self.factory,
            schemes={"sdps": SymmetricDPS},
            requested_counts=[5],
            trials=2,
            seed=1,
        )
        with pytest.raises(ConfigurationError):
            curve.curve("nope")

    def test_bad_factory_length_detected(self):
        with pytest.raises(ConfigurationError, match="request factory"):
            acceptance_curve(
                node_names=NODES,
                request_factory=lambda count, rng: reqs(count - 1),
                schemes={"sdps": SymmetricDPS},
                requested_counts=[5],
                trials=1,
                seed=1,
            )

    def test_invalid_trials(self):
        with pytest.raises(ConfigurationError):
            acceptance_curve(
                node_names=NODES,
                request_factory=self.factory,
                schemes={"sdps": SymmetricDPS},
                requested_counts=[5],
                trials=0,
                seed=1,
            )

    def test_to_table_renders(self):
        curve = acceptance_curve(
            node_names=NODES,
            request_factory=self.factory,
            schemes={"sdps": SymmetricDPS},
            requested_counts=[5, 10],
            trials=2,
            seed=1,
        )
        text = curve.to_table("title")
        assert "title" in text and "sdps" in text


class TestBatchEngine:
    """run_requests' admit_many bursts against a scalar request() loop.

    The counts, each request's verdict and running accept count (its
    ``admission.decision`` trace record) and the feasibility-cache
    counters must equal those of the loop written here: the batch
    engine's stream equality plus bursts aligned with the checkpoints.
    """

    @staticmethod
    def scalar_loop(requests, checkpoints):
        controller = AdmissionController(
            SystemState(nodes=NODES), AsymmetricDPS()
        )
        counts, verdicts, accepted = [], [], 0
        for offered, request in enumerate(requests, start=1):
            decision = controller.request(
                request.source, request.destination, request.spec
            )
            accepted += decision.accepted
            verdict = "accept" if decision.accepted else decision.reason.value
            verdicts.append((verdict, accepted))
            if offered in checkpoints:
                counts.append(accepted)
        return counts, verdicts, controller.cache.stats.as_dict()

    @staticmethod
    def observe(requests, checkpoints):
        telemetry = Telemetry(TelemetryConfig(
            spans=True, probe_cadence_ns=None,
        ))
        counts = run_requests(
            NODES, requests, AsymmetricDPS(),
            checkpoints=checkpoints,
            telemetry=telemetry,
            lane=TraceLane(trial=0, scheme="adps"),
        )
        verdicts = [
            (record.fields["verdict"], record.fields["accepted_so_far"])
            for record in telemetry.recorder
            if record.category == "admission.decision"
        ]
        cache = {
            name.removeprefix("feasibility_cache."): family["series"][0][
                "value"
            ]
            for name, family in telemetry.registry.snapshot().items()
            if name.startswith("feasibility_cache.")
        }
        return counts, verdicts, cache

    def test_batch_matches_scalar_with_checkpoints(self):
        requests = reqs(12)
        observed = self.observe(requests, [3, 7, 12])
        assert observed == self.scalar_loop(requests, {3, 7, 12})
        assert observed[0] == [3, 7, 10]

    def test_batch_matches_scalar_without_checkpoints(self):
        requests = reqs(12)
        assert self.observe(requests, None) == self.scalar_loop(
            requests, {12}
        )

    def test_batch_path_actually_calls_admit_many(self, monkeypatch):
        calls = []
        original = AdmissionController.admit_many

        def spy(self, requests):
            calls.append(1)
            return original(self, requests)

        monkeypatch.setattr(AdmissionController, "admit_many", spy)
        run_requests(NODES, reqs(8), SymmetricDPS(), checkpoints=[4, 8])
        assert len(calls) == 2  # one burst per inter-checkpoint segment

    def test_sweep_root_span_summarizes_run(self):
        telemetry = Telemetry(TelemetryConfig(
            spans=True, probe_cadence_ns=None,
        ))
        run_requests(
            NODES, reqs(10), SymmetricDPS(), checkpoints=[5, 10],
            telemetry=telemetry, lane=TraceLane(trial=2, scheme="sdps"),
        )
        roots = [s for s in telemetry.spans if s.name == "sweep.run"]
        assert len(roots) == 1
        root = roots[0]
        assert root.subject == "trial2:sdps"
        assert root.fields["offered"] == 10
        assert root.fields["trial"] == 2
        segments = [s for s in telemetry.spans if s.name == "admission"]
        assert len(segments) == 2  # one per checkpoint segment
        assert all(s.parent_id == root.span_id for s in segments)
        assert sum(s.fields["offered"] for s in segments) == 10
        assert segments[-1].fields["accepted_so_far"] == root.fields[
            "accepted"
        ]
