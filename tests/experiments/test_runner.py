"""Tests for the deterministic parallel sweep runner.

The contract under test: a sweep's result -- acceptance curve, merged
metrics snapshot, trace-record sequence -- is *identical* at any worker
count, because every (trial, scheme) work unit is a pure function of
``(seed, trial)`` and results fold back in work-unit order.
"""

from __future__ import annotations

import os

import pytest

from repro.core.channel import ChannelSpec
from repro.core.partitioning import AsymmetricDPS, SymmetricDPS
from repro.errors import ConfigurationError
from repro.experiments import runner
from repro.experiments.base import acceptance_curve
from repro.experiments.dps_comparison import run_dps_comparison
from repro.experiments.fig18_5 import Fig185Config, run_fig18_5
from repro.experiments.multiswitch_exp import run_multiswitch_comparison
from repro.experiments.runner import parallel_map, resolve_workers
from repro.experiments.validation import run_validation_sweep
from repro.obs import Telemetry, TelemetryConfig
from repro.traffic.patterns import ChannelRequest

SPEC = ChannelSpec(period=100, capacity=3, deadline=40)
NODES = ["m0", "m1", "s0", "s1", "s2", "s3"]


def factory(count, rng):
    masters = ["m0", "m1"]
    slaves = ["s0", "s1", "s2", "s3"]
    return [
        ChannelRequest(
            masters[int(rng.integers(0, 2))],
            slaves[int(rng.integers(0, 4))],
            SPEC,
        )
        for _ in range(count)
    ]


def small_curve(workers, telemetry=None):
    return acceptance_curve(
        node_names=NODES,
        request_factory=factory,
        schemes={"sdps": SymmetricDPS, "adps": AsymmetricDPS},
        requested_counts=[4, 8, 12],
        trials=3,
        seed=42,
        telemetry=telemetry,
        workers=workers,
    )


class TestResolveWorkers:
    def test_positive_passthrough(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(5) == 5

    def test_zero_means_all_cpus(self):
        assert resolve_workers(0) >= 1

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_workers(-1)


class TestParallelMap:
    def test_order_preserved(self):
        assert parallel_map(lambda x: x * x, range(7), workers=3) == [
            0, 1, 4, 9, 16, 25, 36
        ]

    def test_serial_path_runs_in_process(self):
        pids = parallel_map(lambda _: os.getpid(), [1, 2], workers=1)
        assert pids == [os.getpid()] * 2

    def test_parallel_path_forks(self):
        if "fork" not in __import__("multiprocessing").get_all_start_methods():
            pytest.skip("platform cannot fork")
        pids = parallel_map(lambda _: os.getpid(), [1, 2], workers=2)
        assert all(pid != os.getpid() for pid in pids)

    def test_nested_map_degrades_to_serial(self, monkeypatch):
        # simulate "already inside a pool worker": the runner must not
        # fork from a fork, it runs the inner sweep in-process instead
        monkeypatch.setattr(runner, "_ACTIVE_JOB", (lambda x: x, []))
        pids = parallel_map(lambda _: os.getpid(), [1, 2], workers=2)
        assert pids == [os.getpid()] * 2

    def test_work_unit_exception_propagates(self):
        def boom(item):
            raise ValueError(f"unit {item}")

        with pytest.raises(ValueError):
            parallel_map(boom, [1, 2], workers=2)

    def test_empty_items(self):
        assert parallel_map(lambda x: x, [], workers=4) == []


class TestWorkerInvariance:
    def test_acceptance_curve_identical(self):
        assert small_curve(workers=1) == small_curve(workers=4)

    def test_merged_telemetry_identical(self):
        config = TelemetryConfig(probe_cadence_ns=None)
        serial = Telemetry(config)
        parallel = Telemetry(config)
        assert small_curve(1, telemetry=serial) == small_curve(
            4, telemetry=parallel
        )
        assert serial.snapshot() == parallel.snapshot()
        assert list(serial.recorder) == list(parallel.recorder)
        assert serial.recorder.dropped == parallel.recorder.dropped

    def test_merged_spans_identical(self):
        from repro.obs import span_jsonl_lines

        config = TelemetryConfig(spans=True, probe_cadence_ns=None)
        serial = Telemetry(config)
        parallel = Telemetry(config)
        assert small_curve(1, telemetry=serial) == small_curve(
            4, telemetry=parallel
        )
        # span IDs, parent links and fields all re-base to the serial
        # stream: the merged file is byte-identical
        assert "\n".join(span_jsonl_lines(parallel.spans)) == "\n".join(
            span_jsonl_lines(serial.spans)
        )
        assert len(serial.spans) > 0
        # 3 trials x 2 schemes = 6 sweep roots, causality intact
        roots = [s for s in serial.spans if s.name == "sweep.run"]
        assert len(roots) == 6
        for span in serial.spans:
            if span.parent_id >= 0:
                assert span.trace_id in {r.trace_id for r in roots}

    def test_exported_csv_identical(self, tmp_path):
        from repro.analysis.export import series_to_csv

        def csv_of(workers):
            curve = small_curve(workers)
            return series_to_csv(
                "requested",
                list(curve.requested),
                {c.scheme: c.means for c in curve.curves},
            )

        assert csv_of(1) == csv_of(3)

    def test_fig18_5_identical(self):
        small = dict(
            n_masters=3, n_slaves=9, trials=3,
            requested_counts=(5, 10, 15),
        )
        serial = run_fig18_5(Fig185Config(workers=1, **small))
        fanned = run_fig18_5(Fig185Config(workers=3, **small))
        assert serial.curve == fanned.curve

    def test_dps_comparison_identical(self):
        small = dict(
            n_masters=3, n_slaves=9, trials=2,
            requested_counts=(5, 10),
        )
        assert run_dps_comparison(workers=1, **small) == run_dps_comparison(
            workers=2, **small
        )

    def test_multiswitch_identical(self):
        small = dict(
            n_switches=2, n_masters=3, n_slaves=6, trials=2,
            requested_counts=(4, 8),
        )
        assert run_multiswitch_comparison(
            workers=1, **small
        ) == run_multiswitch_comparison(workers=2, **small)

    def test_validation_sweep_identical_and_seeded(self):
        small = dict(
            n_masters=2, n_slaves=4, n_requests=6, hyperperiods=1,
            use_wire_handshake=False,
        )
        serial = run_validation_sweep(2, workers=1, **small)
        fanned = run_validation_sweep(2, workers=2, **small)
        assert serial == fanned
        assert all(report.holds for report in serial)

    def test_validation_sweep_rejects_telemetry(self):
        with pytest.raises(ConfigurationError):
            run_validation_sweep(2, telemetry=Telemetry())

    def test_validation_sweep_trial0_matches_single_run(self):
        from repro.experiments.validation import run_validation

        small = dict(
            n_masters=2, n_slaves=4, n_requests=6, hyperperiods=1,
            use_wire_handshake=False,
        )
        sweep = run_validation_sweep(1, workers=1, seed=55, **small)
        assert sweep == [run_validation(seed=55, **small)]


class TestTraceLanes:
    def test_decision_timestamps_distinct_across_runs(self):
        telemetry = Telemetry(TelemetryConfig(probe_cadence_ns=None))
        small_curve(1, telemetry=telemetry)
        decisions = telemetry.recorder.by_category("admission.decision")
        assert decisions, "sweep must trace admission decisions"
        timestamps = [r.time for r in decisions]
        assert len(set(timestamps)) == len(timestamps), (
            "every (trial, scheme, offered) event needs its own timestamp"
        )

    def test_decision_fields_carry_trial_and_scheme(self):
        telemetry = Telemetry(TelemetryConfig(probe_cadence_ns=None))
        small_curve(1, telemetry=telemetry)
        decisions = telemetry.recorder.by_category("admission.decision")
        lanes = {(r.fields["trial"], r.fields["scheme"]) for r in decisions}
        assert lanes == {
            (trial, scheme)
            for trial in range(3)
            for scheme in ("sdps", "adps")
        }


class TestCacheRetention:
    def test_sweep_retains_no_dead_caches(self):
        telemetry = Telemetry(TelemetryConfig(probe_cadence_ns=None))
        small_curve(1, telemetry=telemetry)
        # 3 trials x 2 schemes ran; every controller was retired
        assert telemetry._admissions == []
        snap = telemetry.snapshot()
        checks = snap["feasibility_cache.checks"]["series"][0]["value"]
        assert checks > 0, "retired totals must still publish"
