"""Telemetry bundle end-to-end: emitted files and non-perturbation.

The two contracts that make telemetry safe to recommend:

* a fully instrumented validation run writes a bundle that passes the
  schema check (``repro obs check`` relies on ``validate_bundle``);
* attaching telemetry changes *nothing* about the simulation outcome --
  the ValidationReport (including the final simulated clock) is
  field-for-field identical with and without the bundle.
"""

import json
from types import SimpleNamespace

from repro.core.admission import AdmissionController, RejectionReason, SystemState
from repro.core.channel import ChannelSpec
from repro.core.feasibility_cache import CacheStats
from repro.core.partitioning import SymmetricDPS
from repro.experiments.validation import run_validation
from repro.network.topology import build_star
from repro.obs import Telemetry, TelemetryConfig, validate_bundle
from repro.obs.schema import METRICS_SCHEMA, validate
from repro.protocol.signaling import RetryPolicy

_SMALL = dict(n_masters=2, n_slaves=6, n_requests=12, hyperperiods=1)


class TestBundleWrite:
    def test_instrumented_run_emits_valid_bundle(self, tmp_path):
        telemetry = Telemetry(
            TelemetryConfig(profile=True, probe_cadence_ns=500_000)
        )
        report = run_validation(telemetry=telemetry, **_SMALL)
        assert report.holds
        written = telemetry.write(tmp_path)
        assert set(written) == {
            "metrics", "timeseries", "trace_jsonl", "trace_chrome"
        }
        assert validate_bundle(tmp_path) == []

        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert validate(metrics, METRICS_SCHEMA) == []
        # the Eq. 18.1 observable made it into the histogram
        delay = metrics["rt.frame_delay_ns"]["series"][0]
        assert delay["count"] == report.frames_delivered
        # kernel gauges harvested by the attach_simulator collector
        assert metrics["kernel.now_ns"]["series"][0]["value"] > 0
        # profiler rows published
        assert metrics["kernel.dispatch_rate_per_s"]["series"][0]["value"] > 0
        # cache stats summed in from the admission controller
        assert any(k.startswith("feasibility_cache.") for k in metrics)

        series = json.loads((tmp_path / "timeseries.json").read_text())
        assert "link_utilization_mean" in series
        assert all(len(sample) == 2 for sample in series["link_utilization_mean"])

        lines = (tmp_path / "trace.jsonl").read_text().splitlines()
        assert lines, "instrumented run must record trace events"
        categories = {json.loads(line)["category"] for line in lines}
        assert "signal.request" in categories
        assert "link.start" in categories
        assert "rt.emit" in categories  # RT-layer segmentation traced

    def test_tracing_disabled_omits_trace_files(self, tmp_path):
        telemetry = Telemetry(
            TelemetryConfig(tracing=False, probe_cadence_ns=None)
        )
        run_validation(telemetry=telemetry, **_SMALL)
        written = telemetry.write(tmp_path)
        assert set(written) == {"metrics"}
        assert validate_bundle(tmp_path) == []


class _FakeController:
    """Minimal stand-in for an AdmissionController: its plain counts and
    a cache that carries stats."""

    def __init__(self, accepts=0, **cache_counts):
        self.accept_count = accepts
        self.reject_count = 0
        self.rejections_by_reason = {}
        self.batch_count = 0
        self.batch_template_hits = 0
        self.cache = SimpleNamespace(stats=CacheStats(**cache_counts))


def _value(snap, name, **labels):
    (series,) = [
        s for s in snap[name]["series"] if s["labels"] == labels
    ]
    return series["value"]


class TestCacheStatsPublish:
    def test_counters_mirrored_as_gauges(self):
        telemetry = Telemetry(TelemetryConfig(tracing=False))
        controller = _FakeController()
        telemetry.track_admission(controller)
        stats = controller.cache.stats
        stats.checks = 7
        stats.memo_hits = 3
        snap = telemetry.snapshot()
        assert snap["feasibility_cache.checks"]["series"][0]["value"] == 7
        assert snap["feasibility_cache.memo_hits"]["series"][0]["value"] == 3
        stats.checks = 9  # collector re-reads on every snapshot
        snap = telemetry.snapshot()
        assert snap["feasibility_cache.checks"]["series"][0]["value"] == 9

    def test_admission_families_read_the_controllers_counts(self):
        telemetry = Telemetry(TelemetryConfig(tracing=False))
        controller = AdmissionController(
            SystemState(nodes=["m0", "s0", "s1"]), SymmetricDPS()
        )
        telemetry.track_admission(controller)
        spec = ChannelSpec(period=100, capacity=3, deadline=40)
        controller.admit_many(
            [("m0", "s0", spec)] * 30 + [("m0", "nobody", spec)]
        )
        controller.request("m0", "s1", spec)
        snap = telemetry.snapshot()
        assert _value(snap, "admission.decisions", verdict="accept") == (
            controller.accept_count
        )
        assert _value(snap, "admission.decisions", verdict="reject") == (
            controller.reject_count
        ) > 0
        for reason in RejectionReason:  # every reason, zero or not
            assert _value(
                snap, "admission.rejections", reason=reason.value
            ) == controller.rejections_by_reason.get(reason, 0)
        assert _value(snap, "admission.batches") == 1
        assert _value(snap, "admission.batch_template_hits") == (
            controller.batch_template_hits
        ) > 0
        assert {
            name: (snap[name]["type"], snap[name]["help"])
            for name in snap if name.startswith("admission.")
        } == {
            "admission.decisions": ("counter", "admission verdicts"),
            "admission.rejections": ("counter", "rejections by reason"),
            "admission.batches": ("counter", "admit_many bursts processed"),
            "admission.batch_template_hits": (
                "counter",
                "burst-local repeat decisions served without re-assessment",
            ),
        }


class TestCacheRetirement:
    def test_retire_folds_totals_and_releases_reference(self):
        telemetry = Telemetry(TelemetryConfig(tracing=False))
        live = _FakeController(accepts=4, checks=5, memo_hits=2)
        telemetry.track_admission(live)
        before = telemetry.snapshot()
        telemetry.retire_admission(live)
        assert telemetry._admissions == []
        # the published values are unchanged by retirement
        after = telemetry.snapshot()
        assert (
            after["feasibility_cache.checks"]["series"][0]["value"]
            == before["feasibility_cache.checks"]["series"][0]["value"]
            == 5
        )
        assert after["feasibility_cache.memo_hits"]["series"][0]["value"] == 2
        assert _value(after, "admission.decisions", verdict="accept") == 4

    def test_retired_totals_sum_with_live_caches(self):
        telemetry = Telemetry(TelemetryConfig(tracing=False))
        done = _FakeController(accepts=1, checks=3)
        telemetry.track_admission(done)
        telemetry.retire_admission(done)
        telemetry.track_admission(_FakeController(accepts=2, checks=4))
        snap = telemetry.snapshot()
        assert snap["feasibility_cache.checks"]["series"][0]["value"] == 7
        assert _value(snap, "admission.decisions", verdict="accept") == 3

    def test_retire_is_idempotent_and_tolerates_unknown(self):
        telemetry = Telemetry(TelemetryConfig(tracing=False))
        controller = _FakeController(accepts=1, checks=1)
        telemetry.track_admission(controller)
        telemetry.retire_admission(controller)
        telemetry.retire_admission(controller)  # second retire: no double count
        telemetry.retire_admission(_FakeController(checks=99))  # never tracked
        snap = telemetry.snapshot()
        assert snap["feasibility_cache.checks"]["series"][0]["value"] == 1
        assert _value(snap, "admission.decisions", verdict="accept") == 1

    def test_sweep_holds_constant_cache_state(self):
        """A telemetry-attached sweep retires every controller: bundle
        state stays O(1) however many (trial, scheme) runs ran."""
        from repro.experiments.base import acceptance_curve
        from repro.traffic.patterns import (
            master_slave_names,
            master_slave_requests,
        )
        from repro.traffic.spec import FixedSpecSampler

        masters, slaves = master_slave_names(2, 6)
        sampler = FixedSpecSampler.paper_default()
        telemetry = Telemetry(
            TelemetryConfig(tracing=False, probe_cadence_ns=None)
        )
        acceptance_curve(
            node_names=masters + slaves,
            request_factory=lambda count, rng: master_slave_requests(
                masters, slaves, count, sampler, rng
            ),
            schemes={"sdps": SymmetricDPS},
            requested_counts=[5, 10],
            trials=8,
            seed=3,
            telemetry=telemetry,
        )
        assert len(telemetry._admissions) == 0
        snap = telemetry.snapshot()
        assert snap["feasibility_cache.checks"]["series"][0]["value"] > 0
        assert sum(
            s["value"] for s in snap["admission.decisions"]["series"]
        ) == 8 * 10


def _late_handshakes(telemetry):
    """A star request that times out before its positive response, and
    a retransmitted one whose second final response is a duplicate."""
    net = build_star(["m0", "s0", "s1"], telemetry=telemetry)
    spec = ChannelSpec(period=100, capacity=3, deadline=40)
    once = RetryPolicy(timeout_ns=20_000)
    assert net.establish("m0", "s0", spec, retry=once) is None
    retry = RetryPolicy(timeout_ns=20_000, max_retries=3)
    assert net.establish("m0", "s1", spec, retry=retry) is not None
    return net


class TestSignalCounters:
    def test_collectors_read_the_models_counts(self):
        telemetry = Telemetry(TelemetryConfig(probe_cadence_ns=None))
        net = _late_handshakes(telemetry)
        manager = net.switch.manager
        snap = telemetry.snapshot()
        assert _value(snap, "signal.stale_frames", site="switch") == (
            manager.stale_frames
        )
        assert _value(snap, "signal.stale_frames", site="node") == 1
        assert _value(snap, "signal.lease_reclaims") == manager.lease_reclaims
        assert _value(snap, "signal.duplicate_requests") == (
            manager.duplicate_requests
        ) > 0
        assert {
            s["labels"]["node"]: s["value"]
            for s in snap["signal.retries"]["series"]
        } == {name: node.signal_retries for name, node in net.nodes.items()}
        assert net.node("m0").signal_retries > 0

    def test_two_networks_in_one_bundle_add_up(self):
        telemetry = Telemetry(TelemetryConfig(probe_cadence_ns=None))
        first = _late_handshakes(telemetry)
        telemetry.snapshot()  # published between the two runs
        second = _late_handshakes(telemetry)
        snap = telemetry.snapshot()
        assert _value(snap, "signal.retries", node="m0") == (
            first.node("m0").signal_retries
            + second.node("m0").signal_retries
        )
        assert _value(snap, "admission.decisions", verdict="accept") == 4


class TestFabricAdmissionCollector:
    def _fabric(self, telemetry):
        from repro.multiswitch import (
            MultiHopProportional,
            build_chain_graph,
            build_fabric_network,
        )

        net = build_fabric_network(
            build_chain_graph(3, 2), MultiHopProportional(),
            telemetry=telemetry,
        )
        spec = ChannelSpec(period=100, capacity=3, deadline=40)
        assert net.establish("n0_0", "n2_1", spec) is not None
        assert net.establish("n2_0", "n0_1", spec) is not None
        return net

    def test_publishes_the_fabric_admission_counts(self):
        telemetry = Telemetry(TelemetryConfig(probe_cadence_ns=None))
        net = self._fabric(telemetry)
        # an over-long request is rejected by the partition
        assert net.establish(
            "n0_0", "n2_0", ChannelSpec(period=100, capacity=30, deadline=40)
        ) is None
        admission = net.admission
        assert (admission.accept_count, admission.reject_count) == (2, 1)
        stats = admission.cache.stats
        assert (stats.checks, stats.installs) == (8, 8)
        telemetry.snapshot()
        snap = telemetry.snapshot()  # a second snapshot adds nothing
        assert _value(snap, "admission.decisions", verdict="accept") == 2
        assert _value(snap, "admission.decisions", verdict="reject") == 1
        assert snap["admission.decisions"]["type"] == "counter"
        for key, value in stats.as_dict().items():
            assert _value(snap, "feasibility_cache." + key) == value
        assert _value(snap, "feasibility_cache.checks") == 8
        assert _value(snap, "feasibility_cache.installs") == 8
        # what the fabric engine does not keep is not published, and
        # fabric leaves have no signalling path
        assert not any(
            name.startswith("signal.") for name in snap
        )
        for name in (
            "admission.rejections", "admission.batches",
            "admission.batch_template_hits",
        ):
            assert name not in snap
        assert validate(snap, METRICS_SCHEMA) == []

    def test_a_star_and_a_fabric_in_one_bundle_add_up(self):
        telemetry = Telemetry(TelemetryConfig(probe_cadence_ns=None))
        star = _late_handshakes(telemetry)
        net = self._fabric(telemetry)
        snap = telemetry.snapshot()
        controller = star.admission
        assert _value(snap, "admission.decisions", verdict="accept") == (
            controller.accept_count + net.admission.accept_count
        )
        assert _value(snap, "feasibility_cache.installs") == (
            controller.cache.stats.installs
            + net.admission.cache.stats.installs
        )
        assert _value(snap, "admission.batches") == controller.batch_count


_PORT_FIELDS = (
    "rt_enqueued", "rt_transmitted", "be_enqueued", "be_transmitted",
    "be_dropped", "rt_link_deadline_misses", "rt_backlog_max",
    "be_backlog_max",
)
_LINK_FIELDS = ("frames_carried", "bytes_carried", "busy_ns", "frames_lost")


class TestFabricPortsAndProbes:
    def test_fabric_ports_links_and_probes_reach_the_bundle(self, tmp_path):
        from repro.multiswitch import (
            MultiHopProportional,
            build_chain_graph,
            build_fabric_network,
        )

        telemetry = Telemetry(TelemetryConfig())
        net = build_fabric_network(
            build_chain_graph(3, 2), MultiHopProportional(),
            telemetry=telemetry,
        )
        spec = ChannelSpec(period=100, capacity=3, deadline=40)
        assert net.establish("n0_0", "n2_1", spec) is not None
        assert net.establish("n2_0", "n0_1", spec) is not None
        net.start_all_sources(stop_after_messages=3)
        net.sim.run()
        snap = telemetry.snapshot()

        # six one-cable leaves and two trunks: sixteen directed ports
        ports = [node.uplink for node in net.nodes.values()] + [
            port
            for switch in net.switches.values()
            for port in switch.ports.values()
        ]
        assert len(ports) == 16
        assert len(snap["port.rt_transmitted"]["series"]) == 16
        assert len(snap["link.frames_carried"]["series"]) == 16
        for port in ports:
            for field in _PORT_FIELDS:
                assert _value(snap, "port." + field, port=port.name) == (
                    getattr(port.stats, field)
                ), (port.name, field)
            assert _value(
                snap, "port.rt_queue_max_depth", port=port.name
            ) == port.rt_queue_max_depth
            link = port.link
            for field in _LINK_FIELDS:
                assert _value(snap, "link." + field, link=link.name) == (
                    getattr(link, field)
                ), (link.name, field)
            assert _value(snap, "link.utilization", link=link.name) == (
                link.utilization()
            )
        # frames crossed the trunks, and the per-link misses the fabric
        # sums are the ones the bundle carries
        assert _value(snap, "port.rt_transmitted", port="port:sw0->sw1") > 0
        assert sum(
            _value(snap, "port.rt_link_deadline_misses", port=port.name)
            for port in ports
        ) == net.per_link_misses()

        written = telemetry.write(tmp_path)
        assert "timeseries" in written
        series = json.loads((tmp_path / "timeseries.json").read_text())
        assert sorted(series) == [
            "kernel_pending_events", "link_utilization_mean",
            "switch_be_buffer_frames", "switch_rt_buffer_frames",
            "uplink_rt_backlog_frames",
        ]
        assert series["link_utilization_mean"]
        assert validate_bundle(tmp_path) == []


class TestSoakCollector:
    def test_publishes_the_soak_result(self):
        telemetry = Telemetry(TelemetryConfig(probe_cadence_ns=None))
        result = SimpleNamespace(
            fabric_counters={"commits": 14, "aborts": 167},
            double_bookings=0,
            leaked_reservations=2,
        )
        telemetry.track_soak(result)
        telemetry.snapshot()
        snap = telemetry.snapshot()  # a second snapshot adds nothing
        assert _value(snap, "intent.events", event="commits") == 14
        assert _value(snap, "intent.events", event="aborts") == 167
        assert snap["intent.events"]["type"] == "counter"
        assert _value(snap, "intent.double_bookings") == 0
        assert _value(snap, "intent.leaked_reservations") == 2
        assert validate(snap, METRICS_SCHEMA) == []


class TestNonPerturbation:
    def test_report_identical_with_and_without_telemetry(self):
        bare = run_validation(**_SMALL)
        instrumented = run_validation(
            telemetry=Telemetry(TelemetryConfig(profile=True)), **_SMALL
        )
        assert instrumented == bare  # frozen dataclass: field-for-field
        assert instrumented.simulated_ns == bare.simulated_ns

    def test_bundle_runs_are_reproducible(self, tmp_path):
        def capture(out):
            telemetry = Telemetry(TelemetryConfig(probe_cadence_ns=250_000))
            run_validation(telemetry=telemetry, **_SMALL)
            return telemetry.write(out)

        first = capture(tmp_path / "a")
        second = capture(tmp_path / "b")
        for name in first:
            assert (
                first[name].read_bytes() == second[name].read_bytes()
            ), f"{name} differs between identical runs"
