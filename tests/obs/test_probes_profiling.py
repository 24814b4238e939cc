"""ProbeSet weak-event sampling and KernelProfiler accounting."""

import pytest

from repro.errors import ConfigurationError
from repro.obs.probes import ProbeSet
from repro.obs.profiling import KernelProfiler, _label_key
from repro.obs.registry import MetricsRegistry
from repro.sim.kernel import Simulator


class TestProbeSet:
    def test_samples_on_cadence_until_last_strong_event(self):
        sim = Simulator()
        depth = {"value": 0}
        for t in (100, 5_000, 10_000):
            sim.call_at(t, lambda: depth.__setitem__("value", depth["value"] + 1))
        probes = ProbeSet(sim, MetricsRegistry(), cadence_ns=1_000)
        probes.add("depth", lambda: depth["value"])
        probes.start()
        sim.run()
        # strong events end at t=10_000; ticks at 1k..9k fire (the tick
        # at 10k is ordered after the last strong event and never runs)
        series = probes.series["depth"]
        assert [t for t, _ in series] == list(range(1_000, 10_000, 1_000))
        assert sim.now == 10_000

    def test_weak_ticks_do_not_extend_final_clock(self):
        bare = Simulator()
        bare.call_at(7_777, lambda: None)
        bare.run()

        probed = Simulator()
        probed.call_at(7_777, lambda: None)
        probes = ProbeSet(probed, MetricsRegistry(), cadence_ns=500)
        probes.add("noop", lambda: 0)
        probes.start()
        probed.run()
        assert probed.now == bare.now == 7_777

    def test_latest_sample_mirrored_into_gauge(self):
        sim = Simulator()
        sim.call_at(3_000, lambda: None)
        reg = MetricsRegistry()
        probes = ProbeSet(sim, reg, cadence_ns=1_000)
        counter = iter([10, 20, 30])
        probes.add("util", lambda: next(counter))
        probes.start()
        sim.run()
        assert reg.value_of("probe.util") == 20  # last fired tick (t=2000)
        assert probes.to_dict() == {"util": [[1_000, 10], [2_000, 20]]}

    def test_rejects_bad_cadence_and_duplicate_names(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            ProbeSet(sim, MetricsRegistry(), cadence_ns=0)
        probes = ProbeSet(sim, MetricsRegistry(), cadence_ns=1)
        probes.add("x", lambda: 0)
        with pytest.raises(ConfigurationError):
            probes.add("x", lambda: 0)


class TestLabelKey:
    def test_collapses_instance_prefixes(self):
        assert _label_key("m0->switch:deliver") == "deliver"
        assert _label_key("m3:ch7:period") == "period"
        assert _label_key("plain") == "plain"
        assert _label_key("") == "(unlabelled)"


class TestKernelProfiler:
    def test_accounting_and_rows_hottest_first(self):
        prof = KernelProfiler()
        prof.account("m0->switch:deliver", 100)
        prof.account("m1->switch:deliver", 300)
        prof.account("switch:process", 50)
        assert prof.total_events == 3
        assert prof.total_wall_ns == 450
        rows = prof.rows()
        assert rows[0] == ("deliver", 2, 400, 300)
        assert rows[1] == ("process", 1, 50, 50)
        assert prof.dispatch_rate == pytest.approx(3 / (450 / 1e9))

    def test_attached_profiler_observes_simulator_dispatch(self):
        sim = Simulator()
        prof = KernelProfiler()
        sim.profiler = prof
        sim.call_at(10, lambda: None, "a:tick")
        sim.call_at(20, lambda: None, "b:tick")
        sim.run()
        assert prof.total_events == 2
        (row,) = prof.rows()
        assert row[0] == "tick" and row[1] == 2

    def test_publish_mirrors_rows_into_registry(self):
        reg = MetricsRegistry()
        prof = KernelProfiler()
        prof.account("x:work", 1_000)
        prof.publish(reg)
        snap = reg.snapshot()
        assert snap["kernel.profile.events"]["series"][0]["labels"] == {
            "label": "work"
        }
        assert reg.value_of("kernel.profile.wall_ns", "work") == 1_000
        assert reg.value_of("kernel.dispatch_rate_per_s") > 0

    def test_summary_lists_hot_labels(self):
        prof = KernelProfiler()
        prof.account("x:work", 1_000)
        text = prof.summary()
        assert "kernel profile: 1 events" in text
        assert "work" in text
