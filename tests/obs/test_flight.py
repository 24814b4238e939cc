"""Flight-recorder snapshots, dump numbering, and crash capture."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    FLIGHT_SCHEMA,
    FlightRecorder,
    Telemetry,
    TelemetryConfig,
    validate,
)
from repro.sim.kernel import Simulator


def test_empty_recorder_snapshot_conforms():
    recorder = FlightRecorder()
    payload = recorder.snapshot("manual")
    assert validate(payload, FLIGHT_SCHEMA) == []
    assert payload == {
        "reason": "manual", "time_ns": -1,
        "events": [], "anomalies": [], "metrics": {},
    }


def test_providers_are_read_at_dump_time():
    spans: list[dict] = []
    recorder = FlightRecorder(
        span_provider=lambda: spans,
        metrics_provider=lambda: {"m": 1},
        anomaly_provider=lambda: [{"time": 0}],
    )
    spans.append({"span": 0})  # appended AFTER construction
    payload = recorder.snapshot("late", time_ns=42)
    assert payload["events"] == [{"span": 0}]
    assert payload["metrics"] == {"m": 1}
    assert payload["anomalies"] == [{"time": 0}]
    assert payload["time_ns"] == 42


def test_capacity_keeps_most_recent_spans():
    spans = [{"span": i} for i in range(10)]
    recorder = FlightRecorder(capacity=3, span_provider=lambda: spans)
    payload = recorder.snapshot("tail")
    assert payload["events"] == [{"span": 7}, {"span": 8}, {"span": 9}]


def test_repeated_dumps_get_numbered_suffixes(tmp_path):
    recorder = FlightRecorder()
    first = recorder.dump(tmp_path, "one")
    second = recorder.dump(tmp_path, "two")
    third = recorder.dump(tmp_path, "three")
    assert [p.name for p in (first, second, third)] == [
        "flight.json", "flight.1.json", "flight.2.json",
    ]
    assert recorder.dumps == [first, second, third]
    # the first capture is never overwritten
    assert json.loads(first.read_text())["reason"] == "one"
    assert json.loads(third.read_text())["reason"] == "three"


def test_kernel_crash_auto_dumps(tmp_path):
    """An exception escaping an event handler black-boxes the run."""
    telemetry = Telemetry(TelemetryConfig(
        spans=True, monitor=True, flight_dir=str(tmp_path),
    ))
    sim = Simulator()
    telemetry.attach_simulator(sim)
    telemetry.spans.begin_trace("signal.request", "m0", 0)

    def explode() -> None:
        raise RuntimeError("injected fault")

    sim.call_at(100, explode)
    with pytest.raises(RuntimeError, match="injected fault"):
        sim.run()
    dump = json.loads((tmp_path / "flight.json").read_text())
    assert validate(dump, FLIGHT_SCHEMA) == []
    assert dump["reason"] == "crash:RuntimeError"
    assert dump["time_ns"] == 100
    assert dump["events"][0]["name"] == "signal.request"


def test_no_flight_dir_means_no_auto_dump(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    telemetry = Telemetry(TelemetryConfig(spans=True, monitor=True))
    sim = Simulator()
    telemetry.attach_simulator(sim)

    def explode() -> None:
        raise RuntimeError("boom")

    sim.call_at(1, explode)
    with pytest.raises(RuntimeError):
        sim.run()
    assert list(tmp_path.iterdir()) == []  # nothing written anywhere


def test_flight_absent_without_spans_or_monitor():
    assert Telemetry(TelemetryConfig()).flight is None
    assert Telemetry(TelemetryConfig(spans=True)).flight is not None
    assert Telemetry(TelemetryConfig(monitor=True)).flight is not None
