"""Tests for EXP-X4 (service soak) and its CLI command."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.experiments.service_soak import run_service_soak
from repro.obs import validate_bundle


@pytest.fixture(scope="module")
def soak_result():
    # one shared short soak: the full EXP-X4 pipeline (reference run,
    # kill-and-resume, quiesce, invariant gates, single-switch service)
    return run_service_soak(
        duration_ns=40_000_000,
        seed=7,
        loss=0.2,
        kill_at_ns=18_000_000,
        checkpoint_every_ns=8_000_000,
    )


class TestRunServiceSoak:
    def test_soak_passes(self, soak_result):
        assert soak_result.ok, soak_result.summary()
        assert soak_result.fabric_ledger_identical
        assert soak_result.fabric_state_identical
        assert soak_result.views_converged
        assert soak_result.double_bookings == 0
        assert soak_result.leaked_reservations == 0
        assert soak_result.service_ledger_identical
        assert soak_result.service_state_identical

    def test_fabric_saw_loss(self, soak_result):
        assert soak_result.fabric_counters["retransmissions"] > 0

    def test_report_shapes(self, soak_result):
        summary = soak_result.summary()
        assert "PASS" in summary
        data = soak_result.to_json_dict()
        json.dumps(data)
        assert data["experiment"] == "EXP-X4"
        assert data["ok"] is True

    def test_kill_point_validation(self):
        with pytest.raises(ValueError):
            run_service_soak(duration_ns=1_000, kill_at_ns=2_000)
        with pytest.raises(ValueError):
            run_service_soak(
                duration_ns=10_000_000,
                kill_at_ns=1_000_000,
                checkpoint_every_ns=5_000_000,
            )


class TestServiceSoakCli:
    def test_cli_writes_reports(self, tmp_path):
        out = tmp_path / "telemetry"
        code = main(
            [
                "service-soak",
                "--duration-ns", "30000000",
                "--seed", "7",
                "--kill-at", "14000000",
                "--checkpoint-every-ns", "6000000",
                "--json", str(tmp_path / "soak.json"),
                "--telemetry-out", str(out),
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "soak.json").read_text())
        assert report["ok"] is True
        assert (out / "service_soak.json").exists()
        assert (out / "anomalies.jsonl").exists()
        assert validate_bundle(out) == []
