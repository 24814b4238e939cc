"""Tests for the robustness experiments and the CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.errors import ConfigurationError
from repro.experiments.robustness import (
    run_loss_robustness,
    run_phase_robustness,
    run_signal_loss_robustness,
)


class TestPhaseRobustness:
    def test_random_phases_never_worse_than_critical_instant(self):
        report = run_phase_robustness(
            n_masters=3, n_slaves=6, n_requests=20, messages=4
        )
        assert report.holds
        assert report.critical_instant_is_worst
        assert report.channels_admitted > 0

    def test_invalid_messages(self):
        with pytest.raises(ConfigurationError):
            run_phase_robustness(messages=0)


class TestLossRobustness:
    def test_timeliness_preserved_completeness_degraded(self):
        report = run_loss_robustness(
            loss_rate=0.05, n_masters=3, n_slaves=6, n_requests=20,
            messages=8,
        )
        assert report.timeliness_preserved
        assert report.frames_delivered < report.frames_sent
        assert report.messages_completed < report.messages_expected
        assert report.frames_lost_on_wires > 0
        # delivery roughly tracks (1 - p): generous band for 1 seed
        assert 0.80 <= report.delivery_ratio <= 0.99

    def test_zero_loss_is_lossless(self):
        report = run_loss_robustness(
            loss_rate=0.0, n_masters=2, n_slaves=4, n_requests=10,
            messages=4,
        )
        assert report.delivery_ratio == 1.0
        assert report.messages_completed == report.messages_expected
        assert report.frames_lost_on_wires == 0

    def test_invalid_loss_rate(self):
        with pytest.raises(ConfigurationError):
            run_loss_robustness(loss_rate=1.0)

    def test_exp_r1b_draws_are_pinned(self):
        # the CLI's `robustness loss --loss-rate 0.05` run: its exact
        # frame and message counts pin every corruption draw
        report = run_loss_robustness(loss_rate=0.05, seed=808)
        assert (
            report.frames_sent,
            report.frames_delivered,
            report.frames_lost_on_wires,
            report.messages_completed,
            report.messages_expected,
            report.deadline_misses,
        ) == (1110, 999, 111, 264, 370, 0)


class TestSignalLossRobustness:
    def test_liveness_and_zero_leaks_at_20_percent(self):
        report = run_signal_loss_robustness(n_requests=16)
        assert report.ok
        assert report.timed_out == 0
        assert report.resolved == report.requests == 16
        assert report.leaked_reservations == 0
        assert report.pending_offers == 0
        # the run must actually have been stressed and have recovered
        assert report.signalling_drops > 0
        assert report.retries > 0
        assert report.torn_down > 0
        assert "OK" in report.summary()

    def test_deterministic(self):
        a = run_signal_loss_robustness(n_requests=12)
        b = run_signal_loss_robustness(n_requests=12)
        assert a == b

    def test_zero_loss_needs_no_recovery(self):
        report = run_signal_loss_robustness(loss_rate=0.0, n_requests=10)
        assert report.ok
        assert report.signalling_drops == 0
        assert report.retries == 0
        assert report.lease_reclaims == 0
        # the only duplicates are the teardown repeats themselves
        # (4 copies sent, 3 absorbed per torn-down channel)
        assert report.stale_absorbed == 3 * report.torn_down

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            run_signal_loss_robustness(loss_rate=1.0)
        with pytest.raises(ConfigurationError):
            run_signal_loss_robustness(teardown_fraction=1.5)


class TestCliParser:
    def test_all_commands_present(self):
        parser = build_parser()
        for command in (
            ["fig18-5"],
            ["validate"],
            ["coexist"],
            ["perf"],
            ["ablation", "deadline"],
            ["dps"],
            ["multiswitch"],
            ["robustness", "phase"],
        ):
            args = parser.parse_args(command)
            assert args.command == command[0]

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nope"])


class TestCliExecution:
    def test_fig18_5_with_exports(self, tmp_path, capsys):
        csv_path = tmp_path / "fig.csv"
        json_path = tmp_path / "fig.json"
        status = main([
            "fig18-5", "--trials", "2", "--seed", "1",
            "--csv", str(csv_path), "--json", str(json_path),
        ])
        assert status == 0
        out = capsys.readouterr().out
        assert "Figure 18.5" in out
        assert csv_path.read_text().startswith("requested,sdps,adps")
        document = json.loads(json_path.read_text())
        assert document["metadata"]["trials"] == 2
        assert len(document["series"]["adps"]) == 10

    def test_validate_returns_zero_when_guarantee_holds(self, capsys):
        status = main([
            "validate", "--masters", "2", "--slaves", "4",
            "--requests", "10", "--hyperperiods", "1",
        ])
        assert status == 0
        assert "HOLDS" in capsys.readouterr().out

    def test_validate_sdps_scheme(self, capsys):
        status = main([
            "validate", "--masters", "2", "--slaves", "4",
            "--requests", "10", "--hyperperiods", "1",
            "--scheme", "sdps",
        ])
        assert status == 0

    def test_coexist(self, capsys):
        status = main([
            "coexist", "--masters", "2", "--slaves", "4",
            "--requests", "8", "--messages", "3",
        ])
        assert status == 0
        assert "unharmed" in capsys.readouterr().out

    def test_perf(self, capsys):
        status = main(["perf", "--sizes", "4", "8"])
        assert status == 0
        assert "control points" in capsys.readouterr().out

    def test_ablation_axes(self, capsys, tmp_path):
        for axis in ("deadline", "capacity", "masters"):
            status = main([
                "ablation", axis, "--trials", "1",
                "--csv", str(tmp_path / f"{axis}.csv"),
            ])
            assert status == 0
            assert (tmp_path / f"{axis}.csv").exists()

    def test_ablation_symmetric(self, capsys):
        status = main(["ablation", "symmetric", "--trials", "1"])
        assert status == 0
        assert "all-to-all" in capsys.readouterr().out

    def test_dps(self, capsys):
        status = main(["dps", "--trials", "1"])
        assert status == 0
        assert "search" in capsys.readouterr().out

    def test_multiswitch(self, capsys):
        status = main(["multiswitch", "--trials", "1", "--switches", "2"])
        assert status == 0
        assert "2-switch" in capsys.readouterr().out

    def test_robustness_phase(self, capsys):
        status = main(["robustness", "phase"])
        assert status == 0
        assert "phase robustness" in capsys.readouterr().out

    def test_robustness_loss(self, capsys):
        status = main(["robustness", "loss", "--loss-rate", "0.02"])
        assert status == 0
        assert "loss robustness" in capsys.readouterr().out

    def test_robustness_signal_mode(self, capsys):
        status = main([
            "robustness", "signal", "--requests", "12",
        ])
        assert status == 0
        out = capsys.readouterr().out
        assert "EXP-R2" in out
        assert "[OK]" in out

    def test_robustness_signal_loss_flag_implies_mode(self, capsys):
        status = main([
            "robustness", "--signal-loss", "0.2", "--requests", "12",
        ])
        assert status == 0
        assert "0 leaked reservations" in capsys.readouterr().out

    def test_robustness_signal_telemetry_bundle(self, tmp_path, capsys):
        from repro.obs import validate_bundle

        out_dir = tmp_path / "exp_r2"
        status = main([
            "robustness", "signal", "--requests", "12",
            "--telemetry-out", str(out_dir),
        ])
        assert status == 0
        assert validate_bundle(out_dir) == []
        metrics = json.loads((out_dir / "metrics.json").read_text())
        assert "signal.retries" in metrics
        assert "signal.stale_frames" in metrics

    def test_robustness_without_mode_is_usage_error(self, capsys):
        assert main(["robustness"]) == 2

    def test_audit_command(self, capsys):
        status = main([
            "audit", "--masters", "3", "--slaves", "6",
            "--requests", "30",
        ])
        assert status == 0
        out = capsys.readouterr().out
        assert "admission history" in out
        assert "link occupancy" in out

    def test_validate_decompose(self, capsys):
        status = main([
            "validate", "--masters", "2", "--slaves", "4",
            "--requests", "8", "--hyperperiods", "1", "--decompose",
        ])
        assert status == 0
        out = capsys.readouterr().out
        assert "decomposition" in out
