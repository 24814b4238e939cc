"""Output options are checked before a command runs (exit 2, no run)."""

from __future__ import annotations

import pytest

from repro.cli import main


@pytest.mark.parametrize(
    "argv",
    [
        ["fig18-5", "--trials", "1", "--csv", "{missing}/fig.csv"],
        ["fig18-5", "--trials", "1", "--json", "{missing}/fig.json"],
        ["oracle", "--trials", "5", "--json", "{missing}/oracle.json"],
        ["service-soak", "--json", "{missing}/soak.json"],
        ["netcalc-bounds", "--csv", "{missing}/bounds.csv"],
        ["admission-diff", "--trials", "2", "--json", "{dir}"],
        ["fig18-5", "--trials", "1", "--telemetry-out", "{file}/bundle"],
        ["service-soak", "--telemetry-out", "{file}"],
        ["spans", "--out", "{file}"],
        ["spans", "--signal-loss", "0.2", "--out", "{file}/bundle"],
    ],
)
def test_bad_output_path_exits_2_before_running(argv, tmp_path, capsys):
    blocker = tmp_path / "plain-file"
    blocker.write_text("")
    argv = [
        arg.format(missing=tmp_path / "no" / "such", dir=tmp_path,
                   file=blocker)
        for arg in argv
    ]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # nothing ran, nothing was printed
    assert captured.err.startswith(f"repro {argv[0]}: --")


def test_missing_telemetry_directory_is_created(tmp_path, capsys):
    bundle = tmp_path / "new" / "bundle"
    assert main(["fig18-5", "--trials", "1", "--telemetry-out",
                 str(bundle)]) == 0
    assert bundle.is_dir()


@pytest.mark.parametrize("target", ["{file}", "{file}/bundle"])
def test_obs_capture_under_a_file_exits_2_before_running(
    target, tmp_path, capsys
):
    blocker = tmp_path / "plain-file"
    blocker.write_text("")
    out = target.format(file=blocker)
    assert main(["obs", "capture", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"repro obs: capture DIR {out}: {blocker} is not a directory\n"
    )


def test_missing_spans_directory_is_created(tmp_path, capsys):
    bundle = tmp_path / "new" / "spans"
    assert main(["spans", "--requests", "4", "--out", str(bundle)]) == 0
    assert (bundle / "spans.jsonl").is_file()
