"""Arguments a run rejects exit 2 with a one-line message, no traceback."""

from __future__ import annotations

import pytest

from repro.cli import main


@pytest.mark.parametrize(
    "argv",
    [
        ["bench-admission", "--requests", "0"],
        ["admission-diff", "--trials", "0"],
        ["admission-diff", "--batch", "--churn"],
        ["fig18-5", "--trials", "0"],
        ["oracle", "--trials", "-1"],
        ["netcalc-diff", "--trials", "0"],
        ["multiswitch", "--trials", "0"],
        ["dps", "--trials", "0"],
        ["validate", "--trials", "0"],
        ["service-soak", "--loss", "1.5"],
        ["service-soak", "--loss", "-0.1"],
        ["service-soak", "--loss", "nan"],
        ["service-soak", "--kill-at", "-1"],
        ["service-soak", "--checkpoint-every-ns", "0"],
        ["fabric-sweep", "--topology", "ring:4"],
    ],
    ids=" ".join,
)
def test_rejected_argument_exits_2_with_message(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"repro {argv[0]}: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (
            ["service-soak", "--loss", "-0.1"],
            "drop probability for 'request' must be in [0, 1), got -0.1",
        ),
        (
            ["service-soak", "--duration-ns", "0"],
            "duration_ns must be positive, got 0",
        ),
    ],
    ids=["loss -0.1", "duration-ns 0"],
)
def test_soak_rejection_names_the_bad_value(argv, message, capsys):
    # a negative loss used to run a lossless soak and pass, and a
    # non-positive duration was reported as a misplaced kill point
    assert main(argv) == 2
    assert capsys.readouterr().err == f"repro service-soak: {message}\n"
