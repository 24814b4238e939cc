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
