"""Short runs of every workload, and the command line's contract."""

import inspect
import shutil
import subprocess
import sys

import pytest

from perfbench import harness, workloads
from perfbench.cli import ROOT, load_spec, main
from perfbench.tracer import _import_all

SPEC = load_spec()


class TinyAdmission(workloads.Fig185Admission):
    rounds = 2
    TRIALS = 2


class TinyStar(workloads.StarDataplane):
    rounds = 2
    REQUESTS = 20
    MESSAGES = 3


class TinyFabric(workloads.FattreeFabric):
    rounds = 2
    REQUESTS = 40
    MESSAGES = 2


class TinySoak(workloads.ServiceSoak):
    EPOCH = 2
    rounds = 2
    ROUND_NS = 40_000_000


TINY = {cls.name: cls for cls in (TinyAdmission, TinyStar, TinyFabric,
                                  TinySoak)}


def test_every_workload_is_named_in_the_spec():
    assert sorted(TINY) == sorted(w["name"] for w in SPEC["workloads"])
    assert sorted(workloads.WORKLOADS) == sorted(TINY)


def _is_code(value) -> bool:
    return inspect.isfunction(value) or isinstance(
        value, (staticmethod, classmethod))


def _functions_of_repro() -> dict:
    """Every function bound in a repro module or class, by name."""
    _import_all("repro")
    seen = {}
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro"):
            continue
        for attr, value in vars(module).items():
            if _is_code(value):
                seen[(name, attr)] = value
            if inspect.isclass(value):
                for key, member in vars(value).items():
                    if _is_code(member):
                        seen[(name, attr, key)] = member
    return seen


@pytest.fixture(scope="module")
def reports():
    patch = pytest.MonkeyPatch()
    patch.setattr(harness, "SETUP_REPEATS", 2)
    patch.setattr(harness, "TRACED_ROUNDS", 2)
    before = _functions_of_repro()
    out = {}
    try:
        for name, cls in TINY.items():
            out[name] = (
                harness.timed_pass(cls, 7, import_s=0.1),
                harness.traced_pass(cls, 7, import_s=0.1),
            )
    finally:
        patch.undo()
    return before, out


@pytest.mark.parametrize("name", sorted(TINY))
def test_short_run_emits_every_named_metric(reports, name):
    timed, traced = reports[1][name]
    for report, key in ((timed, "end_to_end"), (traced, "per_layer")):
        assert report["failed"] == 0, report["failures"]
        assert report["attempted"] > 0
        for metric in SPEC[key]:
            entry = report["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"], metric["name"]
            assert isinstance(entry["value"], (int, float))
    for metric in SPEC["end_to_end"]:
        assert timed["metrics"][metric["name"]]["value"] > 0, metric["name"]
    assert traced["metrics"]["obs.calls"]["value"] == 0


def test_wrappers_are_gone_after_the_traced_run(reports):
    before, _ = reports
    assert _functions_of_repro() == before


def test_fails_cleanly_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench", "run", "--workload",
         "fig185-admission", "--seed", "1",
         "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "not found" in proc.stderr


def test_only_the_fixed_run_length_is_accepted(capsys):
    assert main(["run", "--workload", "fig185-admission",
                 "--seconds", str(SPEC["run_seconds"] + 1)]) == 2
    captured = capsys.readouterr()
    assert "fixed number of rounds" in captured.err
    assert captured.out == ""


def test_spec_matches_the_contract():
    assert SPEC["paths"] == ["perfbench"]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert len(SPEC["per_layer"]) <= 128
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
