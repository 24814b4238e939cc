"""``python -m perfbench compare`` on synthetic reports."""

import copy
import io
import json

from perfbench.cli import load_spec, main
from perfbench.compare import compare, worsening

SPEC = load_spec()


def _report(seed=2004, calib=300_000.0):
    metrics = {
        m["name"]: {"value": 100.0, "unit": m["unit"]}
        for m in SPEC["end_to_end"]
    }
    metrics["accept_ratio"].update(value=0.44, deterministic=True)
    untraced = {"metrics": metrics, "calib_ops_per_s": calib}
    return {"seed": seed, "workloads": {
        w["name"]: {"untraced": copy.deepcopy(untraced)}
        for w in SPEC["workloads"]
    }}


def _run(tmp_path, a, b):
    paths = []
    for name, report in (("a.json", a), ("b.json", b)):
        path = tmp_path / name
        path.write_text(json.dumps(report))
        paths.append(path)
    out = io.StringIO()
    return compare(*paths, SPEC, out=out), out.getvalue()


def test_identical_reports_pass(tmp_path):
    status, text = _run(tmp_path, _report(), _report())
    assert status == 0
    assert "REGRESSION" not in text


def _shifted(name, share):
    """A report whose ``name`` on star-dataplane is ``share`` worse."""
    report = _report()
    entry = report["workloads"]["star-dataplane"]["untraced"]["metrics"][name]
    better = {m["name"]: m["better"] for m in SPEC["end_to_end"]}[name]
    entry["value"] *= 1 + share if better == "lower" else 1 - share
    return report


def test_a_twenty_percent_regression_is_flagged_where_the_bound_resolves_it(
        tmp_path):
    # setup_s and op_p90_us spread too widely across runs for a 20 %
    # bound (README.md, "Bounds"); every other metric must catch it
    resolved = [m["name"] for m in SPEC["end_to_end"] if m["bound"] < 0.2]
    assert sorted(resolved) == ["accept_ratio", "decisions_per_s",
                                "op_p50_us", "peak_rss_mb", "round_ms"]
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        status, text = _run(tmp_path, _report(), _shifted(name, 0.2))
        assert status == (name in resolved), name
        assert (f"REGRESSION star-dataplane {name}: +20.0% worse"
                in text) == (name in resolved)
        # a 20 % gain is never a regression
        assert _run(tmp_path, _report(), _shifted(name, -0.2))[0] == 0, name


def test_deterministic_metrics_are_exact_on_the_same_seed(tmp_path):
    drifted = _report()
    drifted["workloads"]["fattree-fabric"]["untraced"]["metrics"][
        "accept_ratio"]["value"] = 0.4399
    assert _run(tmp_path, _report(), drifted)[0] == 1
    drifted["seed"] = 7
    assert _run(tmp_path, _report(), drifted)[0] == 0


def test_host_drift_is_reported(tmp_path):
    status, text = _run(tmp_path, _report(), _report(calib=240_000.0))
    assert status == 0
    assert "the host's speed changed" in text


def test_worsening_direction():
    assert worsening(100.0, 120.0, "lower") == 0.2
    assert worsening(100.0, 80.0, "higher") == 0.2
    assert worsening(100.0, 120.0, "higher") == -0.2


def test_missing_report_is_a_usage_error(tmp_path, capsys):
    assert main(["compare", str(tmp_path / "a.json"),
                 str(tmp_path / "b.json")]) == 2
    assert "cannot read report" in capsys.readouterr().err
