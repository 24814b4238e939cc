"""``python -m perfbench compare A.json B.json``: is run B within bounds?

For every (end-to-end metric, workload) pair present in both reports,
B may be worse than A by at most the metric's ``bound`` from
``BENCHMARK.json``. A deterministic metric (``accept_ratio``) must be
exactly equal when both runs used the same seed. Exit status 1 lists
the pairs outside their bound; 0 means every pair is within it.

The yardstick's speed (``calib_ops_per_s``, see :mod:`perfbench.harness`)
is compared too: when it differs by more than :data:`CALIBRATION_DRIFT`
the host changed speed between the runs, and a difference may be the
machine's, not the code's.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from .cli import UsageError

__all__ = ["compare", "CALIBRATION_DRIFT"]

CALIBRATION_DRIFT = 0.10


def _load(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read report {path}: {exc}") from None


def worsening(baseline: float, candidate: float, better: str) -> float:
    """How much worse ``candidate`` is, as a share of ``baseline``."""
    if baseline == candidate:
        return 0.0
    if baseline == 0:
        return float("inf")
    change = (candidate - baseline) / abs(baseline)
    return change if better == "lower" else -change


def compare(baseline_path: Path, candidate_path: Path, spec: dict,
            out=sys.stdout) -> int:
    baseline, candidate = _load(baseline_path), _load(candidate_path)
    same_seed = baseline.get("seed") == candidate.get("seed")
    outside = []
    print(f"{'workload':18s} {'metric':16s} {'A':>12s} {'B':>12s} "
          f"{'worse':>8s} {'bound':>6s}", file=out)
    for workload, passes in baseline["workloads"].items():
        a = passes.get("untraced")
        b = candidate["workloads"].get(workload, {}).get("untraced")
        if a is None or b is None:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            entry_a, entry_b = a["metrics"][name], b["metrics"][name]
            exact = same_seed and entry_a.get("deterministic", False)
            bound = 0.0 if exact else metric["bound"]
            worse = worsening(entry_a["value"], entry_b["value"],
                              metric["better"])
            flag = "" if worse <= bound else "  OUTSIDE"
            print(f"{workload:18s} {name:16s} {entry_a['value']:12.6g} "
                  f"{entry_b['value']:12.6g} {worse:+8.1%} {bound:6.0%}"
                  f"{flag}", file=out)
            if flag:
                outside.append(f"{workload} {name}: {worse:+.1%} worse, "
                               f"bound {bound:.0%}")
        drift = b["calib_ops_per_s"] / a["calib_ops_per_s"] - 1
        if abs(drift) > CALIBRATION_DRIFT:
            pace = "faster" if drift > 0 else "slower"
            print(f"warning: {workload}: the yardstick ran {abs(drift):.0%} "
                  f"{pace} in B; the host's speed changed between the runs",
                  file=out)
    for line in outside:
        print(f"REGRESSION {line}", file=out)
    return 1 if outside else 0
