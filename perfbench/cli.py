"""Command line: ``python -m perfbench run|compare``.

``run`` starts one fresh single-threaded Python process per workload
and pass, so each workload's peak RSS and warm-up are its own. It
writes the full report (quartiles, sample counts, the traced ledger)
to a JSON file, prints a table on standard error, and prints one JSON
object as the last line of standard output::

    {"correct": true, "attempted": 1000, "failed": 0,
     "metrics": {"round_ms": {"value": 512.3, "unit": "ms"}, ...}}

With one workload the metrics are those ``BENCHMARK.json`` lists:
``end_to_end`` for the timed pass (``--trace 0``), ``per_layer`` for the
traced pass (``--trace 1``). With several workloads they are keyed by
workload name.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Keeps numpy's thread pools (and so each workload) on one core.
_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
#: A pass that takes longer is killed; the run then fails.
CHILD_TIMEOUT_S = 170
PASS_NAMES = {0: "untraced", 1: "traced"}


class UsageError(Exception):
    """Bad arguments or a checkout the benchmark cannot run in."""


def load_spec(root: Path = ROOT) -> dict:
    path = root / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _src_dir() -> Path:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise UsageError(
            f"{src / 'repro'} not found: run from a checkout of the repository"
        )
    return src


def _spawn(src: Path, workload: str, pass_id: int, seed: int,
           spans: Path) -> dict:
    """Run one pass in a fresh process and return its report."""
    env = dict(os.environ, **_THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    cmd = [
        sys.executable, "-m", "perfbench", "_worker",
        "--workload", workload, "--seed", str(seed),
        "--pass", PASS_NAMES[pass_id], "--spans", str(spans),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise RuntimeError(
            f"{workload} {PASS_NAMES[pass_id]} pass exceeded "
            f"{CHILD_TIMEOUT_S} s"
        ) from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} {PASS_NAMES[pass_id]} pass exited with "
            f"{proc.returncode}"
        )
    return json.loads(lines[-1])


def _worker(args) -> int:
    began = perf_counter_ns()
    from . import workloads  # imports repro and numpy
    import_s = (perf_counter_ns() - began) / 1e9
    from .harness import timed_pass, traced_pass

    cls = workloads.WORKLOADS[args.workload]
    if args.pass_name == "untraced":
        report = timed_pass(cls, args.seed, import_s)
    else:
        report = traced_pass(cls, args.seed, import_s, Path(args.spans))
    report.update(workload=args.workload, seed=args.seed)
    print(json.dumps(report))
    return 0


def _trace_passes(values) -> list[int]:
    if values is None:
        return [0]
    return sorted(set(values)) if values else [0, 1]


def _contract_metrics(passes: dict, spec: dict) -> dict:
    metrics = {}
    for pass_name, key in (("untraced", "end_to_end"),
                           ("traced", "per_layer")):
        if pass_name in passes:
            reported = passes[pass_name]["metrics"]
            for metric in spec[key]:
                metrics[metric["name"]] = {
                    "value": reported[metric["name"]]["value"],
                    "unit": metric["unit"],
                }
    return metrics


def _print_table(report: dict) -> None:
    for workload, passes in report["workloads"].items():
        for pass_name, result in passes.items():
            print(f"== {workload} ({pass_name}): {result['rounds']} rounds, "
                  f"{result['failed']}/{result['attempted']} failed",
                  file=sys.stderr)
            for failure in result["failures"]:
                print(f"   FAIL {failure}", file=sys.stderr)
            for warning in result["warnings"]:
                print(f"   WARN {warning}", file=sys.stderr)
            for name, entry in result["metrics"].items():
                extra = ""
                if "q1" in entry:
                    extra = (f"  [q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g},"
                             f" n {entry['n']}]")
                elif "beyond" in entry:
                    extra = f"  [n {entry['n']}, {entry['beyond']} at/above]"
                print(f"   {name:44s} {entry['value']:14.6g} "
                      f"{entry['unit']}{extra}", file=sys.stderr)


def _run(args) -> int:
    spec = load_spec()
    src = _src_dir()
    names = [w["name"] for w in spec["workloads"]]
    chosen = args.workload or names
    unknown = [w for w in chosen if w not in names]
    if unknown:
        raise UsageError(f"unknown workload(s) {unknown}; have {names}")
    passes = _trace_passes(args.trace)
    if args.seconds not in (None, spec["run_seconds"]):
        raise UsageError(
            f"--seconds {args.seconds:g}: each workload runs a fixed number "
            f"of rounds, which take about run_seconds = "
            f"{spec['run_seconds']} s; no other run length exists"
        )
    tag = chosen[0] if len(chosen) == 1 else "all"
    out = Path(args.out) if args.out else OUT_DIR / (
        f"{tag}-seed{args.seed}-trace{''.join(map(str, passes))}.json"
    )
    report = {
        "seed": args.seed,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "workloads": {},
    }
    for workload in chosen:
        for pass_id in passes:
            # relative to the worker's working directory, the checkout
            spans = OUT_DIR.relative_to(ROOT) / (
                f"spans-{workload}-seed{args.seed}.jsonl.gz")
            report["workloads"].setdefault(workload, {})[
                PASS_NAMES[pass_id]
            ] = _spawn(src, workload, pass_id, args.seed, spans)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    _print_table(report)
    print(f"report: {out}", file=sys.stderr)
    results = [r for p in report["workloads"].values() for r in p.values()]
    failed = sum(r["failed"] for r in results)
    if len(chosen) == 1:
        metrics = _contract_metrics(report["workloads"][chosen[0]], spec)
    else:
        metrics = {
            w: _contract_metrics(p, spec)
            for w, p in report["workloads"].items()
        }
    print(json.dumps({
        "correct": failed == 0 and not any(r["failures"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m perfbench")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run workloads and report metrics")
    run.add_argument("--workload", "--workloads", nargs="+",
                     help="workload names (default: all)")
    run.add_argument("--seed", type=int, default=2004)
    run.add_argument("--seconds", type=float, default=None,
                     help="must equal BENCHMARK.json run_seconds, the "
                          "expected timed phase of the fixed rounds")
    run.add_argument("--trace", nargs="*", type=int, choices=(0, 1),
                     help="0: timed pass (default), 1: traced pass; bare "
                          "--trace runs both")
    run.add_argument("--out", help="report file (default: perfbench/out/)")
    compare = sub.add_parser(
        "compare", help="check run B against run A with the bounds of "
                        "BENCHMARK.json")
    compare.add_argument("baseline")
    compare.add_argument("candidate")
    worker = sub.add_parser("_worker")
    worker.add_argument("--workload", required=True)
    worker.add_argument("--seed", type=int, required=True)
    worker.add_argument("--pass", dest="pass_name", required=True,
                        choices=tuple(PASS_NAMES.values()))
    worker.add_argument("--spans", required=True)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "_worker":
            return _worker(args)
        if args.command == "compare":
            from .compare import compare
            return compare(Path(args.baseline), Path(args.candidate),
                           load_spec())
        return _run(args)
    except UsageError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
