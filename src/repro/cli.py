"""Command-line interface: regenerate any experiment from a terminal.

``python -m repro <command>`` runs one reproduced artifact and prints
its table; ``--csv``/``--json`` additionally export the series for
external plotting. Every command is seeded and deterministic.

Commands
--------
``fig18-5``      the paper's Figure 18.5 (EXP-F5)
``validate``     Eq. 18.1 guarantee under simulation (EXP-V1)
``coexist``      best-effort coexistence (EXP-B1)
``perf``         feasibility-test cost (EXP-P1)
``ablation``     parameter sweeps (EXP-A1/A3/A4) and the symmetric
                 control (EXP-A2)
``dps``          all five partitioning schemes (EXP-D1)
``multiswitch``  switch-tree extension (EXP-X1)
``fabric-sweep`` graph-fabric acceptance curves (EXP-X3): fat-tree /
                 chain / tree / star topologies at 100+ end nodes,
                 msym vs mprop, seeded multipath routing
``robustness``   phase / loss fault injection (EXP-R1) and the
                 signalling-loss liveness check (EXP-R2,
                 ``--signal-loss``)
``oracle``       differential fuzz campaign: analytical admission vs
                 brute-force EDF timeline replay
``bench-admission`` admission fast-path timing, cached vs from-scratch
                 (EXP-P2); ``--smoke`` for the quick CI variant
``admission-diff`` differential campaign: cached vs from-scratch
                 admission decisions under interleaved releases;
                 ``--churn`` interleaves snapshot/resume ops and
                 byte-compares every persistence round-trip
``service-soak`` long-lived admission service soak (EXP-X4): churn
                 workload, kill-and-resume determinism, and the
                 two-switch intent-lock fabric under control loss
``netcalc-diff`` second-oracle fuzz campaign: network-calculus bounds
                 vs paper bounds vs measured simulation delays
``netcalc-bounds`` per-channel netcalc bound table for the Fig. 18.5
                 workload (the checked-in regression CSV)
``obs``          telemetry bundles: ``capture`` a fully instrumented
                 run, ``check`` an emitted bundle against the schemas,
                 ``report`` a bundle's spans/anomalies/flight dumps
``spans``        causal span capture: attribute each request's latency
                 to queue/wire/processing/backoff, with an online
                 invariant monitor and flight recorder riding along
``bench-report`` summarize the benchmark suite's ``BENCH_*.json``
                 artifacts, optionally against a baseline directory

``fig18-5``, ``validate`` and ``robustness --signal-loss`` accept
``--telemetry-out DIR`` to emit a telemetry bundle (metrics snapshot,
probe time series, JSONL trace and a Chrome/Perfetto trace) alongside
their normal output.

The acceptance sweeps (``fig18-5``, ``dps``, ``ablation``,
``multiswitch``, ``fabric-sweep``) and ``validate --trials N`` accept
``--workers N`` to
fan their seeded work units across a process pool (1 = serial, 0 = one
per CPU); every output -- tables, CSV/JSON exports, telemetry bundles
-- is byte-identical at any worker count.

Exit status: 0 on success, 1 when a checked guarantee is violated
(``validate``, ``coexist``, ``robustness``, ``oracle``,
``bench-admission`` parity, ``admission-diff``, ``netcalc-diff``,
``service-soak``, ``fabric-sweep --cross-check``,
``obs check``, the ``spans`` coverage gate, ``bench-report`` schema
conformance), 2 on usage errors: an unwritable output path, or an
argument the run rejects (``ConfigurationError``), reported as
``repro <command>: <message>`` on stderr without a traceback.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .analysis.export import write_csv, write_json
from .analysis.report import format_table
from .errors import ConfigurationError
from .oracle.fuzz import FAMILIES

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Real-Time Communication for Industrial "
            "Embedded Systems Using Switched Ethernet' (Hoang & Jonsson, "
            "2004)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--trials", type=int, default=10,
                       help="trials per randomized point (default 10)")
        p.add_argument("--seed", type=int, default=2004)
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes for the sweep (1 = serial, "
                            "0 = all CPUs; results are identical at any "
                            "worker count)")
        p.add_argument("--csv", metavar="PATH",
                       help="export the series as CSV")
        p.add_argument("--json", metavar="PATH",
                       help="export the series as JSON")
        return p

    fig = common(sub.add_parser("fig18-5", help="reproduce Figure 18.5"))
    fig.add_argument(
        "--telemetry-out", metavar="DIR",
        help="emit a telemetry bundle (metrics + traces) into DIR",
    )

    validate = sub.add_parser(
        "validate", help="check the Eq. 18.1 guarantee by simulation"
    )
    validate.add_argument("--masters", type=int, default=6)
    validate.add_argument("--slaves", type=int, default=18)
    validate.add_argument("--requests", type=int, default=80)
    validate.add_argument("--hyperperiods", type=int, default=3)
    validate.add_argument("--seed", type=int, default=55)
    validate.add_argument(
        "--trials", type=int, default=1,
        help="independent validation runs (trial 0 uses --seed, trial i "
             "forks seed i); exit 0 only when every run holds",
    )
    validate.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for --trials > 1 (1 = serial, 0 = all "
             "CPUs; reports are identical at any worker count)",
    )
    validate.add_argument(
        "--scheme", choices=["sdps", "adps"], default="adps"
    )
    validate.add_argument(
        "--decompose", action="store_true",
        help="additionally print the per-channel per-hop budget table "
             "(EXP-V2)",
    )
    validate.add_argument(
        "--telemetry-out", metavar="DIR",
        help="emit a telemetry bundle (metrics + probes + traces) into DIR",
    )
    validate.add_argument(
        "--profile", action="store_true",
        help="with --telemetry-out: time every kernel event callback "
             "and include the per-label profile in the metrics snapshot",
    )

    audit = sub.add_parser(
        "audit",
        help="admit a master-slave workload and print the operator's "
             "view: admission history + per-link occupancy/headroom",
    )
    audit.add_argument("--masters", type=int, default=10)
    audit.add_argument("--slaves", type=int, default=50)
    audit.add_argument("--requests", type=int, default=120)
    audit.add_argument("--seed", type=int, default=2004)
    audit.add_argument(
        "--scheme", choices=["sdps", "adps"], default="adps"
    )

    coexist = sub.add_parser(
        "coexist", help="RT + saturating best-effort coexistence"
    )
    coexist.add_argument("--masters", type=int, default=4)
    coexist.add_argument("--slaves", type=int, default=12)
    coexist.add_argument("--requests", type=int, default=40)
    coexist.add_argument("--messages", type=int, default=8)
    coexist.add_argument("--seed", type=int, default=77)

    perf = sub.add_parser("perf", help="feasibility-test cost sweep")
    perf.add_argument("--sizes", type=int, nargs="+",
                      default=[4, 8, 12, 16, 20])
    perf.add_argument("--homogeneous", action="store_true",
                      help="use the paper's fixed channel parameters")
    perf.add_argument("--seed", type=int, default=99)

    ablation = common(sub.add_parser("ablation", help="parameter sweeps"))
    ablation.add_argument(
        "axis", choices=["deadline", "capacity", "masters", "symmetric"]
    )

    common(sub.add_parser("dps", help="compare all five DPS schemes"))

    multiswitch = common(
        sub.add_parser("multiswitch", help="switch-tree extension")
    )
    multiswitch.add_argument("--switches", type=int, default=3)

    fabric = common(sub.add_parser(
        "fabric-sweep",
        help="graph-fabric acceptance curves (EXP-X3): msym vs mprop "
             "over a fat-tree/chain/tree/star at 100+ end nodes",
    ))
    fabric.set_defaults(trials=5)
    fabric.add_argument(
        "--topology", default="fat-tree:4", metavar="SPEC",
        help="fat-tree:K, chain:N, tree:DEPTH:FANOUT or star:N "
             "(default fat-tree:4)",
    )
    fabric.add_argument(
        "--hosts-per-edge", type=int, default=None, metavar="N",
        help="hosts per edge/leaf switch (default: topology-specific; "
             "the fat-tree default scales to >= 100 end nodes)",
    )
    fabric.add_argument(
        "--requests", type=int, default=400,
        help="channel requests offered per trial (default 400)",
    )
    fabric.add_argument(
        "--checkpoints", type=int, default=10,
        help="evenly spaced acceptance checkpoints (default 10)",
    )
    fabric.add_argument(
        "--routing-seed", type=int, default=0,
        help="seed of the equal-cost multipath tie-break (default 0)",
    )
    fabric.add_argument(
        "--cross-check", action="store_true",
        help="replay trial 0 serially and run the three-way netcalc / "
             "demand-test / EDF-replay oracle on every occupied link "
             "(exit 1 on any disagreement)",
    )

    robustness = sub.add_parser(
        "robustness", help="fault injection outside the paper's model"
    )
    robustness.add_argument(
        "mode", nargs="?", choices=["phase", "loss", "signal"], default=None,
        help="phase/loss = EXP-R1, signal = EXP-R2 (may be omitted when "
             "--signal-loss is given)",
    )
    robustness.add_argument("--loss-rate", type=float, default=0.01)
    robustness.add_argument(
        "--signal-loss", type=float, default=None, metavar="RATE",
        help="EXP-R2: drop this fraction of every signalling frame class "
             "and check that no reservation leaks (implies mode "
             "'signal'; default rate 0.2)",
    )
    robustness.add_argument(
        "--requests", type=int, default=40,
        help="channel requests for the signal mode (default 40)",
    )
    robustness.add_argument("--seed", type=int, default=808)
    robustness.add_argument(
        "--telemetry-out", metavar="DIR",
        help="signal mode: emit a telemetry bundle (retry/lease/stale "
             "counters + traces) into DIR",
    )

    oracle = sub.add_parser(
        "oracle",
        help="differential fuzz campaign: analytical feasibility vs "
             "EDF timeline replay",
    )
    oracle.add_argument("--trials", type=int, default=1000,
                        help="random task sets to cross-check "
                             "(default 1000)")
    oracle.add_argument("--seed", type=int, default=0)
    oracle.add_argument(
        "--families", nargs="+", metavar="NAME", default=None,
        choices=FAMILIES,
        help="task-set families to draw from, space-separated "
             "(default: all; see repro.oracle.fuzz.FAMILIES)",
    )
    oracle.add_argument(
        "--skip-naive", action="store_true",
        help="skip the every-integer reference scan (faster; the "
             "timeline leg still runs)",
    )
    oracle.add_argument(
        "--max-horizon", type=int, default=None,
        help="cap on replay/scan horizons in slots (longer sets are "
             "counted as horizon-capped, not failed)",
    )
    oracle.add_argument("--json", metavar="PATH",
                        help="export the campaign report as JSON")

    bench = sub.add_parser(
        "bench-admission",
        help="time the Fig. 18.5 admission sweep cached vs from-scratch "
             "(EXP-P2)",
    )
    bench.add_argument("--requests", type=int, default=200,
                       help="channel requests per trial (default 200)")
    bench.add_argument("--trials", type=int, default=5,
                       help="request sequences per timing run (default 5)")
    bench.add_argument("--seed", type=int, default=2004)
    bench.add_argument(
        "--scheme", choices=["sdps", "adps"], default="sdps",
    )
    bench.add_argument(
        "--repeats", type=int, default=3,
        help="timing repetitions per side; the minimum is reported "
             "(default 3)",
    )
    bench.add_argument(
        "--smoke", action="store_true",
        help="quick CI variant: reduced workload, asserts decision "
             "parity but no speedup floor (shared-runner timing is "
             "too noisy for ratios)",
    )
    bench.add_argument("--json", metavar="PATH",
                       help="export the timing report as JSON")
    bench.add_argument(
        "--metrics", action="store_true",
        help="add an untimed instrumented pass and report the registry "
             "snapshot (verdict counters + cache hit/miss metrics)",
    )
    bench.add_argument(
        "--batch", action="store_true",
        help="EXP-P7 variant: time the batched admit_many engine "
             "(cold burst + saturated storm) against the cached "
             "scalar path instead of cached-vs-naive",
    )

    ncdiff = sub.add_parser(
        "netcalc-diff",
        help="second-oracle fuzz campaign: measured per-frame delays "
             "vs network-calculus and paper bounds, plus per-link "
             "three-way admission checks",
    )
    ncdiff.add_argument("--trials", type=int, default=1000,
                        help="seeded simulation trials (default 1000)")
    ncdiff.add_argument("--seed", type=int, default=0)
    ncdiff.add_argument(
        "--topologies", nargs="+", metavar="NAME", default=None,
        choices=["star", "fabric", "fat-tree"],
        help="topologies to cycle through "
             "(default: star fabric fat-tree)",
    )
    ncdiff.add_argument("--json", metavar="PATH",
                        help="export the campaign report as JSON")

    ncbounds = sub.add_parser(
        "netcalc-bounds",
        help="per-channel network-calculus bound table for the "
             "Fig. 18.5 workload (regenerates the checked-in CSV)",
    )
    ncbounds.add_argument(
        "--checkpoints", type=int, nargs="+", default=None,
        help="offered-request checkpoints (default: 20 100 200)",
    )
    ncbounds.add_argument("--csv", metavar="PATH",
                          help="write the CSV (default: print the table)")

    obs = sub.add_parser(
        "obs",
        help="telemetry bundles: capture an instrumented run or "
             "schema-check an emitted bundle",
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    capture = obs_sub.add_parser(
        "capture",
        help="run a fully instrumented validation simulation and write "
             "the telemetry bundle (open trace.chrome.json in Perfetto)",
    )
    capture.add_argument("out", metavar="DIR",
                         help="directory for the bundle files")
    capture.add_argument("--masters", type=int, default=4)
    capture.add_argument("--slaves", type=int, default=12)
    capture.add_argument("--requests", type=int, default=40)
    capture.add_argument("--hyperperiods", type=int, default=2)
    capture.add_argument("--seed", type=int, default=55)
    capture.add_argument("--profile", action="store_true",
                         help="also profile kernel event callbacks")
    check = obs_sub.add_parser(
        "check", help="validate a bundle directory against the schemas"
    )
    check.add_argument("bundle", metavar="DIR",
                       help="bundle directory to validate")
    obs_report = obs_sub.add_parser(
        "report",
        help="summarize an emitted bundle: span phases, per-request "
             "latency attribution, anomalies and flight dumps",
    )
    obs_report.add_argument("bundle", metavar="DIR",
                            help="bundle directory to summarize")

    spans_cmd = sub.add_parser(
        "spans",
        help="causal span capture: run an instrumented handshake "
             "workload and attribute every request's end-to-end latency "
             "to queue/wire/processing/backoff phases",
    )
    spans_cmd.add_argument(
        "--summary", action="store_true",
        help="print the per-request attribution table",
    )
    spans_cmd.add_argument(
        "--signal-loss", type=float, default=None, metavar="RATE",
        help="run the EXP-R2 signalling-loss workload at RATE instead "
             "of the clean validation run (exercises backoff "
             "attribution)",
    )
    spans_cmd.add_argument("--masters", type=int, default=4)
    spans_cmd.add_argument("--slaves", type=int, default=12)
    spans_cmd.add_argument("--requests", type=int, default=40)
    spans_cmd.add_argument("--hyperperiods", type=int, default=2)
    spans_cmd.add_argument("--seed", type=int, default=55)
    spans_cmd.add_argument(
        "--out", metavar="DIR",
        help="write the telemetry bundle (spans.jsonl, anomalies.jsonl, "
             "flight dumps) into DIR",
    )
    spans_cmd.add_argument(
        "--min-coverage", type=float, default=0.99,
        help="fail (exit 1) when any resolved request attributes less "
             "than this fraction of its latency to named phases "
             "(default 0.99)",
    )

    breport = sub.add_parser(
        "bench-report",
        help="summarize BENCH_*.json artifacts emitted by the benchmark "
             "suite; optionally compare wall times against a baseline "
             "directory",
    )
    breport.add_argument("dir", metavar="DIR",
                         help="directory holding BENCH_*.json files")
    breport.add_argument(
        "--baseline", metavar="DIR", default=None,
        help="earlier BENCH_*.json directory to diff against",
    )

    adiff = sub.add_parser(
        "admission-diff",
        help="differential campaign: cached vs from-scratch admission "
             "decisions under interleaved releases",
    )
    adiff.add_argument("--trials", type=int, default=200,
                       help="seeded trials to compare (default 200)")
    adiff.add_argument("--seed", type=int, default=0)
    adiff.add_argument("--ops", type=int, default=40,
                       help="request/release operations per trial "
                            "(default 40)")
    adiff.add_argument(
        "--batch", action="store_true",
        help="three-way mode: additionally replay every trial's "
             "request bursts through admit_many() on a third "
             "controller and require the identical decision stream",
    )
    adiff.add_argument(
        "--churn", action="store_true",
        help="churn mode: interleave snapshot/resume ops into every "
             "trial and byte-compare each persistence round-trip "
             "(exclusive with --batch)",
    )
    adiff.add_argument("--json", metavar="PATH",
                       help="export the campaign report as JSON")

    soak = sub.add_parser(
        "service-soak",
        help="long-lived admission service soak (EXP-X4): churn "
             "workload, kill-and-resume determinism, two-switch "
             "intent-lock fabric under control-frame loss",
    )
    soak.add_argument(
        "--duration-ns", type=int, default=120_000_000,
        help="soak horizon in simulated nanoseconds "
             "(default 120000000 = 120 ms)",
    )
    soak.add_argument("--seed", type=int, default=2004)
    soak.add_argument(
        "--loss", type=float, default=0.2,
        help="control-frame (intent/gossip/signalling) loss rate on the "
             "fabric's inter-switch wire (default 0.2)",
    )
    soak.add_argument(
        "--kill-at", type=int, default=None, metavar="NS",
        help="simulated instant to kill the victim run and resume from "
             "its latest checkpoint (default: half the horizon)",
    )
    soak.add_argument(
        "--checkpoint-every-ns", type=int, default=10_000_000,
        help="checkpoint period (default 10000000 = 10 ms)",
    )
    soak.add_argument("--json", metavar="PATH",
                      help="export the soak report as JSON")
    soak.add_argument(
        "--telemetry-out", metavar="DIR", default=None,
        help="write the soak report, a schema-checked anomalies.jsonl "
             "and metrics.json into DIR",
    )

    return parser


def _export(args, x_label, x_values, series, metadata):
    if getattr(args, "csv", None):
        path = write_csv(args.csv, x_label, x_values, series)
        print(f"wrote {path}")
    if getattr(args, "json", None):
        path = write_json(
            args.json, x_label, x_values, series, metadata
        )
        print(f"wrote {path}")


def _telemetry_for(args, **config_kwargs):
    """Build a Telemetry bundle when ``--telemetry-out`` was given."""
    out = getattr(args, "telemetry_out", None)
    if out is None:
        return None
    from .obs import Telemetry, TelemetryConfig

    return Telemetry(TelemetryConfig(**config_kwargs))


def _write_telemetry(telemetry, args) -> None:
    if telemetry is None:
        return
    written = telemetry.write(args.telemetry_out)
    for path in written.values():
        print(f"wrote {path}")


def _cmd_fig18_5(args) -> int:
    from .experiments.fig18_5 import Fig185Config, run_fig18_5

    # no simulator in the analytic sweep -> no probes to schedule
    telemetry = _telemetry_for(args, probe_cadence_ns=None)
    result = run_fig18_5(
        Fig185Config(
            trials=args.trials, seed=args.seed, workers=args.workers
        ),
        telemetry=telemetry,
    )
    _write_telemetry(telemetry, args)
    print(result.to_table())
    print(f"\nADPS/SDPS advantage at saturation: "
          f"{result.adps_advantage:.2f}x")
    series = {
        curve.scheme: curve.means for curve in result.curve.curves
    }
    _export(
        args, "requested", list(result.curve.requested), series,
        {"trials": args.trials, "seed": args.seed,
         "experiment": "fig18_5"},
    )
    return 0


def _cmd_validate(args) -> int:
    from .core.partitioning import AsymmetricDPS, SymmetricDPS
    from .experiments.validation import run_validation

    scheme = SymmetricDPS() if args.scheme == "sdps" else AsymmetricDPS()
    if args.trials > 1 and getattr(args, "telemetry_out", None):
        print(
            "repro validate: --telemetry-out needs a single run "
            "(--trials 1); per-worker simulator bundles cannot be "
            "merged into one timeline", file=sys.stderr,
        )
        return 2
    run_kwargs = dict(
        n_masters=args.masters,
        n_slaves=args.slaves,
        n_requests=args.requests,
        hyperperiods=args.hyperperiods,
        dps=scheme,
        use_wire_handshake=False,
    )
    if args.trials != 1:  # the sweep also refuses a non-positive count
        from .experiments.validation import run_validation_sweep

        reports = run_validation_sweep(
            args.trials, args.workers, seed=args.seed, **run_kwargs
        )
        for trial, trial_report in enumerate(reports):
            print(f"trial {trial}: {trial_report.summary()}")
        holding = sum(1 for r in reports if r.holds)
        print(f"{holding}/{len(reports)} trials hold")
        report_ok = holding == len(reports)
    else:
        telemetry = _telemetry_for(args, profile=args.profile)
        report = run_validation(
            seed=args.seed, telemetry=telemetry, **run_kwargs
        )
        _write_telemetry(telemetry, args)
        print(report.summary())
        report_ok = report.holds
    if args.decompose:
        from .experiments.validation import run_decomposition

        rows = run_decomposition(
            n_masters=args.masters,
            n_slaves=args.slaves,
            n_requests=args.requests,
            dps=scheme,
            seed=args.seed,
        )
        table = [
            [r.channel_id, r.uplink_budget_slots,
             round(r.uplink_worst_slots, 1), r.total_budget_slots,
             round(r.total_worst_slots, 1)]
            for r in sorted(
                rows,
                key=lambda r: -(r.uplink_worst_slots / r.uplink_budget_slots),
            )
        ]
        print()
        print(format_table(
            ["channel", "d_iu budget", "uplink worst", "d budget",
             "e2e worst"],
            table,
            title="per-hop delay decomposition (slots, worst first)",
        ))
    return 0 if report_ok else 1


def _cmd_audit(args) -> int:
    from .analysis.audit import system_summary
    from .core.admission import AdmissionController, SystemState
    from .core.channel import ChannelSpec
    from .core.partitioning import AsymmetricDPS, SymmetricDPS
    from .sim.rng import RngRegistry
    from .traffic.patterns import (
        master_slave_names,
        master_slave_requests,
    )
    from .traffic.spec import FixedSpecSampler

    masters, slaves = master_slave_names(args.masters, args.slaves)
    scheme = SymmetricDPS() if args.scheme == "sdps" else AsymmetricDPS()
    controller = AdmissionController(
        SystemState(masters + slaves), scheme
    )
    spec = ChannelSpec(period=100, capacity=3, deadline=40)
    rng = RngRegistry(args.seed).stream("audit-requests")
    for request in master_slave_requests(
        masters, slaves, args.requests, FixedSpecSampler(spec), rng
    ):
        controller.request(request.source, request.destination, request.spec)
    print(system_summary(controller, reference=spec))
    return 0


def _cmd_coexist(args) -> int:
    from .experiments.coexistence import run_coexistence

    report = run_coexistence(
        n_masters=args.masters,
        n_slaves=args.slaves,
        n_requests=args.requests,
        messages=args.messages,
        seed=args.seed,
    )
    print(report.summary())
    return 0 if report.rt_unharmed else 1


def _cmd_perf(args) -> int:
    from .experiments.perf import feasibility_cost_sweep

    points = feasibility_cost_sweep(
        sizes=tuple(args.sizes),
        heterogeneous=not args.homogeneous,
        seed=args.seed,
    )
    rows = [
        [p.n_tasks, p.fast_points_checked, p.naive_points_checked,
         "yes" if p.feasible else "no"]
        for p in points
    ]
    print(format_table(
        ["tasks", "control points", "naive instants", "feasible"],
        rows,
        title="EXP-P1 -- feasibility-test work",
    ))
    return 0


def _cmd_ablation(args) -> int:
    from .experiments.ablations import (
        capacity_sweep,
        deadline_sweep,
        master_ratio_sweep,
        symmetric_traffic_curve,
    )

    if args.axis == "symmetric":
        curve = symmetric_traffic_curve(
            trials=args.trials, seed=args.seed, workers=args.workers
        )
        print(curve.to_table("EXP-A2 -- uniform all-to-all traffic"))
        series = {c.scheme: c.means for c in curve.curves}
        _export(args, "requested", list(curve.requested), series,
                {"experiment": "ablation-symmetric"})
        return 0
    sweep = {
        "deadline": deadline_sweep,
        "capacity": capacity_sweep,
        "masters": master_ratio_sweep,
    }[args.axis]
    points = sweep(trials=args.trials, seed=args.seed, workers=args.workers)
    rows = [
        [p.value, round(p.sdps_mean, 1), round(p.adps_mean, 1),
         round(p.advantage, 2)]
        for p in points
    ]
    print(format_table(
        [args.axis, "sdps", "adps", "adps/sdps"], rows,
        title=f"ablation sweep over {args.axis}",
    ))
    _export(
        args, args.axis, [p.value for p in points],
        {"sdps": [p.sdps_mean for p in points],
         "adps": [p.adps_mean for p in points]},
        {"experiment": f"ablation-{args.axis}"},
    )
    return 0


def _cmd_dps(args) -> int:
    from .experiments.dps_comparison import run_dps_comparison

    curve = run_dps_comparison(
        trials=args.trials, seed=args.seed, workers=args.workers
    )
    print(curve.to_table("EXP-D1 -- DPS design space"))
    series = {c.scheme: c.means for c in curve.curves}
    _export(args, "requested", list(curve.requested), series,
            {"experiment": "dps-comparison"})
    return 0


def _cmd_multiswitch(args) -> int:
    from .experiments.multiswitch_exp import run_multiswitch_comparison

    points = run_multiswitch_comparison(
        n_switches=args.switches, trials=args.trials, seed=args.seed,
        workers=args.workers,
    )
    rows = [
        [p.requested, round(p.symmetric_mean, 1),
         round(p.proportional_mean, 1), round(p.advantage, 2)]
        for p in points
    ]
    print(format_table(
        ["requested", "k-way SDPS", "k-way ADPS", "ratio"], rows,
        title=f"EXP-X1 -- {args.switches}-switch chain",
    ))
    _export(
        args, "requested", [p.requested for p in points],
        {"sym": [p.symmetric_mean for p in points],
         "prop": [p.proportional_mean for p in points]},
        {"experiment": "multiswitch", "switches": args.switches},
    )
    return 0


def _cmd_fabric_sweep(args) -> int:
    from .experiments.fabric_sweep import FabricSweepConfig, run_fabric_sweep

    result = run_fabric_sweep(FabricSweepConfig(
        topology=args.topology,
        hosts_per_edge=args.hosts_per_edge,
        requests=args.requests,
        checkpoints=args.checkpoints,
        trials=args.trials,
        seed=args.seed,
        workers=args.workers,
        routing_seed=args.routing_seed,
        cross_check=args.cross_check,
    ))
    rows = [
        [p.requested, round(p.symmetric_mean, 1),
         round(p.proportional_mean, 1), round(p.advantage, 2)]
        for p in result.points
    ]
    print(format_table(
        ["requested", "msym", "mprop", "ratio"], rows,
        title=(
            f"EXP-X3 -- {result.topology}: {result.n_nodes} nodes / "
            f"{result.n_switches} switches / max {result.max_hops} hops"
        ),
    ))
    _export(
        args, "requested", [p.requested for p in result.points],
        {"msym": [p.symmetric_mean for p in result.points],
         "mprop": [p.proportional_mean for p in result.points]},
        {"experiment": "fabric_sweep", "topology": result.topology,
         "nodes": result.n_nodes, "switches": result.n_switches,
         "max_hops": result.max_hops, "trials": args.trials,
         "seed": args.seed, "routing_seed": args.routing_seed},
    )
    if args.cross_check:
        for scheme, check in zip(sorted(("msym", "mprop")),
                                 result.cross_checks):
            status = "clean" if check.ok else "DISAGREEMENTS"
            print(
                f"cross-check [{scheme}]: {check.links_checked} links, "
                f"{check.capped} horizon-capped -- {status}"
            )
            for line in check.disagreements:
                print(f"  {line}")
        if not result.cross_check_ok:
            return 1
    return 0


def _cmd_robustness(args) -> int:
    from .experiments.robustness import (
        run_loss_robustness,
        run_phase_robustness,
        run_signal_loss_robustness,
    )

    if args.mode == "signal" or args.signal_loss is not None:
        rate = 0.2 if args.signal_loss is None else args.signal_loss
        telemetry = _telemetry_for(args)
        report = run_signal_loss_robustness(
            loss_rate=rate,
            n_requests=args.requests,
            seed=args.seed,
            telemetry=telemetry,
        )
        _write_telemetry(telemetry, args)
        print(report.summary())
        return 0 if report.ok else 1
    if args.mode is None:
        print(
            "repro robustness: pass a mode (phase|loss|signal) or "
            "--signal-loss RATE", file=sys.stderr,
        )
        return 2
    if args.mode == "phase":
        report = run_phase_robustness(seed=args.seed)
        print(
            f"phase robustness: {report.channels_admitted} channels, "
            f"misses sync={report.synchronous_misses} "
            f"random={report.random_misses}; worst delay "
            f"{report.synchronous_worst_delay_ns} ns (sync) vs "
            f"{report.random_worst_delay_ns} ns (random)"
        )
        return 0 if (report.holds and report.critical_instant_is_worst) else 1
    report = run_loss_robustness(loss_rate=args.loss_rate, seed=args.seed)
    print(
        f"loss robustness at {report.loss_rate:.1%}: "
        f"{report.frames_delivered}/{report.frames_sent} frames delivered "
        f"({report.delivery_ratio:.1%}), "
        f"{report.messages_completed}/{report.messages_expected} messages "
        f"complete, late frames: {report.deadline_misses}"
    )
    return 0 if report.timeliness_preserved else 1


def _cmd_oracle(args) -> int:
    from .oracle.differential import DEFAULT_MAX_HORIZON
    from .oracle.fuzz import run_campaign

    report = run_campaign(
        trials=args.trials,
        seed=args.seed,
        families=tuple(args.families) if args.families else FAMILIES,
        check_naive=not args.skip_naive,
        max_horizon=args.max_horizon or DEFAULT_MAX_HORIZON,
    )
    print(report.summary())
    if args.json:
        import json
        from pathlib import Path

        path = Path(args.json)
        path.write_text(json.dumps(report.to_json_dict(), indent=2))
        print(f"wrote {path}")
    return 0 if report.ok else 1


def _cmd_bench_admission(args) -> int:
    from .experiments.admission_perf import (
        AdmissionPerfConfig,
        run_admission_perf,
        run_batch_perf,
    )

    if args.smoke:
        config = AdmissionPerfConfig(
            requests=min(args.requests, 60),
            trials=min(args.trials, 2),
            seed=args.seed,
            scheme=args.scheme,
            repeats=1,
            collect_metrics=args.metrics,
        )
    else:
        config = AdmissionPerfConfig(
            requests=args.requests,
            trials=args.trials,
            seed=args.seed,
            scheme=args.scheme,
            repeats=args.repeats,
            collect_metrics=args.metrics,
        )
    if args.batch:
        result = run_batch_perf(config)
        ok = result.batch_parity and result.storm_parity
    else:
        result = run_admission_perf(config)
        ok = result.parity
    print(result.summary())
    if args.json:
        import json
        from pathlib import Path

        path = Path(args.json)
        path.write_text(json.dumps(result.to_json_dict(), indent=2))
        print(f"wrote {path}")
    return 0 if ok else 1


def _cmd_admission_diff(args) -> int:
    from .oracle.admission_diff import run_admission_campaign

    report = run_admission_campaign(
        args.trials, args.seed, ops_per_trial=args.ops,
        batch=getattr(args, "batch", False),
        churn=getattr(args, "churn", False),
    )
    print(report.summary())
    if args.json:
        import json
        from pathlib import Path

        path = Path(args.json)
        path.write_text(json.dumps(report.to_json_dict(), indent=2))
        print(f"wrote {path}")
    return 0 if report.ok else 1


def _cmd_service_soak(args) -> int:
    import json
    from pathlib import Path

    from .experiments.service_soak import run_service_soak

    result = run_service_soak(
        args.duration_ns,
        args.seed,
        loss=args.loss,
        kill_at_ns=args.kill_at,
        checkpoint_every_ns=args.checkpoint_every_ns,
    )
    print(result.summary())
    if args.json:
        path = Path(args.json)
        path.write_text(json.dumps(result.to_json_dict(), indent=2))
        print(f"wrote {path}")
    if args.telemetry_out:
        from .obs.schema import ANOMALY_SCHEMA, validate

        out = Path(args.telemetry_out)
        out.mkdir(parents=True, exist_ok=True)
        report_path = out / "service_soak.json"
        report_path.write_text(
            json.dumps(result.to_json_dict(), indent=2)
        )
        lines = []
        for anomaly in result.anomalies:
            errors = validate(anomaly, ANOMALY_SCHEMA)
            if errors:
                print(f"telemetry schema violation: {errors}")
                return 1
            lines.append(json.dumps(anomaly, sort_keys=True))
        anomalies_path = out / "anomalies.jsonl"
        anomalies_path.write_text(
            "".join(line + "\n" for line in lines)
        )
        print(f"wrote {report_path} and {anomalies_path}")
        telemetry = _telemetry_for(args, tracing=False)
        telemetry.track_soak(result)
        _write_telemetry(telemetry, args)
    return 0 if result.ok else 1


def _cmd_netcalc_diff(args) -> int:
    from .oracle.netcalc import TOPOLOGIES, run_netcalc_campaign

    report = run_netcalc_campaign(
        args.trials,
        args.seed,
        tuple(args.topologies) if args.topologies else TOPOLOGIES,
    )
    print(report.summary())
    if args.json:
        import json
        from pathlib import Path

        path = Path(args.json)
        path.write_text(json.dumps(report.to_json_dict(), indent=2))
        print(f"wrote {path}")
    return 0 if report.ok else 1


def _cmd_netcalc_bounds(args) -> int:
    from .experiments.netcalc_bounds import (
        DEFAULT_CHECKPOINTS,
        netcalc_bound_rows,
        render_bounds_csv,
    )

    rows = netcalc_bound_rows(
        checkpoints=(
            tuple(args.checkpoints) if args.checkpoints
            else DEFAULT_CHECKPOINTS
        ),
    )
    if args.csv:
        from pathlib import Path

        path = Path(args.csv)
        path.write_text(render_bounds_csv(rows))
        print(f"wrote {path} ({len(rows)} rows)")
        return 0
    table = [
        [r.scheme, r.checkpoint, r.channel_id,
         f"{r.source}->{r.destination}", str(r.bound_slots),
         r.bound_ns, r.paper_bound_ns]
        for r in rows
    ]
    print(format_table(
        ["scheme", "offered", "channel", "path", "bound (slots)",
         "bound (ns)", "paper bound (ns)"],
        table,
        title="network-calculus bounds, Fig. 18.5 workload (trial 0)",
    ))
    return 0


def _format_attribution_table(attrs) -> str:
    rows = [
        [a.trace_id, a.subject, a.status, a.total_ns, a.queue_ns,
         a.wire_ns, a.processing_ns, a.backoff_ns, a.retries,
         f"{a.coverage:.3f}"]
        for a in attrs
    ]
    return format_table(
        ["trace", "source", "status", "total ns", "queue", "wire",
         "processing", "backoff", "retries", "coverage"],
        rows,
        title="per-request latency attribution",
    )


def _cmd_obs(args) -> int:
    if args.obs_command == "check":
        from .obs import validate_bundle

        errors = validate_bundle(args.bundle)
        if errors:
            for error in errors:
                print(f"SCHEMA ERROR: {error}")
            print(f"{len(errors)} schema error(s) in {args.bundle}")
            return 1
        print(f"bundle {args.bundle} conforms to the telemetry schemas")
        return 0

    if args.obs_command == "report":
        import json
        from pathlib import Path

        from .obs import span_from_dict, summarize_requests

        bundle = Path(args.bundle)
        spans_path = bundle / "spans.jsonl"
        if not spans_path.exists():
            print(f"repro obs report: no spans.jsonl in {bundle} "
                  "(capture with 'repro spans --out DIR')",
                  file=sys.stderr)
            return 2
        spans = [
            span_from_dict(json.loads(line))
            for line in spans_path.read_text().splitlines()
            if line
        ]
        by_name: dict[str, int] = {}
        for span in spans:
            by_name[span.name] = by_name.get(span.name, 0) + 1
        print(f"{len(spans)} spans in {spans_path}")
        for name in sorted(by_name):
            print(f"  {name}: {by_name[name]}")
        attrs = summarize_requests(spans)
        if attrs:
            print()
            print(_format_attribution_table(attrs))
        anomalies_path = bundle / "anomalies.jsonl"
        if anomalies_path.exists():
            by_invariant: dict[str, int] = {}
            for line in anomalies_path.read_text().splitlines():
                if line:
                    record = json.loads(line)
                    key = record.get("invariant", "?")
                    by_invariant[key] = by_invariant.get(key, 0) + 1
            total = sum(by_invariant.values())
            print(f"\n{total} anomalies")
            for name in sorted(by_invariant):
                print(f"  {name}: {by_invariant[name]}")
        dumps = sorted(bundle.glob("flight*.json"))
        for dump in dumps:
            reason = json.loads(dump.read_text()).get("reason", "?")
            print(f"flight dump {dump.name}: {reason}")
        return 0

    # capture: one fully instrumented validation run
    from .experiments.validation import run_validation
    from .obs import Telemetry, TelemetryConfig

    telemetry = Telemetry(TelemetryConfig(profile=args.profile))
    report = run_validation(
        n_masters=args.masters,
        n_slaves=args.slaves,
        n_requests=args.requests,
        hyperperiods=args.hyperperiods,
        seed=args.seed,
        use_wire_handshake=True,
        telemetry=telemetry,
    )
    written = telemetry.write(args.out)
    print(report.summary())
    for path in written.values():
        print(f"wrote {path}")
    print(
        "open trace.chrome.json at https://ui.perfetto.dev "
        "(or chrome://tracing) to browse the timeline"
    )
    return 0


def _cmd_spans(args) -> int:
    from .obs import Telemetry, TelemetryConfig, summarize_requests

    telemetry = Telemetry(TelemetryConfig(
        spans=True,
        monitor=True,
        measure_compute=True,
        flight_dir=args.out,
    ))
    if args.signal_loss is not None:
        from .experiments.robustness import run_signal_loss_robustness

        report = run_signal_loss_robustness(
            loss_rate=args.signal_loss,
            n_requests=args.requests,
            seed=args.seed,
            telemetry=telemetry,
        )
        print(report.summary())
    else:
        from .experiments.validation import run_validation

        report = run_validation(
            n_masters=args.masters,
            n_slaves=args.slaves,
            n_requests=args.requests,
            hyperperiods=args.hyperperiods,
            seed=args.seed,
            use_wire_handshake=True,
            telemetry=telemetry,
        )
        print(report.summary())
    attrs = summarize_requests(telemetry.spans)
    if args.summary and attrs:
        print()
        print(_format_attribution_table(attrs))
    anomalies = 0 if telemetry.monitor is None else len(
        telemetry.monitor.anomalies
    )
    worst = min((a.coverage for a in attrs), default=1.0)
    compute = sum(a.admission_compute_ns for a in attrs)
    print(
        f"\n{len(telemetry.spans)} spans, {len(attrs)} requests "
        f"attributed, worst coverage {worst:.3f}, admission compute "
        f"{compute} ns, {anomalies} anomalies"
    )
    if args.out:
        written = telemetry.write(args.out)
        for path in written.values():
            print(f"wrote {path}")
    if worst < args.min_coverage:
        print(
            f"ATTRIBUTION GAP: worst coverage {worst:.3f} < "
            f"--min-coverage {args.min_coverage}", file=sys.stderr,
        )
        return 1
    return 0


def _cmd_bench_report(args) -> int:
    import json
    from pathlib import Path

    from .obs import BENCH_SCHEMA, validate

    directory = Path(args.dir)
    paths = sorted(directory.glob("BENCH_*.json"))
    if not paths:
        print(f"repro bench-report: no BENCH_*.json in {directory}",
              file=sys.stderr)
        return 2
    baseline: dict[str, dict] = {}
    if args.baseline:
        for path in sorted(Path(args.baseline).glob("BENCH_*.json")):
            record = json.loads(path.read_text())
            baseline[record.get("name", path.stem)] = record
    errors = 0
    rows = []
    for path in paths:
        record = json.loads(path.read_text())
        for error in validate(record, BENCH_SCHEMA, str(path.name)):
            print(f"SCHEMA ERROR: {error}")
            errors += 1
        name = record.get("name", path.stem)
        wall = record.get("wall_s", 0.0)
        row = [
            name,
            len(record.get("tests", [])),
            f"{wall:.3f}",
            ("-" if record.get("throughput") is None
             else f"{record['throughput']:.0f}"),
            ("-" if record.get("overhead_pct") is None
             else f"{record['overhead_pct']:.1f}%"),
        ]
        if baseline:
            base = baseline.get(name)
            if base is None or not base.get("wall_s"):
                row.append("-")
            else:
                row.append(f"{wall / base['wall_s']:.2f}x")
        rows.append(row)
    headers = ["bench", "tests", "wall s", "throughput", "overhead"]
    if baseline:
        headers.append("vs baseline")
    print(format_table(headers, rows, title="benchmark artifacts"))
    return 1 if errors else 0


_COMMANDS = {
    "fig18-5": _cmd_fig18_5,
    "validate": _cmd_validate,
    "audit": _cmd_audit,
    "coexist": _cmd_coexist,
    "perf": _cmd_perf,
    "ablation": _cmd_ablation,
    "dps": _cmd_dps,
    "multiswitch": _cmd_multiswitch,
    "fabric-sweep": _cmd_fabric_sweep,
    "robustness": _cmd_robustness,
    "oracle": _cmd_oracle,
    "bench-admission": _cmd_bench_admission,
    "admission-diff": _cmd_admission_diff,
    "service-soak": _cmd_service_soak,
    "netcalc-diff": _cmd_netcalc_diff,
    "netcalc-bounds": _cmd_netcalc_bounds,
    "obs": _cmd_obs,
    "spans": _cmd_spans,
    "bench-report": _cmd_bench_report,
}


def _output_path_error(args) -> str | None:
    """Why an output option cannot be written, or None when all can.

    Checked before a command runs, so a bad path costs no run time:
    ``--csv``/``--json`` files need an existing parent directory, and a
    bundle directory (``--telemetry-out``, ``spans --out``, ``obs
    capture DIR``; created with its parents) must not sit under, or be,
    a plain file.
    """
    from pathlib import Path

    for option in ("csv", "json"):
        value = getattr(args, option, None)
        if not value:
            continue
        path = Path(value)
        if not path.parent.is_dir():
            return f"--{option} {value}: no directory {path.parent}"
        if path.is_dir():
            return f"--{option} {value}: is a directory"
    directories = [("--telemetry-out", getattr(args, "telemetry_out", None))]
    if args.command == "spans":
        directories.append(("--out", args.out))
    elif args.command == "obs" and args.obs_command == "capture":
        directories.append(("capture DIR", args.out))
    for option, value in directories:
        if not value:
            continue
        path = Path(value)
        existing = next(p for p in (path, *path.parents) if p.exists())
        if not existing.is_dir():
            return f"{option} {value}: {existing} is not a directory"
    return None


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    args = build_parser().parse_args(argv)
    error = _output_path_error(args)
    if error is not None:
        print(f"repro {args.command}: {error}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args)
    except ConfigurationError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
