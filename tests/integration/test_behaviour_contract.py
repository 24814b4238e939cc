"""Behaviour contract of the data plane: pinned digests and counts.

The event kernel, links, ports and switch models may be rewritten for
speed, but what they produce may not move by a byte. These cases pin:

* every file of a ``repro obs capture`` bundle (trace, Chrome trace,
  metrics, probe time series of a wire-handshake validation run), and
  the kernel profiler's per-label event counts under ``--profile``;
* ``repro spans --signal-loss 0.2``: its trace.jsonl and
  anomalies.jsonl, plus spans.jsonl with the host-measured
  ``compute_ns`` field masked (the only wall-clock field);
* the clean ``repro spans`` bundle CI captures: its trace.jsonl and
  its masked spans.jsonl (channel roots and every hop of RT frames);
* three small traced, spanned runs that reach the sites no bundle
  does: a star that overflows a one-frame best-effort buffer, corrupts
  frames on the wire, sends to an unknown node and sends on a grant
  the switch never admitted until its frames miss their uplink
  deadline; a star handshake that times out and then receives its late
  positive response, plus a retried one that receives a duplicate
  final response; a 3-switch chain that drops a best-effort frame and,
  after a release, a frame of the released channel. Across all pinned
  runs every data-plane trace category and span name appears;
* one k=4 fat-tree data-plane run: frames delivered, dispatched
  events, the final simulated clock, the per-link deadline misses and
  the per-frame delay samples;
* the dispatch stream itself: the ``(clock, label)`` of every event the
  kernel profiler hook sees, in order, on the untraced ``obs capture``
  star and on that fat-tree run (count and sha256);
* one traced three-switch chain run: its ``node.deliver`` records and
  its per-frame delay samples (timing through the fabric's end nodes);
* tracing does not move the data plane: a star and a chain run traced
  and untraced dispatch the same number of events and give equal
  delays, clocks and port counters (a port queues its wire-free wakeup
  only while a frame waits, traced or not);
* the service plane: the EXP-X4 two-switch intent-lock fabric at 20 %
  control loss (its ledger, coordinator states and checkpoints -- whose
  ``wire`` and ``outstanding`` entries carry encoded signalling frames
  -- plus its counters) and the single-switch admission service's
  ledger, both run to 120 ms with a 10 ms checkpoint period.

A digest that changes means the dispatch order ``(time, seq)``, an
event label or a trace record changed. Re-pin only with a stated
reason.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
from dataclasses import astuple

import pytest

from repro.cli import main
from repro.core.admission import AdmissionController, SystemState
from repro.core.channel import ChannelSpec
from repro.core.partitioning import AsymmetricDPS, SymmetricDPS
from repro.core.rt_layer import ChannelGrant
from repro.experiments.validation import run_validation
from repro.faults.plan import FaultPlan
from repro.multiswitch.graph import build_chain_graph, build_fat_tree
from repro.multiswitch.partitioning import MultiHopProportional
from repro.multiswitch.simnet import build_fabric_network
from repro.network.topology import build_star
from repro.obs import Telemetry, TelemetryConfig
from repro.obs.profiling import KernelProfiler
from repro.protocol.signaling import RetryPolicy
from repro.service import AdmissionService, ChurnConfig, ChurnProcess
from repro.service.intent import SharedLinkFabric
from repro.sim.rng import RngRegistry
from repro.traffic.patterns import master_slave_names, master_slave_requests
from repro.traffic.spec import FixedSpecSampler

_CAPTURE_DIGESTS = {
    # Re-pinned when tracing stopped queueing the wire-free wakeups no
    # frame waits for: trace.jsonl keeps 288 of its 612 link.idle
    # records and every other record is identical; metrics.json differs
    # only in kernel.dispatched_events (1670 -> 1346, the untraced
    # count) and kernel.max_heap_depth; the probe series and the Chrome
    # trace follow.
    "metrics.json":
        "41e960d5824c9dd9262d7c01aad2d46ab00dc3bc9753fa92d6f0917990affd6c",
    "timeseries.json":
        "2bf7ee677b5f46d69479d93dda9f05709c96a37f348fbeed765f0e1a6f4be520",
    "trace.chrome.json":
        "e34bb0ce16bc999c8ec3befbf40f6da6df14a1a4022c2441bbea9d0e302b2ffd",
    "trace.jsonl":
        "744e3d504cbce5e64976067812ecb6ef38592db23330786583e26cd45469f198",
}

#: The capture's event-queue high-water mark. It was 103 while a lease
#: timer cancelled by its ResponseFrame stayed queued (lazily) until its
#: 50 ms expiry, and 65 while tracing queued every wire-free wakeup; it
#: counts only events that will fire.
_CAPTURE_MAX_HEAP_DEPTH = 61

_SPANS_DIGESTS = {
    # trace.jsonl re-pinned with the capture's: 52 of its 301 link.idle
    # records remain, every other record is identical.
    "trace.jsonl":
        "6469a4b77b7d294513d4073b958128c82947327edd89e98efe5ca4dff58514a4",
    "anomalies.jsonl":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "spans.jsonl":
        "72a6234b0aa5cba80a8df405ac17a6bdaa7a5cb08c1df52c300b79364b598c95",
}

#: ``repro spans --masters 4 --slaves 12 --requests 40 --hyperperiods 2``
#: (the clean capture CI runs), ``compute_ns`` masked in spans.jsonl.
#: It is the ``obs capture`` run, so its trace.jsonl is the same file.
_CLEAN_SPANS_DIGESTS = {
    "trace.jsonl":
        "744e3d504cbce5e64976067812ecb6ef38592db23330786583e26cd45469f198",
    "spans.jsonl":
        "2d49c9b2fc111232a333ee002c4722bc8d192c31ded2cc539e583360c33315a5",
}

#: The three fault runs below: sha256 of their trace records and of
#: their spans, each as one JSON list. The record digests were
#: re-pinned when tracing stopped queueing the wire-free wakeups no
#: frame waits for: 12 of 26, 1 of 11 and 10 of 29 link.idle records
#: remain, every other record and every span is unchanged.
_FAULTY_STAR_DIGESTS = (
    "a5627578954bdcbca06dcaaf1103705a4e5cb34bbc1a3c76ad0c98cebc100efa",
    "10b04758ed128d205280f9dce46857b4ce3773f2915db15c5066e481f483205f",
)
_HANDSHAKE_DIGESTS = (
    "c2649dffd6288525b35961b75696621e3bbf92bc1797767d1ac716d295670f48",
    "88ce8c08fa3ac56113a7ec4fff3dee387f580c7e713117f5ac3248714c0b7772",
)
_CHAIN_DROP_DIGESTS = (
    "baf040297b3afa63967c78cc8d9b301498a7569551af5c781ca8a2aa6bbbe006",
    "83099ff1f8d45bbfdb8e9f89cf4c29b4421c0bff0279b3138f80eddf025d61b1",
)

#: Every trace category and span name the data plane writes.
_DATA_PLANE_CATEGORIES = frozenset({
    "rt.emit",
    "port.rt_enqueue", "port.be_enqueue", "port.be_drop",
    "port.rt_dequeue", "port.rt_miss",
    "link.start", "link.idle", "link.lost", "link.deliver",
    "switch.drop", "switch.signal", "fabric.drop",
    "node.deliver",
    "signal.request", "signal.retry", "signal.timeout", "signal.offer",
    "signal.stale", "signal.late_response_teardown", "signal.response",
    "signal.lease_reclaim",
})
_DATA_PLANE_SPANS = frozenset({
    "signal.request", "retry", "admission", "lease", "teardown",
    "channel", "queue", "wire", "processing", "lost", "dropped",
})

#: ``obs capture --profile``: (label, dispatched events) per profiler
#: row, traced or not. Only the wire-free wakeups that find a frame
#: waiting are queued; the traced rows read ("idle", 612) while tracing
#: queued every wakeup.
_PROFILE_ROWS = [
    ("deliver", 612), ("idle", 288), ("period", 76), ("probe", 26),
    ("process", 306), ("start", 38),
]

#: (channels established, RT frames delivered, events fired by run(),
#: lifetime dispatched events, final sim.now in ns, per-link misses)
_FAT_TREE_FACTS = (100, 1800, 22162, 22162, 73_824_000, 0)

#: The dispatch stream, ``(clock, label)`` per event in firing order:
#: (events, sha256 of one ``"<clock> <label>"`` line per event). The
#: star is the untraced ``obs capture`` run (probes included); the fat
#: tree is the pinned run below.
_STAR_STREAM = (
    1346, "2bf3a8adfdcab54fddf02fd67b1591b6289a2a5450aeb43e06f9ec4b9e004623"
)
_FAT_TREE_STREAM = (
    22162, "116e85fe8e7f292fd16c8448f7704d18db1f9c5a09a3446255087cb47f3b8217"
)

#: sha256 of the fat-tree run's ``metrics.delay_samples()`` as JSON.
_FAT_TREE_DELAYS = (
    "2ed303e9f2dd23e786ee0372b6c374823f2f896f102e916a4aee3fa69e47435f"
)

#: ``build_chain_graph(3, 2)``, four channels, four messages each:
#: sha256 of the ``node.deliver`` records and of the delay samples.
_CHAIN_DELIVER_DIGEST = (
    "291f30c4717b33288e1b10c0edac1a796cb24e709aa8fce033b8a05589a0b83c"
)
_CHAIN_DELAYS_DIGEST = (
    "3e941054493b3242c62594ce5bdc75525da5a121bc6b899cc1b590c760e41ccc"
)
_CHAIN_CHANNELS = (
    ("n0_0", "n2_0"), ("n0_1", "n2_1"), ("n2_0", "n0_1"), ("n1_0", "n1_1"),
)

#: Service-plane runs: seed, horizon and checkpoint period.
_SERVICE_SEED = 2004
_SERVICE_UNTIL_NS = 120_000_000
_SERVICE_CHECKPOINT_NS = 10_000_000

#: The lossy fabric: (ledger entries, sha256), sha256 of the
#: coordinators' export_state(), (checkpoints, sha256), and counters.
#: The coordinator and checkpoint digests were re-pinned when the
#: state no code read was trimmed (checkpoint version 2): intent
#: records lost "owner"; checkpoints lost "reserved_ids", the sender of
#: each "wire" entry, "src" and "kind" of each "outstanding" record and
#: the switch and departure time of each "active" entry. With those
#: dropped from the old files, both match them exactly.
_FABRIC_LEDGER = (
    425, "e327ff77e5f3ebce1ab2b33cb5410dd0c41fe0eae8a73712f73e442809b0ca66"
)
_FABRIC_COORDINATORS = (
    "662afec734278b2c75bfdcd37a87a51284fc146283251d568d0a3e8e191ca34e"
)
_FABRIC_CHECKPOINTS = (
    12, "09d54e23c507128c3e290ad601644cb9aae5321c7af2ea10d232f0ac26926b6d"
)
_FABRIC_COUNTERS = {
    "arrivals": 230, "commits": 14, "aborts": 167, "retransmissions": 213,
    "reconciliations": 2,
}

#: The admission service over m0..m5: (ledger entries, sha256).
_SERVICE_LEDGER = (
    247, "c4a3f9a72f821b3dc43a9bda9dd0d223166a3963c4a1d201b0e6e538d82c66d3"
)

_COMPUTE_NS = re.compile(rb'"compute_ns":[0-9]+')


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json(value) -> bytes:
    return json.dumps(value, sort_keys=True).encode()


def _run_cli(tmp_path_factory, name: str, argv: list[str]):
    """Run one CLI capture into a fresh directory; returns the path."""
    out = tmp_path_factory.mktemp(name)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def capture_dir(tmp_path_factory):
    return _run_cli(tmp_path_factory, "capture", ["obs", "capture"])


@pytest.fixture(scope="module")
def lossy_spans_dir(tmp_path_factory):
    return _run_cli(
        tmp_path_factory, "lossy",
        ["spans", "--signal-loss", "0.2", "--out"],
    )


@pytest.fixture(scope="module")
def clean_spans_dir(tmp_path_factory):
    return _run_cli(
        tmp_path_factory, "clean",
        ["spans", "--masters", "4", "--slaves", "12", "--requests", "40",
         "--hyperperiods", "2", "--out"],
    )


def _masked(path) -> bytes:
    return _COMPUTE_NS.sub(b'"compute_ns":0', path.read_bytes())


def test_obs_capture_bundle_is_pinned(capture_dir):
    assert sorted(p.name for p in capture_dir.iterdir()) == sorted(
        _CAPTURE_DIGESTS
    )
    for name, digest in _CAPTURE_DIGESTS.items():
        assert _sha256((capture_dir / name).read_bytes()) == digest, name
    metrics = json.loads((capture_dir / "metrics.json").read_text())
    (depth,) = metrics["kernel.max_heap_depth"]["series"]
    assert depth["value"] == _CAPTURE_MAX_HEAP_DEPTH


def test_profiled_capture_keeps_trace_and_label_rows(tmp_path, capsys):
    """The kernel profiler sees the same events under the same labels,
    and profiling does not perturb the trace."""
    assert main(["obs", "capture", str(tmp_path), "--profile"]) == 0
    capsys.readouterr()
    assert _sha256((tmp_path / "trace.jsonl").read_bytes()) == (
        _CAPTURE_DIGESTS["trace.jsonl"]
    )
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    rows = sorted(
        (series["labels"]["label"], series["value"])
        for series in metrics["kernel.profile.events"]["series"]
    )
    assert rows == _PROFILE_ROWS


def test_untraced_capture_label_rows():
    """``obs capture --profile``'s run with tracing off dispatches the
    same events under the same labels as the traced capture."""
    telemetry = Telemetry(TelemetryConfig(tracing=False, profile=True))
    run_validation(
        n_masters=4, n_slaves=12, n_requests=40, hyperperiods=2, seed=55,
        use_wire_handshake=True, telemetry=telemetry,
    )
    rows = sorted(
        (series["labels"]["label"], series["value"])
        for series in telemetry.snapshot()["kernel.profile.events"]["series"]
    )
    assert rows == _PROFILE_ROWS


def test_lossy_spans_bundle_is_pinned(lossy_spans_dir):
    for name, digest in _SPANS_DIGESTS.items():
        assert _sha256(_masked(lossy_spans_dir / name)) == digest, name


def test_clean_spans_bundle_is_pinned(clean_spans_dir):
    for name, digest in _CLEAN_SPANS_DIGESTS.items():
        assert _sha256(_masked(clean_spans_dir / name)) == digest, name


def _spanned() -> Telemetry:
    return Telemetry(TelemetryConfig(spans=True, probe_cadence_ns=None))


def _records(telemetry: Telemetry) -> tuple[list, list]:
    """A run's trace records and spans as JSON-ready lists."""
    return (
        [[r.time, r.category, r.subject, r.detail, r.fields]
         for r in telemetry.recorder],
        [span.as_dict() for span in telemetry.spans],
    )


@pytest.fixture(scope="module")
def faulty_star():
    """Buffer overflow, wire corruption, an unknown destination and RT
    frames on a grant the switch never admitted."""
    telemetry = _spanned()
    net = build_star(
        ["m0", "m1", "s0"], dps=SymmetricDPS(), be_buffer_frames=1,
        fault_plan=FaultPlan(seed=3, corruption=0.1), telemetry=telemetry,
    )
    spec = ChannelSpec(period=100, capacity=3, deadline=40)
    assert net.establish_analytically("m0", "s0", spec) is not None
    rogue = net.node("m1")
    rogue.rt_layer.install_grant(ChannelGrant(99, "m1", "s0", spec, 1))
    net.start_all_sources(stop_after_messages=3)
    for _ in range(2):
        rogue.send_message(99)
    for _ in range(3):
        net.node("s0").send_best_effort("m0", 200)
    net.node("s0").send_best_effort("nobody", 64)
    net.sim.run()
    assert rogue.uplink.stats.rt_link_deadline_misses > 0
    return _records(telemetry)


@pytest.fixture(scope="module")
def late_handshakes():
    """A request that times out before its positive response, and a
    retransmitted one whose second final response is a duplicate."""
    telemetry = _spanned()
    net = build_star(["m0", "s0", "s1"], telemetry=telemetry)
    spec = ChannelSpec(period=100, capacity=3, deadline=40)
    once = RetryPolicy(timeout_ns=20_000)
    assert net.establish("m0", "s0", spec, retry=once) is None
    retry = RetryPolicy(timeout_ns=20_000, max_retries=3)
    assert net.establish("m0", "s1", spec, retry=retry) is not None
    assert net.node("m0").signal_stale_frames == 1
    return _records(telemetry)


@pytest.fixture(scope="module")
def chain_drops():
    """A best-effort frame and, after a release, frames of the released
    channel reach fabric switches that have no route for them."""
    telemetry = _spanned()
    net = build_fabric_network(
        build_chain_graph(3, 2), MultiHopProportional(), telemetry=telemetry,
    )
    spec = ChannelSpec(period=100, capacity=3, deadline=60)
    channels = [
        net.establish(source, destination, spec)
        for source, destination in _CHAIN_CHANNELS[:2]
    ]
    net.start_all_sources(stop_after_messages=2)
    net.nodes["n0_0"].send_best_effort("n2_0", 100)
    net.sim.run(until=net.sim.now + 2 * net.phy.slot_ns)
    net.release(channels[0].channel_id)
    net.sim.run()
    return _records(telemetry)


@pytest.mark.parametrize(
    "run, digests",
    [
        ("faulty_star", _FAULTY_STAR_DIGESTS),
        ("late_handshakes", _HANDSHAKE_DIGESTS),
        ("chain_drops", _CHAIN_DROP_DIGESTS),
    ],
    ids=["faulty_star", "late_handshakes", "chain_drops"],
)
def test_fault_sites_are_pinned(run, digests, request):
    records, spans = request.getfixturevalue(run)
    assert (_sha256(_json(records)), _sha256(_json(spans))) == digests


def _jsonl(path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_pins_cover_every_data_plane_site(
    capture_dir, lossy_spans_dir, clean_spans_dir,
    faulty_star, late_handshakes, chain_drops,
):
    """A site that stops writing fails here by name, not only by digest."""
    records = [
        [r["time"], r["category"], r["subject"], r["detail"],
         r.get("fields")]
        for directory in (capture_dir, lossy_spans_dir, clean_spans_dir)
        for r in _jsonl(directory / "trace.jsonl")
    ]
    spans = [
        span
        for directory in (lossy_spans_dir, clean_spans_dir)
        for span in _jsonl(directory / "spans.jsonl")
    ]
    for run_records, run_spans in (faulty_star, late_handshakes, chain_drops):
        records += run_records
        spans += run_spans
    assert _DATA_PLANE_CATEGORIES - {r[1] for r in records} == set()
    assert _DATA_PLANE_SPANS - {span["name"] for span in spans} == set()
    # a corruption drop writes link.lost without fields, a targeted
    # rule's drop with its cause
    lost = {str(r[4]) for r in records if r[1] == "link.lost"}
    assert {"None", "{'cause': 'fault-plan'}"} <= lost


class _DispatchStream(KernelProfiler):
    """A profiler hook that keeps every dispatch's ``(clock, label)``."""

    def __init__(self) -> None:
        super().__init__()
        self.sim = None
        self.stream: list[tuple[int, str]] = []

    def account(self, label: str, wall_ns: int) -> None:
        self.stream.append((self.sim.now, label))

    def pin(self) -> tuple[int, str]:
        lines = "\n".join(f"{clock} {label}" for clock, label in self.stream)
        return len(self.stream), _sha256(lines.encode())


def _fat_tree_run(profiler=None):
    """The pinned k=4 fat-tree run; returns the net and events fired."""
    rng = random.Random(2004)
    net = build_fabric_network(
        build_fat_tree(4, hosts_per_edge=13), MultiHopProportional(),
        record_delays=True,
    )
    if profiler is not None:
        profiler.sim = net.sim
        net.sim.profiler = profiler
    names = sorted(net.nodes)
    spec = ChannelSpec(period=100, capacity=3, deadline=60)
    for _ in range(160):
        source, destination = rng.sample(names, 2)
        net.establish(source, destination, spec)
    net.start_all_sources(stop_after_messages=6)
    return net, net.sim.run()


def test_fat_tree_data_plane_is_pinned():
    """k=4 fat-tree, 104 hosts, seeded random pairs, mprop data plane.

    The two event counts were re-pinned from 26 116 to 22 162 when
    ports stopped queueing wire-free wakeups with no frame waiting: the
    3 954 wakeups dropped each found both queues empty and did nothing.
    Every event still fired keeps its ``(time, seq)``; channels, frames,
    the final clock, misses and the delay digest did not move.
    """
    net, fired = _fat_tree_run()
    assert (
        len(net.channels),
        net.metrics.total_rt_frames,
        fired,
        net.sim.dispatched_events,
        net.sim.now,
        net.per_link_misses(),
    ) == _FAT_TREE_FACTS
    assert _sha256(_json(net.metrics.delay_samples())) == _FAT_TREE_DELAYS


def test_chain_fabric_timing_is_pinned():
    """Per-frame timing through the fabric's end nodes on a 3-switch chain."""
    net = build_fabric_network(
        build_chain_graph(3, 2), MultiHopProportional(),
        trace_enabled=True, record_delays=True,
    )
    spec = ChannelSpec(period=100, capacity=3, deadline=60)
    for source, destination in _CHAIN_CHANNELS:
        assert net.establish(source, destination, spec) is not None
    net.start_all_sources(stop_after_messages=4)
    net.sim.run()
    delivered = [
        [r.time, r.subject, r.detail, r.fields]
        for r in net.trace.by_category("node.deliver")
    ]
    assert len(delivered) == 4 * 4 * spec.capacity
    assert _sha256(_json(delivered)) == _CHAIN_DELIVER_DIGEST
    assert _sha256(_json(net.metrics.delay_samples())) == _CHAIN_DELAYS_DIGEST


def test_star_dispatch_stream_is_pinned():
    """The untraced ``obs capture`` star fires the same events, at the
    same clocks, under the same labels, in the same order."""
    telemetry = Telemetry(TelemetryConfig(tracing=False, profile=True))
    recorder = telemetry.profiler = _DispatchStream()
    attach = telemetry.attach_simulator

    def attach_and_record(sim):
        recorder.sim = sim
        attach(sim)

    telemetry.attach_simulator = attach_and_record
    run_validation(
        n_masters=4, n_slaves=12, n_requests=40, hyperperiods=2, seed=55,
        use_wire_handshake=True, telemetry=telemetry,
    )
    assert recorder.pin() == _STAR_STREAM


def test_fat_tree_dispatch_stream_is_pinned():
    recorder = _DispatchStream()
    _, fired = _fat_tree_run(recorder)
    assert fired == _FAT_TREE_FACTS[2]
    assert recorder.pin() == _FAT_TREE_STREAM


def _star_outcome(trace_enabled: bool):
    """6 masters x 18 slaves, 80 wire-handshake requests, 5 messages."""
    masters, slaves = master_slave_names(6, 18)
    net = build_star(
        masters + slaves, dps=AsymmetricDPS(),
        trace_enabled=trace_enabled, record_delays=True,
    )
    requests = master_slave_requests(
        masters, slaves, 80, FixedSpecSampler.paper_default(),
        RngRegistry(55).stream("requests"),
    )
    for request in requests:
        net.establish(request.source, request.destination, request.spec)
    net.start_all_sources(stop_after_messages=5)
    net.sim.run()
    ports = [node.uplink for node in net.nodes.values()]
    ports += list(net.switch.ports.values())
    return net.sim.dispatched_events, (
        net.metrics.delay_samples(),
        net.sim.now,
        [grant.channel_id for grant in net.grants],
        [astuple(port.stats) for port in ports],
    )


def _chain_outcome(trace_enabled: bool):
    net = build_fabric_network(
        build_chain_graph(3, 2), MultiHopProportional(),
        trace_enabled=trace_enabled, record_delays=True,
    )
    spec = ChannelSpec(period=100, capacity=3, deadline=60)
    for source, destination in _CHAIN_CHANNELS:
        assert net.establish(source, destination, spec) is not None
    net.start_all_sources(stop_after_messages=4)
    net.sim.run()
    ports = [node.uplink for node in net.nodes.values()]
    ports += [p for switch in net.switches.values()
              for p in switch.ports.values()]
    return net.sim.dispatched_events, (
        net.metrics.delay_samples(),
        net.sim.now,
        [astuple(port.stats) for port in ports],
    )


@pytest.mark.parametrize(
    "outcome", [_star_outcome, _chain_outcome], ids=["star", "chain"]
)
def test_tracing_does_not_move_the_data_plane(outcome):
    """Tracing queues no event of its own: ports queue a wire-free
    wakeup only while a frame waits, traced or not, and ``link.idle``
    records the wakeups that fire. So the traced and untraced runs
    dispatch the same events and give equal delays, clocks, grants and
    port counters."""
    traced_events, traced = outcome(True)
    untraced_events, untraced = outcome(False)
    assert untraced == traced
    assert untraced_events == traced_events


def test_lossy_intent_fabric_is_pinned():
    """EXP-X4's fabric: intent lock, gossip and retransmission over a
    control bus losing 20 % of frames; checkpoints hold wire bytes."""
    fabric = SharedLinkFabric(
        n_switches=2,
        nodes_per_switch=4,
        seed=_SERVICE_SEED,
        fault_plan=FaultPlan.control_loss(0.2, seed=_SERVICE_SEED),
        checkpoint_every_ns=_SERVICE_CHECKPOINT_NS,
    )
    fabric.start()
    fabric.run_until(_SERVICE_UNTIL_NS)
    assert (len(fabric.ledger), _sha256(_json(fabric.ledger))) == (
        _FABRIC_LEDGER
    )
    assert _sha256(
        _json([c.export_state() for c in fabric.coordinators])
    ) == _FABRIC_COORDINATORS
    assert (
        len(fabric.checkpoints), _sha256(_json(fabric.checkpoints))
    ) == _FABRIC_CHECKPOINTS
    assert all(c["wire"] and c["outstanding"] for c in fabric.checkpoints)
    assert {
        key: fabric.counters[key] for key in _FABRIC_COUNTERS
    } == _FABRIC_COUNTERS


def test_admission_service_ledger_is_pinned():
    nodes = tuple(f"m{i}" for i in range(6))
    service = AdmissionService(
        AdmissionController(SystemState(nodes), SymmetricDPS()),
        ChurnProcess(RngRegistry(_SERVICE_SEED), ChurnConfig(nodes=nodes)),
        checkpoint_every_ns=_SERVICE_CHECKPOINT_NS,
    )
    service.start()
    service.run_until(_SERVICE_UNTIL_NS)
    assert (len(service.ledger), _sha256(_json(service.ledger))) == (
        _SERVICE_LEDGER
    )
