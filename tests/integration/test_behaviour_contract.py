"""Behaviour contract of the data plane: pinned digests and counts.

The event kernel, links, ports and switch models may be rewritten for
speed, but what they produce may not move by a byte. These cases pin:

* every file of a ``repro obs capture`` bundle (trace, Chrome trace,
  metrics, probe time series of a wire-handshake validation run), and
  the kernel profiler's per-label event counts under ``--profile``;
* ``repro spans --signal-loss 0.2``: its trace.jsonl and
  anomalies.jsonl, plus spans.jsonl with the host-measured
  ``compute_ns`` field masked (the only wall-clock field);
* one k=4 fat-tree data-plane run: frames delivered, dispatched
  events, the final simulated clock, the per-link deadline misses and
  the per-frame delay samples;
* the dispatch stream itself: the ``(clock, label)`` of every event the
  kernel profiler hook sees, in order, on the untraced ``obs capture``
  star and on that fat-tree run (count and sha256);
* one traced three-switch chain run: its ``node.deliver`` records and
  its per-frame delay samples (timing through the fabric's end nodes);
* tracing does not move the data plane: a star and a chain run traced
  and untraced give equal delays, clocks and port counters, though the
  untraced run dispatches fewer events (it queues a port's wire-free
  wakeup only while a frame waits; ``link.idle`` tracing queues all);
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

import hashlib
import json
import random
import re
from dataclasses import astuple

import pytest

from repro.cli import main
from repro.core.admission import AdmissionController, SystemState
from repro.core.channel import ChannelSpec
from repro.core.partitioning import AsymmetricDPS, SymmetricDPS
from repro.experiments.validation import run_validation
from repro.faults.plan import FaultPlan
from repro.multiswitch.graph import build_chain_graph, build_fat_tree
from repro.multiswitch.partitioning import MultiHopProportional
from repro.multiswitch.simnet import build_fabric_network
from repro.network.topology import build_star
from repro.obs import Telemetry, TelemetryConfig
from repro.obs.profiling import KernelProfiler
from repro.service import AdmissionService, ChurnConfig, ChurnProcess
from repro.service.intent import SharedLinkFabric
from repro.sim.rng import RngRegistry
from repro.traffic.patterns import master_slave_names, master_slave_requests
from repro.traffic.spec import FixedSpecSampler

_CAPTURE_DIGESTS = {
    # Re-pinned when cancelled lease timers began leaving the queue at
    # once: the one value that moved is kernel.max_heap_depth (below).
    "metrics.json":
        "c54400116278b41684185651d376d08bca1051ead0d35e709749534d387f1ad0",
    "timeseries.json":
        "e502cfa02ecca5ea2a792842c4ac8ea237e1744866f725c5a091c2bfff81aab4",
    "trace.chrome.json":
        "37166fc661083787ff7a6a801bbe80e01f11a70c048c3b2b6893df028becfd24",
    "trace.jsonl":
        "9cc7210c90b397abfa6c9f2512ca07cf38479580f862cccd068b08fd50091095",
}

#: The capture's event-queue high-water mark. It was 103 while a lease
#: timer cancelled by its ResponseFrame stayed queued (lazily) until its
#: 50 ms expiry; it counts only events that will fire.
_CAPTURE_MAX_HEAP_DEPTH = 65

_SPANS_DIGESTS = {
    "trace.jsonl":
        "08b3b82d09e356a65af33e680c7c4e45cce71609506508d0dd55bd347156d33c",
    "anomalies.jsonl":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "spans.jsonl":
        "72a6234b0aa5cba80a8df405ac17a6bdaa7a5cb08c1df52c300b79364b598c95",
}

#: ``obs capture --profile``: (label, dispatched events) per profiler row.
_PROFILE_ROWS = [
    ("deliver", 612), ("idle", 612), ("period", 76), ("probe", 26),
    ("process", 306), ("start", 38),
]

#: The same run with tracing off (``TelemetryConfig(tracing=False)``):
#: ``link.idle`` is not recorded, so only the wire-free wakeups that
#: found a frame waiting are queued; every other label is unchanged.
_UNTRACED_PROFILE_ROWS = [
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
_FABRIC_LEDGER = (
    425, "e327ff77e5f3ebce1ab2b33cb5410dd0c41fe0eae8a73712f73e442809b0ca66"
)
_FABRIC_COORDINATORS = (
    "c30d5122e21577eba9ae7db32416ffe420b1ad86cdc7ced3c975944ecb502021"
)
_FABRIC_CHECKPOINTS = (
    12, "76b0baa799383139249fa4152adba97f88cb170b8939daabd13fad120e562120"
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


def test_obs_capture_bundle_is_pinned(tmp_path, capsys):
    assert main(["obs", "capture", str(tmp_path)]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        _CAPTURE_DIGESTS
    )
    for name, digest in _CAPTURE_DIGESTS.items():
        assert _sha256((tmp_path / name).read_bytes()) == digest, name
    metrics = json.loads((tmp_path / "metrics.json").read_text())
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
    """``obs capture --profile``'s run with tracing off: the idle
    wakeups that find both queues empty are never queued."""
    telemetry = Telemetry(TelemetryConfig(tracing=False, profile=True))
    run_validation(
        n_masters=4, n_slaves=12, n_requests=40, hyperperiods=2, seed=55,
        use_wire_handshake=True, telemetry=telemetry,
    )
    rows = sorted(
        (series["labels"]["label"], series["value"])
        for series in telemetry.snapshot()["kernel.profile.events"]["series"]
    )
    assert rows == _UNTRACED_PROFILE_ROWS


def test_lossy_spans_bundle_is_pinned(tmp_path, capsys):
    argv = ["spans", "--signal-loss", "0.2", "--out", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    for name, digest in _SPANS_DIGESTS.items():
        data = _COMPUTE_NS.sub(
            b'"compute_ns":0', (tmp_path / name).read_bytes()
        )
        assert _sha256(data) == digest, name


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
    """Tracing queues every wire-free wakeup (``link.idle`` records each
    idle instant); untraced ports queue only those a waiting frame
    needs. The extra wakeups find both queues empty, so delays, the
    clock, grants and port counters stay equal."""
    traced_events, traced = outcome(True)
    untraced_events, untraced = outcome(False)
    assert untraced == traced
    assert untraced_events < traced_events


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
