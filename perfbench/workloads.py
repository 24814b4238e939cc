"""The four benchmark workloads.

Each workload is a closed loop with one client: a round starts only
after the previous one has finished and been checked. Round ``r`` draws
its inputs from ``RngRegistry(seed).fork(r)`` (the soak draws one fresh
registry per epoch, see :class:`ServiceSoak`), so the same seed always
gives the same inputs.

A workload splits a round into three calls, and the harness times only
the middle one:

* :meth:`Workload.prepare` builds what the round needs -- topology,
  network or fabric, and the request stream. The benchmark's
  ``setup_s`` is the time of ``prepare(0)`` on a fresh workload;
* :meth:`Workload.run` is the timed work. It also times the regions
  behind ``decisions_per_s`` and the individually timed operations
  behind ``op_p50_us``/``op_p99_us``;
* :meth:`Workload.settle` checks the outputs against independent
  references and reads the public counters the per-layer ledger needs.
  Every failed check is returned as a message; the harness then counts
  the round's operations as failed.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from time import perf_counter_ns

from repro.core.admission import AdmissionController, SystemState
from repro.core.channel import ChannelSpec
from repro.core.feasibility import is_feasible_naive
from repro.core.partitioning import AsymmetricDPS, SymmetricDPS
from repro.faults.plan import FaultPlan
from repro.multiswitch.admission import MultiSwitchAdmission
from repro.multiswitch.graph import build_fat_tree
from repro.multiswitch.partitioning import (
    MultiHopProportional,
    MultiHopSymmetric,
)
from repro.multiswitch.simnet import build_fabric_network
from repro.network.topology import build_star
from repro.obs.monitor import InvariantMonitor
from repro.service import (
    AdmissionService,
    ChurnConfig,
    ChurnProcess,
    SharedLinkFabric,
    resume,
)
from repro.sim.rng import RngRegistry
from repro.traffic.patterns import master_slave_names, master_slave_requests
from repro.traffic.spec import FixedSpecSampler

__all__ = ["RoundResult", "Workload", "WORKLOADS"]

#: The paper's star: 10 masters, 50 slaves, every channel C=3 P=100 d=40.
MASTERS, SLAVES = master_slave_names(10, 50)
STAR_NODES = MASTERS + SLAVES
PAPER_SPEC = ChannelSpec(period=100, capacity=3, deadline=40)
SAMPLER = FixedSpecSampler(PAPER_SPEC)

#: The fat-tree sweep's spec (EXP-X3): six hops need a looser deadline.
FABRIC_SPEC = ChannelSpec(period=100, capacity=3, deadline=60)


@dataclass
class RoundResult:
    """What one round did, as the harness aggregates it."""

    #: operations attempted (all failed if a check fails)
    ops: int
    #: decisions behind ``decisions_per_s`` and the host time they took
    #: (0 = the whole round)
    decisions: int
    decide_ns: int
    #: host time of each individually timed operation
    op_ns: list[int]
    accepted: int
    offered: int
    #: deterministic outcome; the traced run must reproduce it
    facts: tuple
    failures: list[str] = field(default_factory=list)
    #: defects found that do not fail the round (reported, not gated)
    warnings: list[str] = field(default_factory=list)
    #: public counters for the per-layer ledger
    counters: dict = field(default_factory=dict)
    #: host time of :meth:`Workload.run` and the host-speed factor that
    #: normalises it, filled in by the harness
    wall_ns: int = 0
    scale: float = 1.0


def _digest(value) -> int:
    return zlib.crc32(repr(value).encode())


def _cache_stats(*caches) -> dict:
    totals: dict[str, int] = {}
    for cache in caches:
        if cache is None:
            continue
        for key, value in cache.stats.as_dict().items():
            totals[key] = totals.get(key, 0) + value
    return {"cache": totals}


def _port_counters(ports, sim) -> dict:
    ports = list(ports)
    return {
        "sim_events": sim.dispatched_events,
        "sim_max_heap_depth": sim.max_heap_depth,
        "rt_queue_wait_ns": sum(
            p.stats.rt_queueing_delay_total_ns for p in ports
        ),
        "rt_transmitted": sum(p.stats.rt_transmitted for p in ports),
        "rt_backlog_max": max((p.stats.rt_backlog_max for p in ports),
                              default=0),
    }


def _delivery_failures(metrics, per_link_misses, grants, messages,
                       max_deadline_slots, slot_ns) -> list[str]:
    """Eq. 18.1 checks on one finished data-plane run."""
    failures = []
    if metrics.total_deadline_misses:
        failures.append(
            f"{metrics.total_deadline_misses} end-to-end deadline misses"
        )
    if per_link_misses:
        failures.append(f"{per_link_misses} per-link deadline misses")
    bound = max_deadline_slots * slot_ns + metrics.t_latency_ns
    if metrics.worst_rt_delay_ns > bound:
        failures.append(
            f"worst delay {metrics.worst_rt_delay_ns} ns exceeds the "
            f"Eq. 18.1 bound {bound} ns"
        )
    if metrics.total_rt_messages != grants * messages:
        failures.append(
            f"{metrics.total_rt_messages} messages delivered, expected "
            f"{grants} grants x {messages}"
        )
    return failures


class Workload:
    """Interface shared by the four workloads."""

    name = ""
    #: rounds of the timed pass: a fixed count, so that every commit
    #: measures the same inputs on the same seed
    rounds = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def prepare(self, r: int):
        raise NotImplementedError

    def run(self, inputs):
        raise NotImplementedError

    def settle(self, inputs, outcome) -> RoundResult:
        raise NotImplementedError


class Fig185Admission(Workload):
    """W1: the Fig. 18.5 sweep, decided twice (burst and scalar)."""

    name = "fig185-admission"
    rounds = 32
    TRIALS = 20
    REQUESTS = 200
    SEGMENT = 20  # the figure's checkpoint spacing

    def prepare(self, r):
        registry = RngRegistry(self.seed).fork(r)
        return [
            [
                (q.source, q.destination, q.spec)
                for q in master_slave_requests(
                    MASTERS, SLAVES, self.REQUESTS, SAMPLER,
                    registry.fork(trial).stream("requests"),
                )
            ]
            for trial in range(self.TRIALS)
        ]

    def run(self, trials):
        clock = perf_counter_ns
        decide_ns = 0
        op_ns: list[int] = []
        record = op_ns.append
        runs = []
        for requests in trials:
            for scheme in (SymmetricDPS, AsymmetricDPS):
                batch = AdmissionController(SystemState(STAR_NODES), scheme())
                batch_decisions = []
                for start in range(0, len(requests), self.SEGMENT):
                    segment = requests[start:start + self.SEGMENT]
                    began = clock()
                    batch_decisions.extend(batch.admit_many(segment))
                    decide_ns += clock() - began
                scalar = AdmissionController(
                    SystemState(STAR_NODES), scheme()
                )
                request = scalar.request
                scalar_decisions = []
                keep = scalar_decisions.append
                for source, destination, spec in requests:
                    began = clock()
                    decision = request(source, destination, spec)
                    record(clock() - began)
                    keep(decision)
                runs.append((batch, batch_decisions, scalar, scalar_decisions))
        return decide_ns, op_ns, runs

    @staticmethod
    def _stream(decisions):
        return [
            (d.accepted, d.reason, d.channel.channel_id, d.partition)
            for d in decisions
        ]

    def settle(self, trials, outcome):
        decide_ns, op_ns, runs = outcome
        failures: list[str] = []
        checkpoints = range(self.SEGMENT, self.REQUESTS + 1, self.SEGMENT)
        curves = {SymmetricDPS: [0] * len(checkpoints),
                  AsymmetricDPS: [0] * len(checkpoints)}
        accepted = 0
        facts = []
        for index, (batch, batch_d, scalar, scalar_d) in enumerate(runs):
            label = f"trial {index // 2} {batch.dps.name}"
            if self._stream(batch_d) != self._stream(scalar_d):
                failures.append(f"{label}: admit_many and request() differ")
            state = batch.state
            for link in state.occupied_links():
                if not is_feasible_naive(state.tasks_on(link)).feasible:
                    failures.append(f"{label}: {link} fails the naive test")
            running = 0
            curve = curves[type(batch.dps)]
            for offered, decision in enumerate(batch_d, start=1):
                running += decision.accepted
                if offered % self.SEGMENT == 0:
                    curve[offered // self.SEGMENT - 1] += running
            accepted += running
            facts.append(running)
        for point, (sdps, adps) in enumerate(
            zip(curves[SymmetricDPS], curves[AsymmetricDPS])
        ):
            if adps < sdps:
                failures.append(
                    f"mean ADPS below mean SDPS at {checkpoints[point]} "
                    "requests"
                )
        offered = self.TRIALS * 2 * self.REQUESTS
        caches = [c.cache for run in runs for c in (run[0], run[2])]
        return RoundResult(
            ops=2 * offered,
            decisions=offered,
            decide_ns=decide_ns,
            op_ns=op_ns,
            accepted=accepted,
            offered=offered,
            facts=tuple(facts),
            failures=failures,
            counters=_cache_stats(*caches),
        )


class StarDataplane(Workload):
    """W2: wire handshakes, then every channel at the critical instant."""

    name = "star-dataplane"
    rounds = 25
    REQUESTS = 200
    MESSAGES = 50

    def prepare(self, r):
        stream = RngRegistry(self.seed).fork(r).stream("requests")
        requests = master_slave_requests(
            MASTERS, SLAVES, self.REQUESTS, SAMPLER, stream
        )
        return build_star(STAR_NODES, dps=AsymmetricDPS()), requests

    def run(self, inputs):
        net, requests = inputs
        clock = perf_counter_ns
        op_ns = []
        for q in requests:
            began = clock()
            net.establish(q.source, q.destination, q.spec)
            op_ns.append(clock() - began)
        net.start_all_sources(stop_after_messages=self.MESSAGES)
        sim_start = net.sim.now
        began = clock()
        events = net.sim.run()
        run_ns = clock() - began
        return op_ns, run_ns, events, net.sim.now - sim_start

    def settle(self, inputs, outcome):
        net, requests = inputs
        op_ns, run_ns, events, sim_ns = outcome
        ports = [n.uplink for n in net.nodes.values() if n.uplink is not None]
        ports += list(net.switch.ports.values())
        grants = len(net.grants)
        failures = _delivery_failures(
            net.metrics,
            sum(p.stats.rt_link_deadline_misses for p in ports),
            grants,
            self.MESSAGES,
            max((g.spec.deadline for g in net.grants), default=0),
            net.phy.slot_ns,
        )
        frames = net.metrics.total_rt_frames
        counters = {
            "run_ns": run_ns,
            "sim_ns": sim_ns,
            "frames": frames,
            **_port_counters(ports, net.sim),
            **_cache_stats(net.admission.cache),
        }
        return RoundResult(
            ops=len(requests),
            decisions=len(requests),
            decide_ns=sum(op_ns),
            op_ns=op_ns,
            accepted=grants,
            offered=len(requests),
            facts=(grants, frames, events, net.sim.now,
                   net.sim.dispatched_events),
            failures=failures,
            counters=counters,
        )


class FattreeFabric(Workload):
    """W3: k=4 fat-tree admission (msym, mprop) plus the mprop data plane."""

    name = "fattree-fabric"
    rounds = 14
    K = 4
    HOSTS_PER_EDGE = 13  # 104 hosts, the EXP-X3 density
    REQUESTS = 400
    SEGMENTS = 10
    MESSAGES = 20

    def _graph(self):
        return build_fat_tree(self.K, hosts_per_edge=self.HOSTS_PER_EDGE)

    def prepare(self, r):
        # Admission gets a graph of its own, with a cold route cache, so
        # ECMP routing is part of the timed round; the network's graph
        # is warmed by its own construction.
        graph = self._graph()
        names = graph.node_order
        stream = RngRegistry(self.seed).fork(r).stream("fabric-requests")
        pairs = []
        for _ in range(self.REQUESTS):
            i = int(stream.integers(0, len(names)))
            j = int(stream.integers(0, len(names) - 1))
            pairs.append((names[i], names[j + (j >= i)]))
        requests = [(s, d, FABRIC_SPEC) for s, d in pairs]
        began = perf_counter_ns()
        net = build_fabric_network(self._graph(), MultiHopProportional())
        build_ns = perf_counter_ns() - began
        admissions = [
            MultiSwitchAdmission(fabric=graph, dps=scheme())
            for scheme in (MultiHopSymmetric, MultiHopProportional)
        ]
        return admissions, net, requests, build_ns

    def run(self, inputs):
        admissions, net, requests, _ = inputs
        clock = perf_counter_ns
        step = len(requests) // self.SEGMENTS
        decide_ns = 0
        streams = []
        for admission in admissions:
            decisions = []
            for start in range(0, len(requests), step):
                began = clock()
                decisions.extend(
                    admission.admit_many(requests[start:start + step])
                )
                decide_ns += clock() - began
            streams.append(decisions)
        op_ns = []
        established = []
        for source, destination, spec in requests:
            began = clock()
            established.append(net.establish(source, destination, spec))
            op_ns.append(clock() - began)
        net.start_all_sources(stop_after_messages=self.MESSAGES)
        sim_start = net.sim.now
        began = clock()
        events = net.sim.run()
        run_ns = clock() - began
        return (decide_ns, streams, op_ns, established, run_ns, events,
                net.sim.now - sim_start)

    def settle(self, inputs, outcome):
        admissions, net, requests, build_ns = inputs
        (decide_ns, streams, op_ns, established, run_ns, events,
         sim_ns) = outcome
        mprop_set = [i for i, d in enumerate(streams[1]) if d.accepted]
        net_set = [i for i, c in enumerate(established) if c is not None]
        failures = []
        if mprop_set != net_set:
            failures.append(
                "mprop admit_many accepts a different set than "
                "FabricNetwork.establish"
            )
        ports = [n.uplink for n in net.nodes.values() if n.uplink is not None]
        ports += [p for s in net.switches.values() for p in s.ports.values()]
        failures += _delivery_failures(
            net.metrics,
            net.per_link_misses(),
            len(net.channels),
            self.MESSAGES,
            max((c.spec.deadline for c in net.channels), default=0),
            net.phy.slot_ns,
        )
        accepted = [sum(d.accepted for d in s) for s in streams]
        frames = net.metrics.total_rt_frames
        caches = [getattr(a, "_cache", None)
                  for a in (*admissions, net.admission)]
        counters = {
            "run_ns": run_ns,
            "sim_ns": sim_ns,
            "frames": frames,
            "build_ns": build_ns,
            **_port_counters(ports, net.sim),
            **_cache_stats(*caches),
        }
        offered = len(requests) * len(streams)
        return RoundResult(
            ops=offered + len(requests),
            decisions=offered,
            decide_ns=decide_ns,
            op_ns=op_ns,
            accepted=sum(accepted),
            offered=offered,
            facts=(*accepted, len(net_set), frames, events, net.sim.now),
            failures=failures,
            counters=counters,
        )


class _Soak:
    """One epoch of EXP-X4: the lossy two-switch fabric plus the
    single-switch service, advanced side by side."""

    LOSS = 0.2
    CHECKPOINT_NS = 10_000_000
    SERVICE_NODES = tuple(f"m{i}" for i in range(6))

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.fabric = SharedLinkFabric(
            n_switches=2,
            nodes_per_switch=4,
            seed=seed,
            fault_plan=self._plan(),
            checkpoint_every_ns=self.CHECKPOINT_NS,
        )
        self.config = ChurnConfig(nodes=self.SERVICE_NODES)
        self.service = AdmissionService(
            AdmissionController(SystemState(self.SERVICE_NODES),
                                SymmetricDPS()),
            ChurnProcess(RngRegistry(seed), self.config),
            checkpoint_every_ns=self.CHECKPOINT_NS,
        )
        self.fabric.start()
        self.service.start()
        #: channel id -> announce time of its unresolved intent
        self.announced: dict[int, int] = {}

    def _plan(self) -> FaultPlan:
        return FaultPlan.control_loss(self.LOSS, seed=self.seed)

    def commit_latencies(self, entries) -> list[int]:
        """Announce->commit sim time of each commit among ``entries``."""
        out = []
        for entry in entries:
            kind = entry[0]
            if kind == "announce":
                self.announced[entry[3]] = entry[1]
            elif kind == "commit":
                out.append(entry[1] - self.announced.pop(entry[3]))
            elif kind == "abort":
                self.announced.pop(entry[3], None)
        return out

    def replay(self, start_ns: int, end_ns: int) -> tuple[list[str], int]:
        """Replay ``[start_ns, end_ns]`` from the checkpoints taken at
        ``start_ns``; return the differences found and the resume time."""
        failures = []
        fabric, service = self.fabric, self.service
        opening = [c for c in fabric.checkpoints if c["now_ns"] == start_ns]
        svc_opening = [c for c in service.checkpoints
                       if c.taken_at_ns == start_ns]
        if not opening or not svc_opening:
            return [f"no checkpoint at {start_ns} ns to replay from"], 0
        began = perf_counter_ns()
        fabric_copy = SharedLinkFabric.resume(
            json.loads(json.dumps(opening[0])),
            fault_plan=self._plan(),
            checkpoint_every_ns=self.CHECKPOINT_NS,
        )
        svc_data = json.loads(json.dumps(svc_opening[0].data))
        service_copy = resume(svc_data, SymmetricDPS(),
                              RngRegistry(self.seed), self.config)
        resume_ns = perf_counter_ns() - began
        fabric_copy.run_until(end_ns)
        service_copy.run_until(end_ns)
        suffix = fabric.ledger[opening[0]["ledger_len"]:]
        if [list(e) for e in suffix] != [list(e) for e in fabric_copy.ledger]:
            failures.append("replayed fabric ledger differs")
        if json.dumps([c.export_state() for c in fabric.coordinators],
                      sort_keys=True) != \
                json.dumps([c.export_state() for c in fabric_copy.coordinators],
                           sort_keys=True):
            failures.append("replayed coordinator states differ")
        svc_suffix = service.ledger[svc_data["ledger_len"] + 1:]
        if [list(e) for e in svc_suffix] != \
                [list(e) for e in service_copy.ledger]:
            failures.append("replayed service ledger differs")
        if service.final_state_json() != service_copy.final_state_json():
            failures.append("replayed service state differs")
        return failures, resume_ns

    def close(self) -> tuple[list[str], dict]:
        """Quiesce the fabric, then audit the shared trunk.

        A leaked reservation fails the round. Double-booked and
        unconverged trunks are counted instead: at 20 % control loss the
        intent lock leaves views unconverged in most epochs and, in
        epochs this long, sometimes double-books (see README.md).
        """
        self.fabric.quiesce()
        monitor = InvariantMonitor()
        monitor.check_shared_links(
            self.fabric, self.fabric.now, require_converged=True
        )
        found = [a["invariant"] for a in monitor.anomalies]
        leaked = self.fabric.leaked_reservations()
        failures = [f"leaked reservations {leaked}"] if leaked else []
        return failures, {
            "double_bookings": found.count("shared-link-double-book"),
            "unconverged_trunks": found.count("shared-link-divergence"),
        }


class ServiceSoak(Workload):
    """W4: EXP-X4 as a long-lived run, 400 ms of simulated time a round.

    Rounds come in epochs of :attr:`EPOCH` rounds; each epoch is one
    soak seeded from ``RngRegistry(seed).fork(epoch)``, and a run is a
    whole number of epochs. An epoch ends by replaying its last round
    from the checkpoints that opened it, then quiescing the fabric and
    checking the shared-link invariants.
    """

    name = "service-soak"
    EPOCH = 5
    rounds = 7 * EPOCH
    ROUND_NS = 400_000_000
    STEP_NS = 10_000_000  # one timed operation: the checkpoint spacing

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.soak: _Soak | None = None

    def prepare(self, r):
        epoch, k = divmod(r, self.EPOCH)
        if k == 0:
            self.soak = _Soak(RngRegistry(self.seed).fork(epoch).seed)
        soak = self.soak
        fabric, service = soak.fabric, soak.service
        before = {
            "ledger": len(fabric.ledger),
            "service_ledger": len(service.ledger),
            "fabric": dict(fabric.counters),
            "service": dict(service.counters),
            "seen": sum(fabric.plan.seen.values()),
            "drops": fabric.plan.total_drops,
            "events": service.sim.dispatched_events,
        }
        return soak, k, before

    def run(self, inputs):
        soak, k, _ = inputs
        fabric_run = soak.fabric.run_until
        service_run = soak.service.run_until
        clock = perf_counter_ns
        op_ns = []
        start = k * self.ROUND_NS
        for until in range(start + self.STEP_NS, start + self.ROUND_NS + 1,
                           self.STEP_NS):
            began = clock()
            fabric_run(until)
            service_run(until)
            op_ns.append(clock() - began)
        return op_ns

    def settle(self, inputs, op_ns):
        soak, k, before = inputs
        fabric, service = soak.fabric, soak.service
        f = {key: fabric.counters[key] - before["fabric"][key]
             for key in fabric.counters}
        s = {key: service.counters[key] - before["service"][key]
             for key in service.counters}
        entries = fabric.ledger[before["ledger"]:]
        counters = {
            "sim_ns": self.ROUND_NS,
            "sim_events": service.sim.dispatched_events - before["events"],
            "sim_max_heap_depth": service.sim.max_heap_depth,
            "fabric_arrivals": f["arrivals"],
            "commits": f["commits"],
            "announces": f["arrivals"] - f["local_rejects"],
            "retransmissions": f["retransmissions"],
            "commit_ns": soak.commit_latencies(entries),
            "drops": fabric.plan.total_drops - before["drops"],
            "frames_seen": sum(fabric.plan.seen.values()) - before["seen"],
            "checkpoint_bytes": len(json.dumps(fabric.checkpoints[-1]))
            + len(json.dumps(service.checkpoints[-1].data)),
        }
        failures: list[str] = []
        warnings: list[str] = []
        if k == self.EPOCH - 1:
            start = k * self.ROUND_NS
            failures, resume_ns = soak.replay(start, start + self.ROUND_NS)
            leaks, audit = soak.close()
            failures += leaks
            counters.update(audit, resume_ns=resume_ns)
            warnings = [f"{count} {name.replace('_', ' ')} at quiescence"
                        for name, count in audit.items() if count]
        ops = f["arrivals"] + s["arrivals"]
        return RoundResult(
            ops=ops,
            decisions=ops,
            decide_ns=0,
            op_ns=op_ns,
            accepted=f["commits"] + s["accepts"],
            offered=ops,
            facts=(_digest(entries),
                   _digest(service.ledger[before["service_ledger"]:]),
                   tuple(sorted(f.items())), tuple(sorted(s.items())),
                   service.sim.dispatched_events),
            failures=failures,
            warnings=warnings,
            counters=counters,
        )


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (Fig185Admission, StarDataplane, FattreeFabric, ServiceSoak)
}
