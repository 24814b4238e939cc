"""Behaviour contract of admission: pinned digests of decision streams.

The admission engines may be rewritten for speed or size, but the
decisions they reach may not move. These cases pin, by sha256:

* the Fig. 18.5 sweep (10 masters, 50 slaves, ``P=100, C=3, d=40``,
  seed 2004) decided by ``AdmissionController.admit_many`` in the
  figure's 20-request segments, for SDPS and ADPS: per decision
  ``(accepted, reason, channel_id, partition)``, plus each run's final
  per-link loads;
* a k=4 fat-tree (104 hosts) with 400 seeded pairs and
  ``ChannelSpec(100, 3, 60)`` decided by
  ``MultiSwitchAdmission.admit_many`` in 40-request segments, for msym
  and mprop: per decision ``(accepted, channel_id, parts,
  failed_link)``.

A digest that changes means a verdict, a rejection reason, a channel
ID, a deadline split or a link load changed. Re-pin only with a stated
reason.
"""

from __future__ import annotations

import hashlib
import json
import random

from repro.core.admission import AdmissionController, SystemState
from repro.core.channel import ChannelSpec
from repro.core.partitioning import AsymmetricDPS, SymmetricDPS
from repro.multiswitch.admission import MultiSwitchAdmission
from repro.multiswitch.graph import build_fat_tree
from repro.multiswitch.partitioning import (
    MultiHopProportional,
    MultiHopSymmetric,
)
from repro.sim.rng import RngRegistry
from repro.traffic.patterns import master_slave_names, master_slave_requests
from repro.traffic.spec import FixedSpecSampler

_STAR_DIGESTS = {
    "sdps":
        "59feda8307cdfd4aca696d582da856345b335234fe7294780c999e6951b93c4c",
    "adps":
        "9934c17c0120ddfa76ca51f33bdc0c746737773b42d32723b865e93bf22fccfa",
}

_FABRIC_DIGESTS = {
    "msym":
        "7d44e4b351d019a6b6c7ef7e273909ad0eaff31244ce98fbf967a4012bf4580f",
    "mprop":
        "10097b824f269da8270a96165247f403a1f60ce10b3252adc2ce5c771bb7dd95",
}

_SEED = 2004
_TRIALS = 4


def _digest(record) -> str:
    data = json.dumps(record, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()


def _star_stream(scheme) -> str:
    masters, slaves = master_slave_names(10, 50)
    sampler = FixedSpecSampler(ChannelSpec(period=100, capacity=3, deadline=40))
    record = []
    for trial in range(_TRIALS):
        rng = RngRegistry(_SEED).fork(trial).stream("requests")
        requests = [
            (q.source, q.destination, q.spec)
            for q in master_slave_requests(masters, slaves, 200, sampler, rng)
        ]
        controller = AdmissionController(
            SystemState(masters + slaves), scheme()
        )
        for start in range(0, len(requests), 20):
            for d in controller.admit_many(requests[start:start + 20]):
                record.append([
                    d.accepted,
                    None if d.reason is None else d.reason.value,
                    d.channel.channel_id,
                    None if d.partition is None
                    else [d.partition.uplink, d.partition.downlink],
                ])
        state = controller.state
        record.append([
            [link.node, link.direction.value, state.link_load(link)]
            for link in state.occupied_links()
        ])
    return _digest(record)


def _fabric_stream(scheme) -> str:
    graph = build_fat_tree(4, hosts_per_edge=13)
    rng = random.Random(_SEED)
    names = sorted(graph.node_order)
    spec = ChannelSpec(period=100, capacity=3, deadline=60)
    requests = [(*rng.sample(names, 2), spec) for _ in range(400)]
    admission = MultiSwitchAdmission(fabric=graph, dps=scheme())
    record = []
    for start in range(0, len(requests), 40):
        for d in admission.admit_many(requests[start:start + 40]):
            record.append([
                d.accepted,
                d.channel_id,
                list(d.parts),
                None if d.failed_link is None
                else [d.failed_link.tail, d.failed_link.head],
            ])
    return _digest(record)


def test_fig18_5_admit_many_stream_is_pinned():
    assert {
        "sdps": _star_stream(SymmetricDPS),
        "adps": _star_stream(AsymmetricDPS),
    } == _STAR_DIGESTS


def test_fat_tree_admit_many_stream_is_pinned():
    assert {
        "msym": _fabric_stream(MultiHopSymmetric),
        "mprop": _fabric_stream(MultiHopProportional),
    } == _FABRIC_DIGESTS
