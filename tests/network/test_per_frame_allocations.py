"""The data plane allocates no ``partial`` per frame.

Arrivals, wire-free wakeups, switch processing and source periods are
queued as plain kernel entries (``Simulator.call_at`` /
``call_reserved``) whose actions are methods bound once; the frames
themselves wait in per-hop FIFOs. The untraced data phase below makes
no ``functools.partial`` at all. There is no event object to count: a
queued event is a plain ``(time, seq, action, label)`` tuple.
"""

from __future__ import annotations

import functools
import sys

from repro.core.partitioning import AsymmetricDPS
from repro.network.topology import build_star
from repro.sim.rng import RngRegistry
from repro.traffic.patterns import master_slave_names, master_slave_requests
from repro.traffic.spec import FixedSpecSampler


def _count_partials(monkeypatch) -> dict[str, int]:
    """Count every functools.partial made from now on."""
    counts = {"partial": 0}
    original = functools.partial

    class CountingPartial(original):
        def __new__(cls, *args, **kwargs):
            counts["partial"] += 1
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(functools, "partial", CountingPartial)
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and (
            getattr(module, "partial", None) is original
        ):
            monkeypatch.setattr(module, "partial", CountingPartial)
    return counts


def test_untraced_star_data_phase_allocates_no_event_or_partial(
    monkeypatch,
):
    counts = _count_partials(monkeypatch)
    masters, slaves = master_slave_names(6, 18)
    net = build_star(masters + slaves, dps=AsymmetricDPS())
    requests = master_slave_requests(
        masters, slaves, 80, FixedSpecSampler.paper_default(),
        RngRegistry(55).stream("requests"),
    )
    for request in requests:
        net.establish(request.source, request.destination, request.spec)
    net.start_all_sources(stop_after_messages=5)
    assert len(net.grants) > 0
    counts["partial"] = 0
    fired = net.sim.run()
    assert net.metrics.total_rt_frames == len(net.grants) * 5 * 3
    assert fired > 3 * net.metrics.total_rt_frames
    assert counts == {"partial": 0}
