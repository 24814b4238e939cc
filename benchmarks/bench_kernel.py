"""EXP-P7 (kernel side): event-kernel dispatch throughput on the hold model.

Times the classic hold-model workload (a constant pending population:
every fired event queues one successor at a pseudorandom offset)
through the kernel's one binary-heap pending set and its one way to
queue an event, ``call_at``. Determinism is asserted, not assumed:
repeated runs must dispatch the identical instant-by-instant stream
before any timing is reported.

EXP-P7 once ran this against a second, calendar-queue pending set. On
CPython the C-accelerated ``heapq`` won at every population measured
(the calendar's O(1) bucket math is interpreted bytecode), so the
calendar queue was deleted. The floor asserted here is an absolute
dispatch-throughput regression guard.
"""

from __future__ import annotations

import gc
import time

import pytest

from repro.analysis.report import format_table
from repro.sim.kernel import Simulator

#: The kernel must clear this on the hold model (a 2-vCPU AMD EPYC VM
#: measures about 1 M ev/s; the floor leaves generous headroom for
#: slower CI machines).
_DISPATCH_FLOOR_EPS = 60_000.0

_POPULATION = 2_000
_EVENTS = 60_000


def _hold_model(population: int, events: int):
    """Run the hold model; return (elapsed_seconds, dispatch_trace)."""
    sim = Simulator()
    call_at = sim.call_at
    trace: list[int] = []
    remaining = events
    # Deterministic pseudorandom offsets without a live RNG in the
    # timed loop: a fixed LCG advanced inline.
    state = 0x2545F491

    def fire():
        nonlocal remaining, state
        trace.append(sim.now)
        if remaining > 0:
            remaining -= 1
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            call_at(sim.now + state % 10_000, fire)

    for _ in range(population):
        remaining -= 1
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        call_at(state % 10_000, fire)
    gc.disable()
    try:
        start = time.perf_counter()
        sim.run()
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    assert sim.dispatched_events == events
    return elapsed, trace


def test_bench_kernel_dispatch_throughput(capsys):
    best = None
    traces = []
    for _ in range(3):
        elapsed, trace = _hold_model(_POPULATION, _EVENTS)
        best = elapsed if best is None else min(best, elapsed)
        traces.append(trace)
    # Determinism first: identical dispatch streams, instant for
    # instant, or the timing is meaningless.
    assert traces[0] == traces[1] == traces[2]
    rate = _EVENTS / best
    with capsys.disabled():
        print()
        print(format_table(
            ["events", "pending pop.", "elapsed ms", "events/s"],
            [[_EVENTS, _POPULATION, f"{best * 1000:.1f}", f"{rate:,.0f}"]],
            title="event-queue dispatch -- hold model",
        ))
    assert rate >= _DISPATCH_FLOOR_EPS, (
        f"kernel dispatch regressed: {rate:,.0f} ev/s "
        f"< {_DISPATCH_FLOOR_EPS:,.0f}"
    )


@pytest.mark.parametrize("population", [4, 64, 2_048])
def test_bench_kernel_dispatch_is_time_ordered(population):
    """From sparse to dense pending populations, the stream is
    nondecreasing in time and every queued event fires."""
    _, trace = _hold_model(population, 4_000)
    assert trace == sorted(trace)
    assert len(trace) == 4_000
