"""Microbenchmarks of the hot data structures and codecs.

Not tied to a paper artifact; these guard the implementation's
performance envelope (EDF queue ops, event kernel, frame codecs) so
regressions show up in CI-style runs.
"""

from __future__ import annotations

from repro.core.edf_queue import EDFQueue, FCFSQueue, QueuedFrame
from repro.protocol.frames import RequestFrame, decode_signaling
from repro.protocol.headers import encode_rt_header
from repro.sim.kernel import Simulator


def test_bench_edf_queue_push_pop(benchmark):
    """1k mixed-deadline push/pop cycles through the EDF heap."""
    deadlines = [(i * 7919) % 1000 for i in range(1000)]

    def run():
        queue: EDFQueue[int] = EDFQueue()
        for i, deadline in enumerate(deadlines):
            queue.push(
                QueuedFrame(
                    payload=i, absolute_deadline=deadline, enqueued_at=0
                )
            )
        total = 0
        while queue:
            total += queue.pop().absolute_deadline
        return total

    assert benchmark(run) == sum(deadlines)


def test_bench_fcfs_queue(benchmark):
    def run():
        queue: FCFSQueue[int] = FCFSQueue()
        for i in range(1000):
            queue.push(
                QueuedFrame(payload=i, absolute_deadline=0, enqueued_at=0)
            )
        count = 0
        while queue:
            queue.pop()
            count += 1
        return count

    assert benchmark(run) == 1000


def test_bench_event_kernel(benchmark):
    """10k chained zero-work events through the kernel."""

    def run():
        sim = Simulator()
        for i in range(10_000):
            sim.call_at(i, lambda: None)
        sim.run()
        return sim.dispatched_events

    assert benchmark(run) == 10_000


def test_bench_request_frame_roundtrip(benchmark):
    frame = RequestFrame(
        connect_request_id=1,
        rt_channel_id=0,
        source_mac=0x0200_0000_0001,
        destination_mac=0x0200_0000_0002,
        source_ip=0x0A00_0001,
        destination_ip=0x0A00_0002,
        period=100,
        capacity=3,
        deadline=40,
    )

    def run():
        return decode_signaling(frame.encode())

    assert benchmark(run) == frame


def test_bench_rt_header_encode(benchmark):
    def run():
        return encode_rt_header(123_456_789_000, 42)

    header = benchmark(run)
    assert header.channel_id == 42


def test_bench_offline_schedule(benchmark):
    """Slot-level EDF schedule of a loaded link over one hyperperiod."""
    from repro.core.schedule import build_schedule
    from repro.core.task import LinkRef, LinkTask

    link = LinkRef.uplink("bench")
    tasks = [
        LinkTask(link=link, period=100, capacity=3, deadline=20 + i,
                 channel_id=i)
        for i in range(6)
    ]

    schedule = benchmark(build_schedule, tasks)
    assert schedule.feasible


def test_bench_capacity_planning(benchmark):
    """Binary-search headroom query on a half-loaded link."""
    from repro.core.feasibility import max_additional_tasks
    from repro.core.task import LinkRef, LinkTask

    link = LinkRef.uplink("bench")
    existing = [
        LinkTask(link=link, period=100, capacity=3, deadline=20,
                 channel_id=i)
        for i in range(3)
    ]
    probe = LinkTask(link=link, period=100, capacity=3, deadline=20)

    headroom = benchmark(max_additional_tasks, existing, probe)
    assert headroom == 3
