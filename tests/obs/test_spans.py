"""SpanTracker unit behaviour plus end-to-end span capture."""

from __future__ import annotations

import json

import pytest

from repro.core.channel import ChannelSpec
from repro.experiments.robustness import run_signal_loss_robustness
from repro.experiments.validation import run_validation
from repro.obs import (
    SPAN_SCHEMA,
    Span,
    SpanTracker,
    Telemetry,
    TelemetryConfig,
    span_from_dict,
    span_jsonl_lines,
    summarize_requests,
    validate,
)


# -- tracker primitives ----------------------------------------------------


def test_trace_root_ids_and_children():
    tracker = SpanTracker()
    root = tracker.begin_trace("signal.request", "m0", 100)
    assert root.span_id == root.trace_id == 0
    assert root.parent_id == -1
    child = tracker.child(root.trace_id, root.span_id, "wire", "m0->switch",
                          100, 200)
    assert child.span_id == 1
    assert child.trace_id == 0
    assert child.parent_id == 0
    assert len(tracker) == 2


def test_request_lifecycle_sets_status_and_closes():
    tracker = SpanTracker()
    root = tracker.begin_request("m0", 7, 50, {"destination": "s1"})
    assert tracker.request_root("m0", 7) is root
    closed = tracker.end_request("m0", 7, 950, "accepted")
    assert closed is root
    assert root.end_ns == 950
    assert root.fields["status"] == "accepted"
    # second end is a no-op (timed-out roots must not be re-closed by a
    # late response)
    assert tracker.end_request("m0", 7, 1000, "late") is None
    assert root.end_ns == 950


def test_capacity_bound_drops_oldest():
    tracker = SpanTracker(capacity=3)
    for i in range(5):
        tracker.begin_trace("t", "s", i)
    assert len(tracker) == 3
    assert tracker.dropped == 2
    assert [s.start_ns for s in tracker] == [2, 3, 4]
    # the ID counter keeps advancing past dropped spans
    assert tracker.next_id == 5


def test_frame_threading_queue_then_wire():
    tracker = SpanTracker()
    root = tracker.begin_trace("channel", "m0", 0)
    tracker.attach_frame(11, root.trace_id, root.span_id)
    assert tracker.frame_context(11) == (root.trace_id, root.span_id)
    tracker.frame_enqueued(11, 10, "uplink:m0")
    tracker.frame_transmit(11, 40, 60, "m0->switch")
    names = [(s.name, s.start_ns, s.end_ns) for s in tracker]
    assert ("queue", 10, 40) in names
    assert ("wire", 40, 60) in names
    tracker.frame_done(11)
    assert tracker.frame_context(11) is None


def test_zero_queue_wait_elided():
    tracker = SpanTracker()
    root = tracker.begin_trace("channel", "m0", 0)
    tracker.attach_frame(5, root.trace_id, root.span_id)
    tracker.frame_enqueued(5, 40, "uplink:m0")
    tracker.frame_transmit(5, 40, 60, "m0->switch")
    assert [s.name for s in tracker] == ["channel", "wire"]


def test_frame_lost_pops_context_and_records_cause():
    tracker = SpanTracker()
    root = tracker.begin_trace("signal.request", "m0", 0)
    tracker.attach_frame(3, root.trace_id, root.span_id)
    tracker.frame_lost(3, 70, "m0->switch", "corruption")
    assert tracker.frame_context(3) is None
    lost = [s for s in tracker if s.name == "lost"]
    assert len(lost) == 1
    assert lost[0].fields == {"cause": "corruption"}
    assert lost[0].start_ns == lost[0].end_ns == 70


def test_lease_lifecycle_outcomes():
    tracker = SpanTracker()
    root = tracker.begin_trace("signal.request", "m0", 0)
    tracker.lease_armed(9, root.trace_id, root.span_id, 10, 5010)
    tracker.lease_resolved(9, 300)
    lease = [s for s in tracker if s.name == "lease"][0]
    assert lease.end_ns == 300
    assert lease.fields["outcome"] == "resolved"
    tracker.lease_armed(10, root.trace_id, root.span_id, 400, 5400)
    tracker.lease_reclaimed(10, 5400)
    reclaimed = [s for s in tracker if s.name == "lease"][1]
    assert reclaimed.fields["outcome"] == "reclaimed"


def test_absorb_rebases_ids_to_serial_stream():
    # serial reference: two "work units" on one tracker
    serial = SpanTracker()
    for unit in range(2):
        root = serial.begin_trace("sweep.run", f"unit{unit}", 0)
        serial.event(root.trace_id, root.span_id, "admission", "m0", 5)
    # parallel: each unit on its own tracker, absorbed in unit order
    parent = SpanTracker()
    for unit in range(2):
        worker = SpanTracker()
        root = worker.begin_trace("sweep.run", f"unit{unit}", 0)
        worker.event(root.trace_id, root.span_id, "admission", "m0", 5)
        parent.absorb(worker.spans, worker.next_id, worker.dropped)
    assert [s.as_dict() for s in parent] == [s.as_dict() for s in serial]
    assert parent.next_id == serial.next_id


def test_span_jsonl_roundtrip_and_schema():
    tracker = SpanTracker()
    root = tracker.begin_trace("signal.request", "m0", 0, {"request": 1})
    tracker.child(root.trace_id, root.span_id, "wire", "m0->switch", 0, 20)
    lines = list(span_jsonl_lines(tracker))
    for line in lines:
        record = json.loads(line)
        assert validate(record, SPAN_SCHEMA) == []
        rebuilt = span_from_dict(record)
        assert rebuilt.as_dict() == record


# -- attribution -----------------------------------------------------------


def _attribution_fixture():
    tracker = SpanTracker()
    root = tracker.begin_request("m0", 1, 0)
    tracker.child(root.trace_id, root.span_id, "queue", "uplink:m0", 0, 10)
    tracker.child(root.trace_id, root.span_id, "wire", "m0->switch", 10, 40)
    tracker.child(root.trace_id, root.span_id, "processing", "switch", 40, 45)
    tracker.child(root.trace_id, root.span_id, "wire", "switch->s0", 45, 75)
    tracker.event(root.trace_id, root.span_id, "admission", "switch", 45,
                  {"verdict": "accept", "compute_ns": 123})
    tracker.end_request("m0", 1, 100, "accepted")
    return tracker


def test_summarize_partitions_latency():
    attrs = summarize_requests(_attribution_fixture())
    assert len(attrs) == 1
    a = attrs[0]
    assert a.queue_ns == 10
    assert a.wire_ns == 60
    assert a.processing_ns == 5
    assert a.backoff_ns == 25  # 100 total - 75 covered
    assert a.total_ns == 100
    assert a.coverage == 1.0
    assert a.admission_events == 1
    assert a.admission_compute_ns == 123
    assert a.status == "accepted"


def test_summarize_overlaps_never_double_count():
    tracker = SpanTracker()
    root = tracker.begin_request("m0", 1, 0)
    # an original and a retransmission overlap on the wire
    tracker.child(root.trace_id, root.span_id, "wire", "a", 0, 50)
    tracker.child(root.trace_id, root.span_id, "wire", "b", 30, 60)
    tracker.end_request("m0", 1, 60, "accepted")
    (a,) = summarize_requests(tracker)
    assert a.wire_ns == 60
    assert a.backoff_ns == 0
    assert a.coverage == 1.0


def test_summarize_skips_open_roots():
    tracker = SpanTracker()
    tracker.begin_request("m0", 1, 0)  # never resolved
    assert summarize_requests(tracker) == []


# -- end-to-end capture ----------------------------------------------------


def test_validation_run_attributes_full_latency():
    telemetry = Telemetry(TelemetryConfig(spans=True))
    run_validation(
        n_masters=2, n_slaves=4, n_requests=10, hyperperiods=1, seed=55,
        use_wire_handshake=True, telemetry=telemetry,
    )
    attrs = summarize_requests(telemetry.spans)
    assert len(attrs) == 10
    for a in attrs:
        assert a.coverage == pytest.approx(1.0)
        assert a.status == "accepted"
        assert a.wire_ns > 0
        assert a.processing_ns > 0
        assert a.backoff_ns == 0  # error-free wire: no retransmissions
        assert a.admission_events == 1


def test_lossy_run_attributes_backoff():
    telemetry = Telemetry(TelemetryConfig(spans=True))
    run_signal_loss_robustness(
        loss_rate=0.2, n_requests=20, seed=55, telemetry=telemetry,
    )
    attrs = summarize_requests(telemetry.spans)
    assert len(attrs) == 20
    assert all(a.coverage >= 0.99 for a in attrs)
    # at 20% loss some request must have waited on a retry timer
    assert any(a.backoff_ns > 0 for a in attrs)
    assert any(a.retries > 0 for a in attrs)
    # lost control frames show up as loss events inside request traces
    assert any(s.name == "lost" for s in telemetry.spans)


def test_spans_record_lease_and_teardown():
    telemetry = Telemetry(TelemetryConfig(spans=True))
    run_signal_loss_robustness(
        loss_rate=0.2, n_requests=20, seed=55, telemetry=telemetry,
    )
    names = {s.name for s in telemetry.spans}
    assert "lease" in names
    assert "teardown" in names
    # every closed lease carries its outcome
    for span in telemetry.spans:
        if span.name == "lease" and span.end_ns >= 0:
            assert span.fields["outcome"] in ("resolved", "reclaimed")


def test_spans_disabled_attribute_is_none():
    telemetry = Telemetry(TelemetryConfig(spans=False))
    assert telemetry.spans is None


def test_measure_compute_stamps_wall_time():
    telemetry = Telemetry(TelemetryConfig(spans=True, measure_compute=True))
    run_validation(
        n_masters=2, n_slaves=4, n_requests=6, hyperperiods=1, seed=55,
        use_wire_handshake=True, telemetry=telemetry,
    )
    attrs = summarize_requests(telemetry.spans)
    assert sum(a.admission_compute_ns for a in attrs) > 0


def test_fabric_run_emits_per_hop_spans():
    from repro.multiswitch.graph import build_chain_graph
    from repro.multiswitch.simnet import build_fabric_network

    fabric = build_chain_graph(2, 2)
    telemetry = Telemetry(TelemetryConfig(spans=True))
    net = build_fabric_network(fabric, telemetry=telemetry)
    nodes = sorted(net.nodes)
    channel = net.establish(
        nodes[0], nodes[-1], ChannelSpec(capacity=1, period=8, deadline=8)
    )
    assert channel is not None
    net.start_all_sources(stop_after_messages=2)
    net.sim.run()
    by_name: dict[str, int] = {}
    for span in telemetry.spans:
        by_name[span.name] = by_name.get(span.name, 0) + 1
    # 2 messages x 3 hops of wire, x 2 switch traversals of processing
    assert by_name["wire"] == 6
    assert by_name["processing"] == 4
    assert by_name["channel"] == 1
    assert by_name["admission"] == 1
    # all hop segments belong to the channel's single trace
    roots = [s for s in telemetry.spans if s.parent_id < 0]
    assert len(roots) == 1
    assert all(
        s.trace_id == roots[0].trace_id
        for s in telemetry.spans
        if s.name in ("wire", "processing")
    )


def test_absorb_copies_fields():
    worker = SpanTracker()
    root = worker.begin_trace("t", "s", 0, {"k": 1})
    parent = SpanTracker()
    parent.absorb(worker.spans, worker.next_id)
    absorbed = parent.spans[0]
    assert absorbed.fields == {"k": 1}
    root.fields["k"] = 2
    assert absorbed.fields == {"k": 1}  # deep-enough copy


def test_span_dataclass_open_default():
    span = Span(0, 0, -1, "x", "s", 10)
    assert span.end_ns == -1
    assert "fields" not in span.as_dict()
