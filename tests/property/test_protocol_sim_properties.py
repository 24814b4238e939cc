"""Property tests: codec fuzzing and simulator ordering invariants."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.errors import CodecError, ReproError
from repro.protocol.frames import (
    RequestFrame,
    ResponseFrame,
    TeardownFrame,
    decode_signaling,
)
from repro.sim.kernel import Simulator


@given(st.binary(min_size=0, max_size=64))
@settings(max_examples=300, deadline=None)
def test_decoder_never_crashes_on_garbage(data):
    """Any byte string either decodes to a frame or raises CodecError --
    never an unhandled exception, never a silently wrong type."""
    try:
        frame = decode_signaling(data)
    except CodecError:
        return
    except ReproError as exc:  # any other library error is a bug
        raise AssertionError(f"wrong error type: {type(exc).__name__}")
    assert isinstance(frame, (RequestFrame, ResponseFrame, TeardownFrame))


@given(st.binary(min_size=1, max_size=64))
@settings(max_examples=200, deadline=None)
def test_decode_encode_decode_is_stable(data):
    """When garbage *does* decode, re-encoding reproduces a frame that
    decodes to the same value (the codec is a retraction)."""
    try:
        frame = decode_signaling(data)
    except CodecError:
        return
    assert decode_signaling(frame.encode()) == frame


@given(
    st.lists(
        st.integers(min_value=0, max_value=10_000),
        min_size=0,
        max_size=60,
    )
)
@settings(max_examples=150, deadline=None)
def test_simulator_dispatch_order_is_sorted_and_stable(delays):
    """Events fire in nondecreasing time order; equal times keep
    submission order (the determinism contract every model relies on)."""
    sim = Simulator()
    fired: list[tuple[int, int]] = []
    for index, delay in enumerate(delays):
        sim.call_at(delay, lambda i=index: fired.append((sim.now, i)))
    sim.run()
    assert len(fired) == len(delays)
    times = [t for t, _ in fired]
    assert times == sorted(times)
    # stability: among equal times, indices ascend
    for (t1, i1), (t2, i2) in zip(fired, fired[1:]):
        if t1 == t2:
            assert i1 < i2
    # each event fired at exactly its scheduled time
    for time, index in fired:
        assert time == delays[index]


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1000),  # delay
            st.booleans(),  # cancel?
        ),
        max_size=40,
    )
)
@settings(max_examples=150, deadline=None)
def test_cancelled_events_never_fire(plan):
    sim = Simulator()
    fired: list[int] = []
    handles = []
    for index, (delay, _) in enumerate(plan):
        handles.append(
            sim.call_at(delay, lambda i=index: fired.append(i))
        )
    cancelled = {
        index for index, (_, cancel) in enumerate(plan) if cancel
    }
    for index in cancelled:
        assert sim.cancel(handles[index])
    assert sim.pending_events == len(plan) - len(cancelled)
    sim.run()
    assert set(fired) == set(range(len(plan))) - cancelled
    for index in cancelled:
        assert not sim.cancel(handles[index])
