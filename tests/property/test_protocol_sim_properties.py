"""Property tests: codec fuzzing and simulator ordering invariants."""

from __future__ import annotations

import dataclasses
import enum

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CodecError, FieldRangeError, ReproError
from repro.protocol.frames import (
    GossipFrame,
    IntentFrame,
    RequestFrame,
    ResponseFrame,
    TeardownFrame,
    decode_signaling,
)
from repro.sim.kernel import Simulator

#: Every signalling frame class the decoder dispatches to.
FRAME_CLASSES = (
    RequestFrame, ResponseFrame, TeardownFrame, IntentFrame, GossipFrame
)


def _field_values(cls):
    """Values for each declared field of ``cls``, each in its range."""
    values = {}
    for f in dataclasses.fields(cls):
        width, kind = f.metadata["bits"], f.metadata["kind"]
        if kind is bool:
            values[f.name] = st.booleans()
        elif issubclass(kind, enum.Enum):
            values[f.name] = st.sampled_from(list(kind))
        else:
            values[f.name] = st.integers(0, (1 << width) - 1)
    if cls is GossipFrame:
        values["util_den"] = st.integers(1, (1 << 32) - 1)
    return st.fixed_dictionaries(values)


def _checked_copy(frame):
    """The same values through the checking constructor."""
    return type(frame)(**{
        f.name: getattr(frame, f.name) for f in dataclasses.fields(frame)
    })


#: Garbage, plus bytes led by each class's tag at its exact size (which
#: plain garbage rarely hits).
GARBAGE = st.one_of(
    st.binary(min_size=0, max_size=64),
    st.sampled_from(FRAME_CLASSES).flatmap(
        lambda cls: st.binary(
            min_size=cls._SIZE - 1, max_size=cls._SIZE - 1
        ).map(lambda body, cls=cls: bytes([cls.TYPE]) + body)
    ),
)


@given(GARBAGE)
@settings(max_examples=400, deadline=None)
def test_decoder_never_crashes_on_garbage(data):
    """Any byte string either decodes to a frame or raises CodecError --
    never an unhandled exception, never a silently wrong type. The
    decoder skips the constructor's checks, so what it returns must be
    a frame the checking constructor accepts, unchanged."""
    try:
        frame = decode_signaling(data)
    except CodecError:
        return
    except ReproError as exc:  # any other library error is a bug
        raise AssertionError(f"wrong error type: {type(exc).__name__}")
    assert type(frame) in FRAME_CLASSES
    assert _checked_copy(frame) == frame


@pytest.mark.parametrize("cls", FRAME_CLASSES, ids=lambda c: c.__name__)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_valid_encoding_decodes_to_the_checked_frame(cls, data):
    frame = cls(**data.draw(_field_values(cls)))
    decoded = decode_signaling(frame.encode())
    assert type(decoded) is cls
    assert decoded == frame
    assert [type(getattr(decoded, f.name)) for f in dataclasses.fields(cls)] \
        == [type(getattr(frame, f.name)) for f in dataclasses.fields(cls)]


@given(_field_values(GossipFrame))
@settings(max_examples=50, deadline=None)
def test_gossip_bytes_with_zero_denominator_still_raise(values):
    values["util_den"] = 0
    with pytest.raises(FieldRangeError, match="util_den"):
        GossipFrame(**values)
    # Bytes the checking constructor could never have built.
    data = GossipFrame._trusted(
        *(values[f.name] for f in dataclasses.fields(GossipFrame))
    ).encode()
    with pytest.raises(FieldRangeError, match="util_den"):
        decode_signaling(data)


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
