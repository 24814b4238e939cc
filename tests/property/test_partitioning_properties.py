"""Property-based tests for partitioning schemes and codecs."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from repro.core.channel import ChannelSpec
from repro.core.partitioning import (
    AsymmetricDPS,
    SymmetricDPS,
    clamp_partition,
    split_round_half_up,
)
from repro.core.partitioning_ext import LaxityDPS, SearchDPS, UtilizationDPS
from repro.core.task import LinkRef
from repro.multiswitch.partitioning import split_deadline
from repro.protocol.frames import (
    GOSSIP_FRAME_BYTES,
    INTENT_FRAME_BYTES,
    REQUEST_FRAME_BYTES,
    RESPONSE_FRAME_BYTES,
    TEARDOWN_FRAME_BYTES,
    GossipFrame,
    IntentFrame,
    IntentKind,
    RequestFrame,
    ResponseFrame,
    TeardownFrame,
    decode_signaling,
)
from repro.protocol.headers import decode_rt_header, encode_rt_header


@st.composite
def partitionable_spec(draw):
    capacity = draw(st.integers(min_value=1, max_value=20))
    period = draw(st.integers(min_value=capacity, max_value=500))
    deadline = draw(st.integers(min_value=2 * capacity, max_value=600))
    return ChannelSpec(period=period, capacity=capacity, deadline=deadline)


class Loads:
    def __init__(self, up, down, u_up=0, u_down=0):
        self._map = {
            LinkRef.uplink("a"): up,
            LinkRef.downlink("b"): down,
        }
        self._u = {
            LinkRef.uplink("a"): Fraction(u_up, 100),
            LinkRef.downlink("b"): Fraction(u_down, 100),
        }

    def link_load(self, link):
        return self._map.get(link, 0)

    def link_utilization(self, link):
        return self._u.get(link, Fraction(0))


loads_strategy = st.builds(
    Loads,
    st.integers(min_value=0, max_value=100),
    st.integers(min_value=0, max_value=100),
    st.integers(min_value=0, max_value=99),
    st.integers(min_value=0, max_value=99),
)


@given(partitionable_spec(), loads_strategy)
@settings(max_examples=200, deadline=None)
def test_every_scheme_satisfies_eq_18_8_and_18_9(spec, loads):
    """All five DPS implementations always emit legal partitions."""
    for scheme in (
        SymmetricDPS(),
        AsymmetricDPS(),
        UtilizationDPS(),
        LaxityDPS(),
        SearchDPS(),
    ):
        partition = scheme.partition("a", "b", spec, loads)
        partition.validate_for(spec)  # raises on violation


@given(partitionable_spec(), loads_strategy)
@settings(max_examples=100, deadline=None)
def test_adps_gives_heavier_link_at_least_half(spec, loads):
    up = loads.link_load(LinkRef.uplink("a"))
    down = loads.link_load(LinkRef.downlink("b"))
    if up + down == 0:
        return
    partition = AsymmetricDPS().partition("a", "b", spec, loads)
    lo, hi = spec.capacity, spec.deadline - spec.capacity
    if up > down and partition.uplink < hi:
        assert partition.uplink >= spec.deadline // 2
    if down > up and partition.downlink < hi:
        assert partition.downlink >= spec.deadline // 2


@given(
    partitionable_spec(),
    st.integers(min_value=-100, max_value=1000),
)
@settings(max_examples=200, deadline=None)
def test_clamp_partition_always_legal(spec, wish):
    clamp_partition(spec, wish).validate_for(spec)


@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=1000),
    st.integers(min_value=1, max_value=1000),
)
@settings(max_examples=200, deadline=None)
def test_split_round_half_up_error_below_one(deadline, num, den):
    if num > den:
        num = den
    result = split_round_half_up(deadline, num, den)
    exact = deadline * num / den
    assert abs(result - exact) <= 0.5 + 1e-9


@st.composite
def k_way_case(draw):
    k = draw(st.integers(min_value=1, max_value=6))
    capacity = draw(st.integers(min_value=1, max_value=10))
    deadline = draw(st.integers(min_value=k * capacity, max_value=500))
    weights = draw(
        st.lists(
            st.floats(min_value=0, max_value=100, allow_nan=False),
            min_size=k,
            max_size=k,
        )
    )
    return deadline, capacity, weights


@given(k_way_case())
@settings(max_examples=200, deadline=None)
def test_split_deadline_invariants(case):
    deadline, capacity, weights = case
    parts = split_deadline(deadline, capacity, weights)
    assert sum(parts) == deadline
    assert all(part >= capacity for part in parts)
    assert len(parts) == len(weights)


def _legacy_repair_loop(parts, capacity):
    """The historical one-unit-per-iteration repair (reference)."""
    parts = list(parts)
    k = len(parts)
    for i in range(k):
        while parts[i] < capacity:
            donor = max(
                (j for j in range(k) if parts[j] > capacity),
                key=lambda j: parts[j],
                default=None,
            )
            assert donor is not None
            parts[donor] -= 1
            parts[i] += 1
    return parts


def _legacy_split_deadline_float(deadline, capacity, weights):
    """The pre-Fraction float apportionment (reference)."""
    k = len(weights)
    total_weight = float(sum(weights))
    if total_weight <= 0:
        weights = [1.0] * k
        total_weight = float(k)
    exact = [deadline * w / total_weight for w in weights]
    parts = [int(x) for x in exact]
    shortfall = deadline - sum(parts)
    remainders = sorted(
        range(k), key=lambda i: (-(exact[i] - parts[i]), i)
    )
    for i in remainders[:shortfall]:
        parts[i] += 1
    return _legacy_repair_loop(parts, capacity)


@st.composite
def repairable_parts(draw):
    k = draw(st.integers(min_value=1, max_value=10))
    capacity = draw(st.integers(min_value=0, max_value=12))
    parts = draw(
        st.lists(
            st.integers(min_value=0, max_value=60),
            min_size=k,
            max_size=k,
        )
    )
    # the repair precondition split_deadline guarantees
    deficit = k * capacity - sum(parts)
    if deficit > 0:
        parts = [p + -(-deficit // k) for p in parts]
    return parts, capacity


@given(repairable_parts())
@settings(max_examples=300, deadline=None)
def test_single_pass_repair_matches_legacy_loop(case):
    """The threshold-drain repair is end-state identical to the old
    one-unit-per-iteration donor loop, including its first-index
    tie-break."""
    from repro.multiswitch.partitioning import _repair_floor

    parts, capacity = case
    assert _repair_floor(list(parts), capacity) == _legacy_repair_loop(
        parts, capacity
    )


def _fraction_split_deadline(deadline, capacity, weights):
    """The Fraction apportionment split_deadline used before its integer
    rewrite (differential reference; same repair, same error paths)."""
    from repro.multiswitch.partitioning import _repair_floor

    k = len(weights)
    exact_weights = [Fraction(w) for w in weights]
    total_weight = sum(exact_weights)
    if total_weight <= 0:
        exact_weights = [Fraction(1)] * k
        total_weight = Fraction(k)
    exact = [deadline * w / total_weight for w in exact_weights]
    parts = [int(x) for x in exact]
    shortfall = deadline - sum(parts)
    remainders = sorted(
        range(k), key=lambda i: (-(exact[i] - parts[i]), i)
    )
    for i in remainders[:shortfall]:
        parts[i] += 1
    return _repair_floor(parts, capacity)


_weight = st.one_of(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=10**18),
    st.floats(min_value=0, max_value=1e6, allow_nan=False),
    st.fractions(min_value=0, max_value=1000, max_denominator=97),
)


@st.composite
def mixed_k_way_case(draw):
    k = draw(st.integers(min_value=1, max_value=8))
    capacity = draw(st.integers(min_value=0, max_value=10))
    deadline = draw(st.integers(min_value=k * capacity, max_value=2000))
    weights = draw(st.lists(_weight, min_size=k, max_size=k))
    return deadline, capacity, weights


@given(mixed_k_way_case())
@settings(max_examples=400, deadline=None)
def test_integer_split_matches_fraction_reference(case):
    """The integer divmod apportionment is part-for-part the Fraction
    one on int, float and Fraction weights, huge and tied ones included."""
    deadline, capacity, weights = case
    assert split_deadline(
        deadline, capacity, weights
    ) == _fraction_split_deadline(deadline, capacity, weights)


@st.composite
def benign_k_way_case(draw):
    """Small integer weights: float apportionment is still exact here,
    so the legacy float path must agree with the Fraction path."""
    k = draw(st.integers(min_value=1, max_value=6))
    capacity = draw(st.integers(min_value=1, max_value=8))
    deadline = draw(st.integers(min_value=k * capacity, max_value=400))
    weights = draw(
        st.lists(
            st.integers(min_value=0, max_value=20),
            min_size=k,
            max_size=k,
        )
    )
    return deadline, capacity, weights


@given(benign_k_way_case())
@settings(max_examples=300, deadline=None)
def test_fraction_split_agrees_with_float_on_benign_inputs(case):
    """Where no two *different* weights tie in exact remainder, the old
    float path and the Fraction path agree -- the divergence (and the
    bug the Fraction rewrite fixes) lives exactly in cross-weight
    remainder ties, where float noise reordered the tie-break."""
    deadline, capacity, weights = case
    total = sum(weights)
    rems = {}
    for w in set(weights):
        share = Fraction(deadline * w, total) if total else Fraction(1)
        rem = share - int(share)
        if rem in rems and rems[rem] != w:
            assume(False)  # cross-weight tie: not a benign input
        rems[rem] = w
    assert split_deadline(
        deadline, capacity, weights
    ) == _legacy_split_deadline_float(deadline, capacity, weights)


@given(
    st.integers(min_value=0, max_value=(1 << 48) - 1),
    st.integers(min_value=0, max_value=(1 << 16) - 1),
)
@settings(max_examples=200, deadline=None)
def test_rt_header_roundtrip(deadline, channel):
    header = encode_rt_header(deadline, channel)
    assert decode_rt_header(header) == (deadline, channel)
    assert header.tos == 255


def _uint(bits: int):
    return st.integers(min_value=0, max_value=(1 << bits) - 1)


#: Every signalling frame type with arbitrary in-range field values;
#: the widths are the paper's (Figures 18.3/18.4) and the extensions'.
_ANY_FRAME = st.one_of(
    st.builds(
        RequestFrame, _uint(8), _uint(16), _uint(48), _uint(48), _uint(32),
        _uint(32), _uint(32), _uint(32), _uint(32),
    ),
    st.builds(ResponseFrame, _uint(8), _uint(16), _uint(48), st.booleans()),
    st.builds(TeardownFrame, _uint(8), _uint(16)),
    st.builds(
        IntentFrame, st.sampled_from(IntentKind), _uint(32), _uint(48),
        _uint(48), _uint(16), _uint(16), _uint(8), _uint(32), _uint(32),
        _uint(32),
    ),
    st.builds(
        GossipFrame, _uint(48), _uint(16), _uint(32), _uint(16), _uint(32),
        st.integers(min_value=1, max_value=(1 << 32) - 1),
    ),
)

_FRAME_BYTES = {
    RequestFrame: REQUEST_FRAME_BYTES,
    ResponseFrame: RESPONSE_FRAME_BYTES,
    TeardownFrame: TEARDOWN_FRAME_BYTES,
    IntentFrame: INTENT_FRAME_BYTES,
    GossipFrame: GOSSIP_FRAME_BYTES,
}


@given(_ANY_FRAME)
@settings(max_examples=200, deadline=None)
def test_bitfield_roundtrip(frame):
    wire = frame.encode()
    assert len(wire) == _FRAME_BYTES[type(frame)]
    assert wire[0] == frame.TYPE
    assert decode_signaling(wire) == frame
    assert decode_signaling(memoryview(bytearray(wire))) == frame
