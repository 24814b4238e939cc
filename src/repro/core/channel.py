"""RT channels and their deadline partitions.

An **RT channel** (Section 18.2.2 of the paper) is a virtual connection
between two end nodes, characterized by the triple ``{P_i, C_i, d_i}``:

``P_i``
    the period of the data,
``C_i``
    the amount of data generated per period, and
``d_i``
    the relative end-to-end deadline used for EDF scheduling,

all expressed as a number of maximum-sized Ethernet frames (timeslots;
see :mod:`repro.units`). The network guarantees that every message
generated on the channel is delivered within ``d_i + T_latency``
(Eq. 18.1).

Because a channel traverses exactly two links in the star topology --
the uplink from the source node to the switch, and the downlink from the
switch to the destination node -- its deadline must be *partitioned*
into an uplink part ``d_iu`` and a downlink part ``d_id`` with
``d_iu + d_id == d_i`` (Eq. 18.8) and ``d_iu, d_id >= C_i`` (Eq. 18.9).
:class:`DeadlinePartition` captures one such split;
:mod:`repro.core.partitioning` decides which split to use.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from ..errors import ChannelParameterError, PartitioningError

__all__ = [
    "ChannelSpec",
    "DeadlinePartition",
    "ChannelState",
    "RTChannel",
]


@dataclass(frozen=True, slots=True, order=True)
class ChannelSpec:
    """The ``{P, C, d}`` parameter triple of an RT channel, in timeslots.

    Attributes
    ----------
    period:
        ``P_i`` -- message inter-arrival time, in timeslots. Must be
        positive.
    capacity:
        ``C_i`` -- worst-case data per period, in maximum-sized frames.
        Must be positive and no larger than ``period`` (otherwise even a
        dedicated link could not keep up).
    deadline:
        ``d_i`` -- relative end-to-end deadline, in timeslots. Must be
        positive. ``deadline <= period`` is the common industrial case but
        is *not* required; the feasibility analysis handles arbitrary
        deadlines.

    Notes
    -----
    A spec with ``deadline < 2 * capacity`` is representable but can never
    be feasible through a store-and-forward switch (the paper's Eq. 18.9
    discussion); admission control will reject it. Use
    :meth:`is_partitionable` to test for this eagerly.
    """

    period: int
    capacity: int
    deadline: int
    #: Precomputed hash. Specs key every admission memo (batch
    #: templates, request dedup) and the generated three-field tuple
    #: hash is measurable at 10^6 decisions/sec; excluded from ordering
    #: and equality.
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name, value in (
            ("period", self.period),
            ("capacity", self.capacity),
            ("deadline", self.deadline),
        ):
            if not isinstance(value, int):
                raise ChannelParameterError(
                    f"{name} must be an integer number of timeslots, "
                    f"got {value!r}"
                )
            if value <= 0:
                raise ChannelParameterError(f"{name} must be positive, got {value}")
        if self.capacity > self.period:
            raise ChannelParameterError(
                f"capacity {self.capacity} exceeds period {self.period}; the "
                "channel would demand more than the full link bandwidth"
            )
        object.__setattr__(
            self, "_hash",
            hash((self.period, self.capacity, self.deadline)),
        )

    def __hash__(self) -> int:
        return self._hash

    @property
    def utilization(self) -> float:
        """Long-run fraction of one link direction this channel consumes."""
        return self.capacity / self.period

    def is_partitionable(self) -> bool:
        """True iff some partition satisfying Eq. 18.9 exists (``d >= 2C``)."""
        return self.deadline >= 2 * self.capacity

    def with_deadline(self, deadline: int) -> "ChannelSpec":
        """Return a copy of this spec with a different end-to-end deadline."""
        return replace(self, deadline=deadline)


@dataclass(frozen=True, slots=True)
class DeadlinePartition:
    """A concrete split of an end-to-end deadline into uplink/downlink parts.

    ``uplink`` is ``d_iu`` and ``downlink`` is ``d_id`` from Section 18.4.
    Construction enforces positivity only; use :meth:`validate_for` to
    check the paper's conditions (Eq. 18.8 and Eq. 18.9) against a
    particular channel spec.
    """

    uplink: int
    downlink: int

    def __post_init__(self) -> None:
        for name, value in (("uplink", self.uplink), ("downlink", self.downlink)):
            if not isinstance(value, int):
                raise PartitioningError(
                    f"{name} deadline part must be an integer, got {value!r}"
                )
            if value <= 0:
                raise PartitioningError(
                    f"{name} deadline part must be positive, got {value}"
                )

    @property
    def total(self) -> int:
        """``d_iu + d_id``; must equal the channel deadline (Eq. 18.8)."""
        return self.uplink + self.downlink

    @property
    def uplink_fraction(self) -> float:
        """``Upart_i = d_iu / d_i`` (Eq. 18.11)."""
        return self.uplink / self.total

    @property
    def downlink_fraction(self) -> float:
        """``Dpart_i = d_id / d_i = 1 - Upart_i`` (Eq. 18.11/18.12)."""
        return self.downlink / self.total

    def validate_for(self, spec: ChannelSpec) -> None:
        """Raise :class:`PartitioningError` unless this partition is legal.

        Checks Eq. 18.8 (parts sum to the end-to-end deadline) and
        Eq. 18.9 (each part at least the capacity, since the capacity is
        the WCET of the supposed per-link task).
        """
        if self.total != spec.deadline:
            raise PartitioningError(
                f"partition parts {self.uplink}+{self.downlink} do not sum to "
                f"the channel deadline {spec.deadline} (Eq. 18.8)"
            )
        if self.uplink < spec.capacity or self.downlink < spec.capacity:
            raise PartitioningError(
                f"partition ({self.uplink}, {self.downlink}) has a part below "
                f"the channel capacity {spec.capacity} (Eq. 18.9); such a "
                "supposed task could never meet its deadline"
            )


class ChannelState(enum.Enum):
    """Lifecycle of an RT channel, following Section 18.2.2.

    ``REQUESTED``
        the source sent a RequestFrame; the switch has not yet decided.
    ``OFFERED``
        the switch found the request feasible and forwarded it to the
        destination; waiting for the destination's ResponseFrame.
    ``ACTIVE``
        established end-to-end; real-time traffic may flow.
    ``REJECTED``
        refused, either by the switch's feasibility test or by the
        destination node.
    ``TORN_DOWN``
        was active, then released; its reservation has been returned.
    """

    REQUESTED = "requested"
    OFFERED = "offered"
    ACTIVE = "active"
    REJECTED = "rejected"
    TORN_DOWN = "torn_down"

    def is_terminal(self) -> bool:
        """True for states a channel can never leave."""
        return self in (ChannelState.REJECTED, ChannelState.TORN_DOWN)


@dataclass(slots=True)
class RTChannel:
    """A (possibly established) RT channel between two named nodes.

    This object carries everything admission control and the simulator
    need to know about one channel: endpoints, parameters, the deadline
    partition chosen at admission time, and lifecycle state.

    Attributes
    ----------
    channel_id:
        Network-unique ID assigned by the switch (the 16-bit *RT channel
        ID* field of Figures 18.3/18.4). ``-1`` until assigned.
    source, destination:
        Names of the end nodes. A channel never connects a node to itself.
    spec:
        The ``{P, C, d}`` triple.
    partition:
        Deadline split chosen by the DPS at admission time; ``None`` until
        admission control has run.
    state:
        Lifecycle state (see :class:`ChannelState`).
    """

    source: str
    destination: str
    spec: ChannelSpec
    channel_id: int = -1
    partition: DeadlinePartition | None = None
    state: ChannelState = field(default=ChannelState.REQUESTED)

    def __post_init__(self) -> None:
        if self.source == self.destination:
            raise ChannelParameterError(
                f"channel source and destination are both {self.source!r}; "
                "an RT channel connects two distinct nodes"
            )

    @property
    def uplink_deadline(self) -> int:
        """``d_iu`` of the assigned partition (requires a partition)."""
        if self.partition is None:
            raise PartitioningError(
                f"channel {self.source}->{self.destination} has no deadline "
                "partition assigned yet"
            )
        return self.partition.uplink

    @property
    def downlink_deadline(self) -> int:
        """``d_id`` of the assigned partition (requires a partition)."""
        if self.partition is None:
            raise PartitioningError(
                f"channel {self.source}->{self.destination} has no deadline "
                "partition assigned yet"
            )
        return self.partition.downlink

    def assign_partition(self, partition: DeadlinePartition) -> None:
        """Attach a validated deadline partition to this channel."""
        partition.validate_for(self.spec)
        self.partition = partition

    def describe(self) -> str:
        """Human-readable one-liner, used in traces and error messages."""
        part = (
            f" d_iu={self.partition.uplink} d_id={self.partition.downlink}"
            if self.partition is not None
            else ""
        )
        ident = f"#{self.channel_id}" if self.channel_id >= 0 else "#?"
        return (
            f"RTChannel{ident} {self.source}->{self.destination} "
            f"P={self.spec.period} C={self.spec.capacity} "
            f"d={self.spec.deadline}{part} [{self.state.value}]"
        )
