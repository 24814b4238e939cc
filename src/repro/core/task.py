"""Per-link "supposed tasks" derived from RT channels.

Section 18.4 of the paper reduces the end-to-end feasibility question to
independent per-link questions by deriving, from every channel ``i``, a
pair of periodic tasks (Eq. 18.6/18.7)::

    T_iu = {Source_i,      P_i, C_i, d_iu}   (runs on the uplink)
    T_id = {Destination_i, P_i, C_i, d_id}   (runs on the downlink)

Each full-duplex link is then treated, from a scheduling point of view,
as *two* independent processors: one executing the uplink parts of all
channels entering the switch through it, and one executing the downlink
parts of all channels leaving the switch through it. The capacity
``C_i`` plays the role of the task's worst-case execution time.

:class:`LinkRef` names one such "processor" -- the ordered pair of an end
node and a direction relative to the switch -- and :class:`LinkTask` is
one supposed task assigned to it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..errors import ChannelParameterError
from .channel import ChannelSpec, RTChannel

__all__ = ["LinkDirection", "LinkRef", "LinkTask"]


class LinkDirection(enum.Enum):
    """Direction of one half of a full-duplex link, relative to the switch.

    ``UPLINK`` carries frames from an end node toward the switch and is
    scheduled by the end node's RT layer; ``DOWNLINK`` carries frames from
    the switch toward an end node and is scheduled by the switch.
    """

    UPLINK = "uplink"
    DOWNLINK = "downlink"

    @property
    def opposite(self) -> "LinkDirection":
        return (
            LinkDirection.DOWNLINK
            if self is LinkDirection.UPLINK
            else LinkDirection.UPLINK
        )


@dataclass(frozen=True, slots=True)
class LinkRef:
    """One direction of one physical link: the unit of feasibility analysis.

    In the star topology every physical link connects exactly one end
    node to the switch, so naming the end node plus a direction uniquely
    identifies one of the two independent "processors" of that link.

    Attributes
    ----------
    node:
        Name of the end node at the non-switch end of the physical link.
    direction:
        Which half of the duplex pair this reference denotes.
    """

    node: str
    direction: LinkDirection
    #: Precomputed hash. LinkRef is the key of every per-link dict on
    #: the admission hot path; hashing the (str, enum) tuple on each
    #: lookup is measurable, computing it once at construction is not.
    _hash: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.node, self.direction)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through the intern table: a str hash is per process,
        # so a pickled ``_hash`` would be stale wherever it is loaded.
        if self.direction is LinkDirection.UPLINK:
            return LinkRef.uplink, (self.node,)
        return LinkRef.downlink, (self.node,)

    @staticmethod
    def uplink(node: str) -> "LinkRef":
        """The node→switch direction of ``node``'s link.

        Instances are interned per node name (they are immutable and the
        admission hot path constructs the same handful of refs on every
        request); the node population is bounded by the network, so the
        intern table is too.
        """
        ref = _UPLINK_INTERN.get(node)
        if ref is None:
            ref = LinkRef(node=node, direction=LinkDirection.UPLINK)
            _UPLINK_INTERN[node] = ref
        return ref

    @staticmethod
    def downlink(node: str) -> "LinkRef":
        """The switch→node direction of ``node``'s link (interned)."""
        ref = _DOWNLINK_INTERN.get(node)
        if ref is None:
            ref = LinkRef(node=node, direction=LinkDirection.DOWNLINK)
            _DOWNLINK_INTERN[node] = ref
        return ref

    def __lt__(self, other: "LinkRef") -> bool:
        """Sort by (node, direction name) for stable report ordering."""
        if not isinstance(other, LinkRef):
            return NotImplemented
        return (self.node, self.direction.value) < (
            other.node,
            other.direction.value,
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        arrow = "->sw" if self.direction is LinkDirection.UPLINK else "sw->"
        return f"{arrow}{self.node}" if arrow == "sw->" else f"{self.node}{arrow}"


_UPLINK_INTERN: dict[str, LinkRef] = {}
_DOWNLINK_INTERN: dict[str, LinkRef] = {}


@dataclass(frozen=True, slots=True)
class LinkTask:
    """A periodic task ``{node, P, C, d}`` running on one link direction.

    This is the paper's Eq. 18.6/18.7 object. ``deadline`` here is the
    *per-link* deadline (``d_iu`` or ``d_id``), not the channel's
    end-to-end deadline.

    Attributes
    ----------
    link:
        The link direction ("processor") the task runs on.
    period:
        ``P_i`` of the originating channel, in timeslots.
    capacity:
        ``C_i`` of the originating channel -- the task WCET, in timeslots.
    deadline:
        The per-link relative deadline, in timeslots. Must be at least
        ``capacity`` (Eq. 18.9), otherwise the task could never finish in
        time even alone on the link.
    channel_id:
        ID of the originating channel, for traceability (``-1`` when the
        task was built from a bare spec, e.g. in unit tests).
    """

    link: LinkRef
    period: int
    capacity: int
    deadline: int
    channel_id: int = -1
    #: Precomputed ``(period, capacity, deadline)``: the feasibility
    #: cache keys its verdict memos by this triple on every check, and
    #: three attribute loads plus a tuple pack per lookup are measurable
    #: on the admission hot path.
    pcd: tuple[int, int, int] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self) -> None:
        for name, value in (
            ("period", self.period),
            ("capacity", self.capacity),
            ("deadline", self.deadline),
        ):
            if not isinstance(value, int) or value <= 0:
                raise ChannelParameterError(
                    f"LinkTask {name} must be a positive integer, got {value!r}"
                )
        if self.capacity > self.period:
            raise ChannelParameterError(
                f"LinkTask capacity {self.capacity} exceeds period {self.period}"
            )
        if self.deadline < self.capacity:
            raise ChannelParameterError(
                f"LinkTask deadline {self.deadline} is below its capacity "
                f"{self.capacity} (violates Eq. 18.9)"
            )
        object.__setattr__(
            self, "pcd", (self.period, self.capacity, self.deadline)
        )

    @property
    def utilization(self) -> float:
        """``C / P`` -- the task's long-run demand on its link direction."""
        return self.capacity / self.period

    @staticmethod
    def pair_for_channel(channel: RTChannel) -> tuple["LinkTask", "LinkTask"]:
        """Derive ``(T_iu, T_id)`` from a channel with an assigned partition.

        Implements Eq. 18.6/18.7: the uplink task runs on the source
        node's uplink, the downlink task on the destination node's
        downlink, both inheriting the channel's period and capacity.

        Construction is trusted (``__post_init__`` validation skipped):
        the spec validated ``0 < C <= P`` at creation, and the
        partition passed Eq. 18.8/18.9 validation before it reached
        the channel (``DeadlinePartition.validate_for`` on the
        admission path, or
        :meth:`~repro.core.channel.RTChannel.assign_partition`), which
        together imply every LinkTask invariant for both derived
        tasks. This runs once per
        admitted channel on the admission hot path.
        """
        spec: ChannelSpec = channel.spec
        up_d = channel.uplink_deadline  # raises if no partition assigned
        down_d = channel.downlink_deadline
        return (
            _trusted_task(
                LinkRef.uplink(channel.source),
                spec.period,
                spec.capacity,
                up_d,
                channel.channel_id,
            ),
            _trusted_task(
                LinkRef.downlink(channel.destination),
                spec.period,
                spec.capacity,
                down_d,
                channel.channel_id,
            ),
        )


def _trusted_task(
    link: LinkRef, period: int, capacity: int, deadline: int, channel_id: int
) -> LinkTask:
    """Build a LinkTask bypassing ``__post_init__``.

    Only for callers whose argument invariants (positive ints,
    ``C <= P``, ``d >= C``) are already guaranteed by validated upstream
    objects -- see :meth:`LinkTask.pair_for_channel`.
    """
    task = object.__new__(LinkTask)
    set_ = object.__setattr__
    set_(task, "link", link)
    set_(task, "period", period)
    set_(task, "capacity", capacity)
    set_(task, "deadline", deadline)
    set_(task, "channel_id", channel_id)
    set_(task, "pcd", (period, capacity, deadline))
    return task
