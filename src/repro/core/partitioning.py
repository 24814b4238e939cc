"""Deadline partitioning schemes: SDPS and ADPS (Section 18.4).

A **deadline-partitioning scheme (DPS)** maps the end-to-end deadline
``d_i`` of every channel onto a pair ``(d_iu, d_id)`` with
``d_iu + d_id == d_i`` (Eq. 18.8) and ``d_iu, d_id >= C_i`` (Eq. 18.9).
The paper presents two schemes:

**SDPS** (symmetric, Section 18.4.1)
    ``d_iu = d_id = d_i / 2`` -- ignores the system state entirely
    (Eq. 18.14/18.15).

**ADPS** (asymmetric, Section 18.4.2)
    gives a larger share of the deadline to whichever of the two links is
    more heavily loaded, where the **LinkLoad** ``LL`` of a link is the
    number of channels traversing it::

        Upart_i = LL(Source_i) / (LL(Source_i) + LL(Destination_i))   (Eq. 18.16)
        Dpart_i = LL(Destination_i) / (LL(Source_i) + LL(Destination_i))

    A more loaded link hosts more supposed tasks, so giving its tasks
    looser deadlines relieves the bottleneck that the processor-demand
    test would otherwise hit first.

Integer rounding
----------------
The paper works in whole timeslots, so fractional splits must be
rounded. This implementation computes the uplink share with round-half-
up integer arithmetic and then **clamps** both parts into
``[C_i, d_i - C_i]`` so Eq. 18.9 always holds for any partitionable
channel (``d_i >= 2 C_i``); :func:`clamp_partition` is exposed separately
because every scheme (including user-supplied ones) needs it.

Link-load accounting
--------------------
ADPS is evaluated *at admission time* with loads that already include
the candidate channel on both its links (so the ratio is defined even in
an empty system, and a channel's own presence is weighed equally on both
sides). Already-admitted channels keep the partition they were given; the
paper's dynamic-admission setting does not re-balance old channels.
"""

from __future__ import annotations

import abc
from fractions import Fraction
from typing import Callable, Protocol, runtime_checkable

from ..errors import PartitioningError
from .channel import ChannelSpec, DeadlinePartition
from .task import LinkRef

__all__ = [
    "LoadView",
    "FeasibilityProbe",
    "clamp_partition",
    "intern_partition",
    "split_round_half_up",
    "DeadlinePartitioningScheme",
    "SymmetricDPS",
    "AsymmetricDPS",
]


@runtime_checkable
class LoadView(Protocol):
    """Read-only view of per-link state that partitioning schemes may use.

    :class:`~repro.core.admission.SystemState` implements this protocol;
    tests may supply a stub.
    """

    def link_load(self, link: LinkRef) -> int:
        """Number of channels traversing ``link`` (the paper's ``LL``)."""
        ...  # pragma: no cover - protocol

    def link_utilization(self, link: LinkRef) -> Fraction:
        """Total utilization ``sum C/P`` of the tasks on ``link``."""
        ...  # pragma: no cover - protocol


#: Signature of the feasibility probe handed to
#: :meth:`DeadlinePartitioningScheme.partition_with_probe`: given a
#: candidate partition it answers whether *both* links of the channel
#: would remain feasible under it.
FeasibilityProbe = Callable[[DeadlinePartition], bool]


#: Interned partitions keyed by ``(uplink, downlink)``. Every admission
#: request builds at least one DeadlinePartition and its validating
#: constructor is measurable on that hot path; the sweep workloads
#: revisit the same few dozen splits constantly. Safe because the class
#: is frozen and the first construction still validates. Bounded by a
#: wholesale clear at capacity.
_PARTITIONS: dict[tuple[int, int], DeadlinePartition] = {}
_PARTITIONS_MAX = 1 << 15


def intern_partition(uplink: int, downlink: int) -> DeadlinePartition:
    """The interned ``DeadlinePartition(uplink, downlink)``."""
    key = (uplink, downlink)
    part = _PARTITIONS.get(key)
    if part is None:
        if len(_PARTITIONS) >= _PARTITIONS_MAX:
            _PARTITIONS.clear()
        part = DeadlinePartition(uplink=uplink, downlink=downlink)
        _PARTITIONS[key] = part
    return part


def clamp_partition(spec: ChannelSpec, uplink_part: int) -> DeadlinePartition:
    """Build a valid partition from a desired (possibly out-of-range) split.

    Clamps ``uplink_part`` into ``[C, d - C]`` and assigns the remainder
    to the downlink, so the result always satisfies Eq. 18.8 and Eq. 18.9.

    Raises
    ------
    PartitioningError
        if the channel is not partitionable at all (``d < 2 C``); no
        clamping can rescue such a channel (see the paper's discussion of
        Eq. 18.9 -- it can never be EDF-feasible through a
        store-and-forward switch).
    """
    if not spec.is_partitionable():
        raise PartitioningError(
            f"channel with C={spec.capacity}, d={spec.deadline} cannot be "
            "partitioned: the deadline is below twice the capacity (Eq. 18.9)"
        )
    lo, hi = spec.capacity, spec.deadline - spec.capacity
    clamped = min(max(uplink_part, lo), hi)
    return intern_partition(clamped, spec.deadline - clamped)


def split_round_half_up(deadline: int, numerator: int, denominator: int) -> int:
    """Integer ``round(deadline * numerator / denominator)`` with .5 up.

    Used to turn the rational shares of Eq. 18.16 into whole timeslots
    deterministically (Python's banker's rounding would make outcomes
    depend on parity, which is hostile to reproducibility).
    """
    if denominator <= 0:
        raise PartitioningError(
            f"share denominator must be positive, got {denominator}"
        )
    if numerator < 0:
        raise PartitioningError(f"share numerator must be >= 0, got {numerator}")
    return (2 * deadline * numerator + denominator) // (2 * denominator)


class DeadlinePartitioningScheme(abc.ABC):
    """Abstract base for deadline-partitioning schemes.

    Concrete schemes implement :meth:`partition`. Schemes that want to
    *search* over partitions using admission-control feedback (e.g.
    :class:`~repro.core.partitioning_ext.SearchDPS`) override
    :meth:`partition_with_probe` instead; the default implementation
    ignores the probe.
    """

    #: Short name used in reports and experiment legends.
    name: str = "dps"

    #: True when the scheme's choice (and any probing) depends *only* on
    #: the candidate's two endpoint links -- the source uplink and the
    #: destination downlink. :meth:`AdmissionController.admit_many
    #: <repro.core.admission.AdmissionController.admit_many>` then
    #: answers a repeated rejected request in a burst from a template
    #: validated by those two links' cache epochs alone. A scheme that
    #: consults any other link (or non-link state) must leave this False
    #: (the conservative default) or a template would serve stale
    #: decisions.
    local_only: bool = False

    @abc.abstractmethod
    def partition(
        self,
        source: str,
        destination: str,
        spec: ChannelSpec,
        loads: LoadView,
    ) -> DeadlinePartition:
        """Choose ``(d_iu, d_id)`` for a candidate channel.

        Parameters
        ----------
        source, destination:
            End-node names; the relevant links are ``source``'s uplink
            and ``destination``'s downlink.
        spec:
            The candidate channel's ``{P, C, d}``.
        loads:
            Current per-link state *including the candidate channel*.

        Returns a partition satisfying Eq. 18.8/18.9, or raises
        :class:`~repro.errors.PartitioningError` when none exists.
        """

    def partition_with_probe(
        self,
        source: str,
        destination: str,
        spec: ChannelSpec,
        loads: LoadView,
        probe: FeasibilityProbe,
    ) -> DeadlinePartition:
        """Like :meth:`partition` but with access to a feasibility probe.

        Admission control always calls this entry point. The base
        implementation simply delegates to :meth:`partition`; the
        returned partition may still fail the probe, in which case the
        channel is rejected (that is the behaviour the paper evaluates
        for SDPS and ADPS).
        """
        del probe  # unused by non-searching schemes
        return self.partition(source, destination, spec, loads)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class SymmetricDPS(DeadlinePartitioningScheme):
    """SDPS: split every deadline in half (Eq. 18.14/18.15).

    ``Upart_i = Dpart_i = 1/2`` regardless of the system state. For odd
    deadlines the uplink gets the smaller half (``d // 2``); the choice
    is arbitrary and documented rather than configurable, matching the
    paper's presentation where deadlines are even in every experiment.
    """

    name = "sdps"
    local_only = True  # state-invariant, a fortiori endpoint-local

    def partition(
        self,
        source: str,
        destination: str,
        spec: ChannelSpec,
        loads: LoadView,
    ) -> DeadlinePartition:
        del source, destination, loads  # SDPS is state-invariant by design
        return clamp_partition(spec, spec.deadline // 2)


class AsymmetricDPS(DeadlinePartitioningScheme):
    """ADPS: split proportionally to LinkLoad (Eq. 18.16/18.17).

    The uplink share is ``LL(source uplink) / (LL(source uplink) +
    LL(destination downlink))`` where ``LL`` counts channels *including*
    the candidate. With round-half-up integer rounding and Eq. 18.9
    clamping.
    """

    name = "adps"
    local_only = True  # reads only the two endpoint LinkLoads

    def partition(
        self,
        source: str,
        destination: str,
        spec: ChannelSpec,
        loads: LoadView,
    ) -> DeadlinePartition:
        ll_up = loads.link_load(LinkRef.uplink(source))
        ll_down = loads.link_load(LinkRef.downlink(destination))
        if ll_up < 0 or ll_down < 0:
            raise PartitioningError(
                f"negative link load reported: uplink={ll_up}, downlink={ll_down}"
            )
        total = ll_up + ll_down
        if total == 0:
            # Candidate not counted by this view -- fall back to an even
            # split, which is what Eq. 18.16 yields for LL_u == LL_d anyway.
            return clamp_partition(spec, spec.deadline // 2)
        uplink_part = split_round_half_up(spec.deadline, ll_up, total)
        return clamp_partition(spec, uplink_part)
