"""k-way deadline partitioning for multi-hop paths.

For a channel crossing ``k`` links the end-to-end deadline must be
split into ``k`` per-link parts ``d_1 .. d_k`` with ``sum d_j == d``
(generalizing Eq. 18.8) and every ``d_j >= C`` (generalizing Eq. 18.9 --
each hop's supposed task still has WCET ``C``). A channel with
``d < k*C`` is infeasible on that path under any split, the multi-hop
analogue of the store-and-forward bound.

Two schemes mirror the paper's pair:

* :class:`MultiHopSymmetric` -- equal shares (SDPS generalization);
* :class:`MultiHopProportional` -- shares proportional to each link's
  LinkLoad including the candidate (ADPS generalization).

Integer splitting uses the largest-remainder method in **exact
integer arithmetic** (weights scaled to a common denominator, one
``divmod`` per share) so the parts always sum exactly to ``d`` with
deterministic tie-breaking and the split is bit-reproducible across
platforms for any weights; a single-pass threshold-drain repair then
lifts any part below ``C`` by taking slack from the largest parts
(see :func:`_repair_floor` -- provably identical to the historical
one-unit-per-iteration loop, in O(k log max_part) instead of O(k*delta)
with quadratic donor scans).
"""

from __future__ import annotations

import abc
from fractions import Fraction
from math import lcm
from typing import Callable, Sequence

from ..core.channel import ChannelSpec
from ..errors import PartitioningError
from .graph import FabricLink

__all__ = [
    "split_deadline",
    "MultiHopDPS",
    "MultiHopSymmetric",
    "MultiHopProportional",
]

#: Callback giving the current LinkLoad of a fabric link (candidate included).
LinkLoadFn = Callable[[FabricLink], int]


def split_deadline(
    deadline: int, capacity: int, weights: Sequence[int | Fraction]
) -> list[int]:
    """Split ``deadline`` into ``len(weights)`` integer parts.

    Parts are proportional to ``weights`` (largest-remainder rounding,
    remainder ties broken toward the lowest index), then repaired so
    every part is at least ``capacity`` while the total stays exactly
    ``deadline``.

    The apportionment is exact integer arithmetic: the weights are
    scaled to integers over a common denominator and each share is one
    ``divmod``, so the result is a pure function of the integer problem
    with no platform/rounding dependence.  Float and
    :class:`~fractions.Fraction` weights are accepted and taken at their
    exact rational value.

    Raises
    ------
    PartitioningError
        when ``deadline < len(weights) * capacity`` (no valid split
        exists) or the weights are unusable (none positive).
    """
    k = len(weights)
    if k == 0:
        raise PartitioningError("cannot split a deadline over zero links")
    if deadline < k * capacity:
        raise PartitioningError(
            f"deadline {deadline} cannot cover {k} hops of capacity "
            f"{capacity} (needs >= {k * capacity})"
        )
    if any(w < 0 for w in weights):
        raise PartitioningError(f"negative weight in {weights!r}")
    # Scale the weights to integers over a common denominator; every
    # share deadline * w_i / W then splits exactly into an integer part
    # and a remainder over the same W, so remainders compare as ints.
    ratios = [
        (w, 1) if isinstance(w, int) else Fraction(w).as_integer_ratio()
        for w in weights
    ]
    denominator = lcm(*(q for _, q in ratios))
    scaled = [n * (denominator // q) for n, q in ratios]
    total = sum(scaled)
    if total <= 0:
        scaled = [1] * k
        total = k
    # Largest-remainder apportionment of `deadline` units.
    shares = [divmod(deadline * w, total) for w in scaled]
    parts = [part for part, _ in shares]
    shortfall = deadline - sum(parts)
    remainders = sorted(range(k), key=lambda i: (-shares[i][1], i))
    for i in remainders[:shortfall]:
        parts[i] += 1
    parts = _repair_floor(parts, capacity)
    assert sum(parts) == deadline
    return parts


def _repair_floor(parts: list[int], capacity: int) -> list[int]:
    """Lift parts below ``capacity`` to it, draining the largest parts.

    Single-pass replacement for the historical loop that moved one unit
    per iteration from ``max(parts[j] > capacity)`` (first index on
    ties) to each deficient part.  That loop's end state has a closed
    form: with ``L`` the total deficit, find the smallest threshold
    ``T >= capacity`` whose drain ``g(T) = sum(max(0, p - T))`` is at
    most ``L``, cap every donor at ``T``, and decrement by one the
    first ``L - g(T)`` donors (in index order) whose original part was
    at least ``T`` -- exactly which entries the loop's first-index
    ``max`` tie-break lands on once all remaining donors sit at ``T``.

    Preserves ``sum(parts)`` (receivers gain ``L``, donors lose
    ``g(T) + (L - g(T)) = L``) and ``min >= capacity``: ``g(capacity)
    >= L`` whenever ``sum(parts) >= k * capacity`` (the caller's
    precondition), so ``T == capacity`` forces ``L - g(T) == 0`` and
    any extra decrement happens only when ``T > capacity``, landing on
    ``T - 1 >= capacity``.
    """
    deficit = sum(capacity - p for p in parts if p < capacity)
    if deficit == 0:
        return parts
    # Binary search the smallest T in [capacity, max(parts)] with
    # g(T) <= deficit; g is nonincreasing in T and g(max) == 0.
    lo, hi = capacity, max(parts)
    while lo < hi:
        mid = (lo + hi) // 2
        if sum(p - mid for p in parts if p > mid) <= deficit:
            hi = mid
        else:
            lo = mid + 1
    threshold = lo
    drained = sum(p - threshold for p in parts if p > threshold)
    extra = deficit - drained
    repaired = [
        capacity if p < capacity else min(p, threshold) for p in parts
    ]
    if extra:
        for i, p in enumerate(parts):
            if p >= threshold:
                repaired[i] -= 1
                extra -= 1
                if extra == 0:
                    break
    return repaired


class MultiHopDPS(abc.ABC):
    """Abstract k-way deadline-partitioning scheme."""

    name: str = "multihop-dps"

    @abc.abstractmethod
    def partition(
        self,
        spec: ChannelSpec,
        links: Sequence[FabricLink],
        link_load: LinkLoadFn,
    ) -> list[int]:
        """Per-link deadline parts for a channel on ``links`` (ordered)."""


class MultiHopSymmetric(MultiHopDPS):
    """Equal shares: the k-way SDPS (``d_j ~= d / k``)."""

    name = "msym"

    def partition(
        self,
        spec: ChannelSpec,
        links: Sequence[FabricLink],
        link_load: LinkLoadFn,
    ) -> list[int]:
        del link_load
        return split_deadline(
            spec.deadline, spec.capacity, [1] * len(links)
        )


class MultiHopProportional(MultiHopDPS):
    """LinkLoad-proportional shares: the k-way ADPS.

    Each link's weight is its LinkLoad including the candidate channel;
    heavily shared links receive looser per-hop deadlines, relieving the
    same bottleneck effect ADPS targets on the two-link star.
    """

    name = "mprop"

    def partition(
        self,
        spec: ChannelSpec,
        links: Sequence[FabricLink],
        link_load: LinkLoadFn,
    ) -> list[int]:
        weights = [link_load(link) for link in links]
        if any(w < 0 for w in weights):
            raise PartitioningError(f"negative link load in {weights!r}")
        return split_deadline(spec.deadline, spec.capacity, weights)
