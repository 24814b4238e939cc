"""Admission control over a switch fabric (multi-hop EDF analysis).

The per-link theory is exactly the paper's (Section 18.3.2): each
directed fabric link is a uniprocessor, each channel contributes one
supposed task per traversed link with the per-hop deadline chosen by a
:class:`~repro.multiswitch.partitioning.MultiHopDPS`. A request is
admitted when *every* link of its routed path remains feasible.

One modelling note: an inter-switch link carries tasks of many channels
whose upstream hop counts differ; as on the star's downlink, the
per-link demand analysis treats every task as released synchronously,
which is the conservative critical instant (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from ..core.channel import ChannelSpec
from ..core.feasibility import FeasibilityReport, is_feasible
from ..core.feasibility_cache import FeasibilityCache
from ..core.task import LinkRef, LinkDirection, LinkTask
from ..errors import PartitioningError, UnknownChannelError
from .graph import FabricGraph, FabricLink
from .partitioning import MultiHopDPS

if TYPE_CHECKING:
    from ..netcalc.bounds import PathBound

__all__ = ["MultiAdmissionDecision", "MultiSwitchAdmission"]


@dataclass(frozen=True, slots=True)
class MultiAdmissionDecision:
    """Outcome of one multi-hop admission attempt."""

    accepted: bool
    channel_id: int
    source: str
    destination: str
    spec: ChannelSpec
    links: tuple[FabricLink, ...]
    parts: tuple[int, ...]
    #: Per-link feasibility evidence, aligned with ``links``; shorter
    #: when the test aborted at the first infeasible link.
    reports: tuple[FeasibilityReport, ...] = ()
    failed_link: FabricLink | None = None

    def __bool__(self) -> bool:
        return self.accepted


def _link_ref(link: FabricLink) -> LinkRef:
    """Map a fabric link onto a LinkRef so LinkTask can reuse validation.

    The direction enum is vestigial here (every fabric link is just "a
    processor"); we encode the full directed pair in the node field.
    """
    return LinkRef(node=f"{link.tail}->{link.head}", direction=LinkDirection.UPLINK)


class MultiSwitchAdmission:
    """Admit-or-reject over a fabric graph.

    Parameters
    ----------
    fabric:
        The (validated) topology -- any
        :class:`~repro.multiswitch.graph.FabricGraph`, tree or
        multipath (fat-tree, ring); routing determinism is the fabric's
        responsibility (seeded equal-cost tie-break), admission just
        analyses the links of the path it is handed.
    dps:
        A k-way deadline-partitioning scheme.
    use_cache:
        When True (default), per-link feasibility goes through the
        incremental :class:`~repro.core.feasibility_cache.FeasibilityCache`
        (one entry per directed fabric link); decisions are identical to
        the from-scratch path, just cheaper per request.
    """

    def __init__(
        self,
        fabric: FabricGraph,
        dps: MultiHopDPS,
        *,
        use_cache: bool = True,
    ) -> None:
        fabric.validate_connected()
        self._fabric = fabric
        self._dps = dps
        self._tasks: dict[FabricLink, list[LinkTask]] = {}
        self._channels: dict[int, MultiAdmissionDecision] = {}
        self._cache = FeasibilityCache() if use_cache else None
        self._next_id = 1
        self.accept_count = 0
        self.reject_count = 0

    @property
    def uses_cache(self) -> bool:
        return self._cache is not None

    @property
    def fabric(self) -> FabricGraph:
        return self._fabric

    @property
    def active_channels(self) -> int:
        return len(self._channels)

    def link_load(self, link: FabricLink) -> int:
        """LinkLoad of one directed fabric link (paper's ``LL``)."""
        return len(self._tasks.get(link, ()))

    def tasks_on(self, link: FabricLink) -> tuple[LinkTask, ...]:
        return tuple(self._tasks.get(link, ()))

    @property
    def decisions(self) -> dict[int, MultiAdmissionDecision]:
        """Admitted channels' decisions, keyed by channel ID (copy)."""
        return dict(self._channels)

    def occupied_links(self) -> tuple[FabricLink, ...]:
        """Directed fabric links currently carrying at least one task."""
        return tuple(
            sorted(link for link, tasks in self._tasks.items() if tasks)
        )

    def channel_delay_bounds(self) -> dict[int, "PathBound"]:
        """Network-calculus end-to-end bound per admitted channel.

        The multi-hop twin of
        :meth:`repro.core.admission.SystemState.channel_delay_bounds`:
        one rate-latency residual per traversed fabric link, convolved
        along the routed path, with cross-traffic burstiness propagated
        through upstream hops (sound for the tree fabric because its
        directed link graph is feed-forward). Values are
        :class:`~repro.netcalc.bounds.PathBound` in slots.
        """
        from ..netcalc.bounds import network_delay_bounds

        flows = {
            channel_id: decision.links
            for channel_id, decision in self._channels.items()
        }
        links = {link for path in flows.values() for link in path}
        return network_delay_bounds(
            flows, {link: self.tasks_on(link) for link in links}
        )

    # -- decision ------------------------------------------------------------

    def request(
        self, source: str, destination: str, spec: ChannelSpec
    ) -> MultiAdmissionDecision:
        """Route, partition and per-link feasibility-test one request."""
        links = tuple(self._fabric.path_links(source, destination))

        def loaded(link: FabricLink) -> int:
            # candidate included, mirroring the star-network ADPS.
            return self.link_load(link) + 1

        try:
            parts = tuple(self._dps.partition(spec, links, loaded))
        except PartitioningError:
            self.reject_count += 1
            return MultiAdmissionDecision(
                accepted=False,
                channel_id=-1,
                source=source,
                destination=destination,
                spec=spec,
                links=links,
                parts=(),
            )
        # Peek the ID -- it is only consumed on acceptance, so rejected
        # requests no longer burn through the channel-ID space.
        channel_id = self._next_id
        reports: list[FeasibilityReport] = []
        candidate_tasks: list[LinkTask] = []
        for link, part in zip(links, parts):
            task = LinkTask(
                link=_link_ref(link),
                period=spec.period,
                capacity=spec.capacity,
                deadline=part,
                channel_id=channel_id,
            )
            candidate_tasks.append(task)
            if self._cache is not None:
                report = self._cache.check(task)
            else:
                report = is_feasible(
                    list(self._tasks.get(link, ())) + [task]
                )
            reports.append(report)
            if not report.feasible:
                self.reject_count += 1
                return MultiAdmissionDecision(
                    accepted=False,
                    channel_id=-1,
                    source=source,
                    destination=destination,
                    spec=spec,
                    links=links,
                    parts=parts,
                    reports=tuple(reports),
                    failed_link=link,
                )
        self._next_id += 1
        for link, task in zip(links, candidate_tasks):
            if self._cache is not None:
                self._cache.install(task)
            self._tasks.setdefault(link, []).append(task)
        decision = MultiAdmissionDecision(
            accepted=True,
            channel_id=channel_id,
            source=source,
            destination=destination,
            spec=spec,
            links=links,
            parts=parts,
            reports=tuple(reports),
        )
        self._channels[channel_id] = decision
        self.accept_count += 1
        return decision

    def admit_many(
        self, requests: "Iterable[tuple[str, str, ChannelSpec]]"
    ) -> list[MultiAdmissionDecision]:
        """Decide a burst of requests in order, one :meth:`request` each.

        The burst entry point of the fabric sweep. A request repeated
        against unchanged links is cheap without burst-level state: each
        of its per-link checks is a verdict-memo hit in the feasibility
        cache.
        """
        return [self.request(s, d, spec) for s, d, spec in requests]

    def release(self, channel_id: int) -> MultiAdmissionDecision:
        """Tear down an admitted channel, freeing all its per-link tasks."""
        decision = self._channels.pop(channel_id, None)
        if decision is None:
            raise UnknownChannelError(
                f"no active multi-hop channel {channel_id}"
            )
        for link in decision.links:
            if self._cache is not None:
                self._cache.release(_link_ref(link), channel_id)
            tasks = self._tasks.get(link, [])
            self._tasks[link] = [
                t for t in tasks if t.channel_id != channel_id
            ]
        return decision
