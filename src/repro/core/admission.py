"""Admission control over the system state (Sections 18.3 and 18.4).

The paper defines the **system state** ``SS = {N, K}`` -- the set of
connected nodes and the set of active RT channels -- and defines a
*feasible system* as one where every link is feasible. Adding a channel
is allowed exactly when the new state would still be feasible, which the
switch decides with per-link EDF analysis (:mod:`repro.core.feasibility`)
after the deadline-partitioning scheme
(:mod:`repro.core.partitioning`) has split the candidate's deadline.

:class:`SystemState` is the bookkeeping half: it tracks nodes and
channels, keeps the per-link task sets in one
:class:`~repro.core.feasibility_cache.FeasibilityCache`, and implements
the :class:`~repro.core.partitioning.LoadView` protocol that
partitioning schemes consult. :class:`AdmissionController` is the
decision half: it runs the paper's two-step test (utilization, then
processor demand) on both links a candidate would traverse and either
installs the channel or reports a typed rejection.

Only the uplink of the source and the downlink of the destination are
affected by a candidate, so only those two links are re-tested -- all
other links keep their verdicts (feasibility of a link depends only on
the tasks assigned to it).
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Iterator,
    Mapping,
    NamedTuple,
)

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..netcalc.bounds import PathBound

from ..errors import (
    AdmissionError,
    ChannelParameterError,
    InfeasibleChannelError,
    PartitioningError,
    UnknownChannelError,
)
from ..protocol.headers import MAX_CHANNEL_ID
from .channel import ChannelSpec, ChannelState, DeadlinePartition, RTChannel
from .feasibility import FeasibilityReport, is_feasible
from .feasibility_cache import FeasibilityCache
from .partitioning import DeadlinePartitioningScheme, LoadView
from .task import LinkRef, LinkTask

__all__ = [
    "SystemState",
    "RejectionReason",
    "AdmissionDecision",
    "AdmissionController",
    "allocate_channel_id",
]


def allocate_channel_id(
    hint: int, is_live: Callable[[int], bool], n_live: int, max_id: int
) -> tuple[int, int]:
    """The first free channel ID at or after ``hint``, and the next hint.

    IDs run over ``1..max_id`` (the wire value 0 means "not set"). They
    are handed out in increasing order from a moving hint, so a run
    that never creates more than ``max_id`` channels sees the monotone
    sequence 1, 2, 3, ... Past ``max_id`` the search wraps and *skips
    live IDs*: reusing a live ID would alias two channels in every
    table keyed on it. Only when all ``max_id`` IDs are live
    (``n_live >= max_id``) is the space exhausted, and
    :class:`AdmissionError` is raised. The caller consumes the ID by
    storing the returned hint, so an ID it only peeks at stays free.
    """
    if n_live >= max_id:
        raise AdmissionError(
            f"exhausted the 16-bit RT channel ID space "
            f"(all {max_id} IDs are live)"
        )
    for offset in range(max_id):
        candidate = 1 + (hint - 1 + offset) % max_id
        if not is_live(candidate):
            return candidate, 1 + candidate % max_id
    raise AdmissionError(  # pragma: no cover - guarded by n_live above
        f"exhausted the 16-bit RT channel ID space (all {max_id} IDs are live)"
    )


class _CandidateLoadView:
    """LoadView overlay that counts a not-yet-admitted candidate channel.

    ADPS and friends must see the system *as if* the candidate were
    already present on its two links (Section 18.4.2's ratio is otherwise
    undefined for the first channel in an empty system).
    """

    def __init__(
        self,
        base: "SystemState",
        uplink: LinkRef,
        downlink: LinkRef,
        spec: ChannelSpec,
    ) -> None:
        self._base = base
        self._uplink = uplink
        self._downlink = downlink
        self._spec = spec

    def link_load(self, link: LinkRef) -> int:
        # Identity check first: LinkRefs are interned, and the schemes
        # overwhelmingly ask about the candidate's own two links.
        if link is self._uplink or link is self._downlink:
            return self._base.link_load(link) + 1
        bonus = 1 if link in (self._uplink, self._downlink) else 0
        return self._base.link_load(link) + bonus

    def link_utilization(self, link: LinkRef) -> Fraction:
        util = self._base.link_utilization(link)
        if link in (self._uplink, self._downlink):
            util += Fraction(self._spec.capacity, self._spec.period)
        return util


class SystemState:
    """The paper's ``SS = {N, K}`` plus every link's supposed tasks.

    The tasks of an installed channel (Eq. 18.6/18.7, one per link it
    traverses) live in one
    :class:`~repro.core.feasibility_cache.FeasibilityCache`,
    :attr:`cache`: :meth:`install` and :meth:`release` mutate its
    entries, and :meth:`tasks_on`, :meth:`link_load` and
    :meth:`occupied_links` read them. A cached
    :class:`AdmissionController` decides against that same cache, so
    a channel installed or released straight through the state is seen
    by its next decision.

    Parameters
    ----------
    nodes:
        Names of the end nodes connected to the switch. Channel requests
        between unknown nodes are rejected. Nodes can be added later with
        :meth:`add_node` (the paper allows dynamic systems).
    """

    def __init__(self, nodes: Iterable[str] = ()) -> None:
        self._nodes: set[str] = set()
        self._channels: dict[int, RTChannel] = {}
        self._cache = FeasibilityCache()
        for node in nodes:
            self.add_node(node)

    # -- node management ------------------------------------------------

    @property
    def nodes(self) -> frozenset[str]:
        """The node set ``N``."""
        return frozenset(self._nodes)

    def add_node(self, name: str) -> None:
        """Connect a node; idempotent."""
        if not name:
            raise ChannelParameterError("node name must be non-empty")
        self._nodes.add(name)

    def has_node(self, name: str) -> bool:
        return name in self._nodes

    # -- channel bookkeeping ---------------------------------------------

    @property
    def channels(self) -> Mapping[int, RTChannel]:
        """The active channel set ``K``, keyed by channel ID (read-only)."""
        return dict(self._channels)

    def __len__(self) -> int:
        return len(self._channels)

    def __iter__(self) -> Iterator[RTChannel]:
        return iter(list(self._channels.values()))

    def channel(self, channel_id: int) -> RTChannel:
        try:
            return self._channels[channel_id]
        except KeyError:
            raise UnknownChannelError(
                f"no active RT channel with ID {channel_id}"
            ) from None

    def has_channel(self, channel_id: int) -> bool:
        """True while ``channel_id`` names a live (installed) channel."""
        return channel_id in self._channels

    def install(self, channel: RTChannel) -> None:
        """Add an admitted channel and its two supposed tasks.

        The channel must already carry a network-unique ID and a valid
        partition; :class:`AdmissionController` is the normal caller.
        """
        if channel.channel_id < 0:
            raise AdmissionError("cannot install a channel without an ID")
        if channel.channel_id in self._channels:
            raise AdmissionError(
                f"channel ID {channel.channel_id} is already active"
            )
        up, down = LinkTask.pair_for_channel(channel)
        self._cache.install(up)
        self._cache.install(down)
        self._channels[channel.channel_id] = channel

    def release(self, channel_id: int) -> RTChannel:
        """Tear down a channel and return its reservation to the links."""
        channel = self.channel(channel_id)
        self._cache.release(LinkRef.uplink(channel.source), channel_id)
        self._cache.release(LinkRef.downlink(channel.destination), channel_id)
        del self._channels[channel_id]
        channel.state = ChannelState.TORN_DOWN
        return channel

    # -- per-link views (LoadView protocol) --------------------------------

    @property
    def cache(self) -> FeasibilityCache:
        """The store of every link's installed tasks."""
        return self._cache

    def tasks_on(self, link: LinkRef) -> tuple[LinkTask, ...]:
        """Immutable snapshot of the tasks reserved on ``link``."""
        return self._cache.tasks_on(link)

    def link_load(self, link: LinkRef) -> int:
        """LinkLoad ``LL``: number of channels traversing ``link``."""
        return self._cache.link_load(link)

    def link_utilization(self, link: LinkRef) -> Fraction:
        """Exact utilization reserved on ``link``.

        Summed afresh from the stored tasks, independently of the
        cache's running ``util`` (``repro admission-diff`` compares
        the two).
        """
        total = Fraction(0)
        for task in self._cache.tasks_on(link):
            total += Fraction(task.capacity, task.period)
        return total

    def occupied_links(self) -> tuple[LinkRef, ...]:
        """Links that currently carry at least one channel."""
        return self._cache.occupied_links()

    def with_candidate(
        self, source: str, destination: str, spec: ChannelSpec
    ) -> LoadView:
        """A LoadView that pretends the candidate is already installed."""
        return _CandidateLoadView(
            self,
            LinkRef.uplink(source),
            LinkRef.downlink(destination),
            spec,
        )

    def channel_delay_bounds(self) -> dict[int, "PathBound"]:
        """Network-calculus end-to-end bound per active channel.

        Independent of the EDF demand analysis that admitted the
        channels: every channel becomes a token bucket, every occupied
        link a rate-latency server, and the bound is the horizontal
        deviation against the uplink (x) downlink residual convolution
        with cross-traffic burstiness propagated through the switch
        (see :mod:`repro.netcalc.bounds`). Values are
        :class:`~repro.netcalc.bounds.PathBound` (slots, exact
        fractions); every admitted channel gets a finite bound because
        admitted links have ``U <= 1``.
        """
        from ..netcalc.bounds import network_delay_bounds

        flows = {
            channel_id: (
                LinkRef.uplink(channel.source),
                LinkRef.downlink(channel.destination),
            )
            for channel_id, channel in self._channels.items()
        }
        links = {link for path in flows.values() for link in path}
        return network_delay_bounds(
            flows, {link: self.tasks_on(link) for link in links}
        )


class RejectionReason(enum.Enum):
    """Why admission control refused a channel request."""

    #: Source or destination is not a connected node.
    UNKNOWN_NODE = "unknown-node"
    #: ``d < 2C``: no deadline partition can exist (Eq. 18.9).
    NOT_PARTITIONABLE = "not-partitionable"
    #: Some partition exists (Eq. 18.9 holds) but the DPS found no split
    #: under which both links stay feasible (e.g. a strict
    #: :class:`~repro.core.partitioning_ext.SearchDPS` exhausting its
    #: probes). Distinct from :attr:`NOT_PARTITIONABLE`, which is a
    #: property of the spec alone.
    NO_FEASIBLE_PARTITION = "no-feasible-partition"
    #: The uplink (source -> switch) failed the feasibility test.
    UPLINK_INFEASIBLE = "uplink-infeasible"
    #: The downlink (switch -> destination) failed the feasibility test.
    DOWNLINK_INFEASIBLE = "downlink-infeasible"
    #: The destination node declined the offered channel (signalling).
    DESTINATION_DECLINED = "destination-declined"


class AdmissionDecision(NamedTuple):
    """Complete record of one admission-control decision.

    One is built per request on the admission hot path, hence a
    NamedTuple (construction is measurably cheaper than a frozen
    dataclass and the record is immutable either way).

    Attributes
    ----------
    accepted:
        The verdict.
    channel:
        The installed channel on acceptance (with ID, partition and
        ``ACTIVE`` state); on rejection, the rejected candidate (terminal
        ``REJECTED`` state, no ID).
    reason:
        ``None`` on acceptance, a :class:`RejectionReason` otherwise.
    partition:
        The partition that was tested (``None`` when rejection happened
        before partitioning).
    uplink_report, downlink_report:
        Per-link feasibility evidence, when those tests ran.
    """

    accepted: bool
    channel: RTChannel
    reason: RejectionReason | None = None
    partition: DeadlinePartition | None = None
    uplink_report: FeasibilityReport | None = None
    downlink_report: FeasibilityReport | None = None

    def __bool__(self) -> bool:
        return self.accepted


class _Assessment(NamedTuple):
    """Pure (state-untouched) outcome of the decision procedure.

    ``reason is None`` means "would be accepted". Shared by
    :meth:`AdmissionController.request` (which then mutates) and
    :meth:`AdmissionController.preview` (which never does). One is
    built per decision, so it is a NamedTuple rather than a dataclass
    (measurably cheaper to construct).
    """

    reason: RejectionReason | None
    partition: DeadlinePartition | None = None
    uplink_report: FeasibilityReport | None = None
    downlink_report: FeasibilityReport | None = None


#: Interned candidate tasks, keyed by ``(link, P, C, d)``. Admission
#: derives the same candidate ``LinkTask`` objects over and over (one
#: spec probed against the same link under a handful of partitions) and
#: the validating constructor is measurable on the hot path; interning
#: runs it once per distinct candidate. Safe because LinkTask is frozen
#: and the first construction still validates (Eq. 18.9 etc.). Bounded
#: by a wholesale clear at capacity.
_CANDIDATE_TASKS: dict[tuple[LinkRef, int, int, int], LinkTask] = {}
_CANDIDATE_TASKS_MAX = 1 << 15


def _candidate_task(
    link: LinkRef, period: int, capacity: int, deadline: int
) -> LinkTask:
    key = (link, period, capacity, deadline)
    task = _CANDIDATE_TASKS.get(key)
    if task is None:
        if len(_CANDIDATE_TASKS) >= _CANDIDATE_TASKS_MAX:
            _CANDIDATE_TASKS.clear()
        task = LinkTask(
            link=link, period=period, capacity=capacity, deadline=deadline
        )
        _CANDIDATE_TASKS[key] = task
    return task


class AdmissionController:
    """The switch's admit-or-reject logic over a :class:`SystemState`.

    Parameters
    ----------
    state:
        The system state to manage (shared with e.g. the simulator).
    dps:
        The deadline-partitioning scheme (SDPS, ADPS, ...). The scheme is
        consulted once per request with loads that include the candidate.
    use_cache:
        When True (the default), per-link feasibility is decided through
        the state's incremental
        :class:`~repro.core.feasibility_cache.FeasibilityCache`
        (:attr:`SystemState.cache`, which is also :attr:`cache`) instead
        of re-running the from-scratch test on every request.
        ``use_cache=False`` keeps that reference path,
        :func:`~repro.core.feasibility.is_feasible` over
        :meth:`SystemState.tasks_on`, for differential testing; the two
        produce identical decision streams (enforced by
        :mod:`repro.oracle.admission_diff`).

    Notes
    -----
    Channel IDs come from :func:`allocate_channel_id`: 1, 2, 3, ... (the
    wire value 0 means "not yet valid" in the RequestFrame), wrapping
    past :attr:`MAX_CHANNEL_ID` and skipping live IDs, mirroring the
    16-bit network-unique *RT channel ID* of the signalling frames. The
    controller raises :class:`AdmissionError` once every ID is live,
    making the paper's field-width limit explicit instead of silently
    aliasing IDs. Only acceptances consume IDs -- :meth:`preview` never
    advances the hint.

    Channels may also be installed or released straight through the
    state (``persistence.restore`` does): the state keeps each link's
    tasks only in the cache this controller decides with, so the next
    decision sees them.
    """

    MAX_CHANNEL_ID = MAX_CHANNEL_ID  # 16-bit field in Figures 18.3/18.4

    def __init__(
        self,
        state: SystemState,
        dps: DeadlinePartitioningScheme,
        *,
        use_cache: bool = True,
    ) -> None:
        self._state = state
        self._dps = dps
        #: Whether the scheme actually overrides partition_with_probe;
        #: for plain schemes (SDPS/ADPS/...) the per-request probe
        #: closure and the delegating trampoline are skipped entirely.
        self._dps_probes = (
            type(dps).partition_with_probe
            is not DeadlinePartitioningScheme.partition_with_probe
        )
        self._cache = state.cache if use_cache else None
        self._next_id = 1
        self.accept_count = 0
        self.reject_count = 0
        #: rejection histogram keyed by :class:`RejectionReason`.
        self.rejections_by_reason: dict[RejectionReason, int] = {}
        #: :meth:`admit_many` bursts processed and repeat-request
        #: decisions served from a burst-local template. Like the counts
        #: above, plain ints: telemetry reads them at snapshot time
        #: (:meth:`repro.obs.Telemetry.track_admission`).
        self.batch_count = 0
        self.batch_template_hits = 0

    @property
    def state(self) -> SystemState:
        return self._state

    @property
    def dps(self) -> DeadlinePartitioningScheme:
        return self._dps

    @property
    def cache(self) -> FeasibilityCache | None:
        """The state's per-link store this controller decides with, or
        ``None`` for a reference (from-scratch) controller."""
        return self._cache

    @property
    def uses_cache(self) -> bool:
        return self._cache is not None

    def _count_rejection(self, reason: RejectionReason) -> None:
        self.reject_count += 1
        self.rejections_by_reason[reason] = (
            self.rejections_by_reason.get(reason, 0) + 1
        )

    # -- core decision -----------------------------------------------------

    def _feasible_with(
        self,
        up_link: LinkRef,
        down_link: LinkRef,
        spec: ChannelSpec,
        partition: DeadlinePartition,
    ) -> tuple[FeasibilityReport, FeasibilityReport]:
        """Test both affected links with the candidate's tasks added."""
        up_task = _candidate_task(
            up_link, spec.period, spec.capacity, partition.uplink
        )
        down_task = _candidate_task(
            down_link, spec.period, spec.capacity, partition.downlink
        )
        if self._cache is not None:
            return self._cache.check(up_task), self._cache.check(down_task)
        up_report = is_feasible(list(self._state.tasks_on(up_link)) + [up_task])
        down_report = is_feasible(
            list(self._state.tasks_on(down_link)) + [down_task]
        )
        return up_report, down_report

    def _assess(
        self, source: str, destination: str, spec: ChannelSpec
    ) -> _Assessment:
        """Run the full decision procedure without mutating anything.

        Neither the system state, nor the counters, nor the ID stream
        are touched; :meth:`request` applies the side effects afterward
        and :meth:`preview` returns the assessment as-is. Only the two
        links the candidate would use are tested (Section 18.3.2); with
        a cache, a request repeated against unchanged links is two hits
        in its per-link verdict memo.
        """
        # Pre-checks inlined (has_node is a measurable method call here).
        nodes = self._state._nodes
        if source not in nodes or destination not in nodes:
            return _Assessment(reason=RejectionReason.UNKNOWN_NODE)
        if not spec.is_partitionable():
            return _Assessment(reason=RejectionReason.NOT_PARTITIONABLE)
        up_link = LinkRef.uplink(source)
        down_link = LinkRef.downlink(destination)
        loads = self._state.with_candidate(source, destination, spec)

        try:
            if self._dps_probes:

                def probe(partition: DeadlinePartition) -> bool:
                    up, down = self._feasible_with(
                        up_link, down_link, spec, partition
                    )
                    return up.feasible and down.feasible

                partition = self._dps.partition_with_probe(
                    source, destination, spec, loads, probe
                )
            else:
                partition = self._dps.partition(source, destination, spec, loads)
            partition.validate_for(spec)
        except PartitioningError:
            # The spec itself is partitionable (checked above), so this
            # is *not* Eq. 18.9 failing: the scheme searched and found no
            # split under which both links stay feasible (or produced an
            # invalid split). Miscounting it as NOT_PARTITIONABLE would
            # blame the spec for a load problem.
            return _Assessment(reason=RejectionReason.NO_FEASIBLE_PARTITION)

        up_report, down_report = self._feasible_with(
            up_link, down_link, spec, partition
        )
        if not up_report.feasible or not down_report.feasible:
            reason = (
                RejectionReason.UPLINK_INFEASIBLE
                if not up_report.feasible
                else RejectionReason.DOWNLINK_INFEASIBLE
            )
            return _Assessment(reason, partition, up_report, down_report)
        return _Assessment(None, partition, up_report, down_report)

    def _admit_one(
        self, source: str, destination: str, spec: ChannelSpec
    ) -> AdmissionDecision:
        """Decide one request and install the channel on acceptance.

        The one decision path of :meth:`request` and :meth:`admit_many`;
        it counts nothing (each caller counts its own way).
        """
        candidate = RTChannel(source=source, destination=destination, spec=spec)
        assessment = self._assess(source, destination, spec)
        if assessment.reason is not None:
            candidate.state = ChannelState.REJECTED
            return AdmissionDecision(
                False,
                candidate,
                assessment.reason,
                assessment.partition,
                assessment.uplink_report,
                assessment.downlink_report,
            )
        state = self._state
        candidate.channel_id, self._next_id = allocate_channel_id(
            self._next_id, state.has_channel, len(state), self.MAX_CHANNEL_ID
        )
        # Direct assignment instead of assign_partition(): _assess already
        # ran validate_for on this exact partition/spec pair, so the
        # trusted construction in LinkTask.pair_for_channel stays sound.
        candidate.partition = assessment.partition
        candidate.state = ChannelState.ACTIVE
        state.install(candidate)
        return AdmissionDecision(
            True,
            candidate,
            None,
            assessment.partition,
            assessment.uplink_report,
            assessment.downlink_report,
        )

    def request(
        self, source: str, destination: str, spec: ChannelSpec
    ) -> AdmissionDecision:
        """Decide a channel request; install the channel on acceptance.

        Implements Section 18.2.2's switch-side behaviour minus the
        signalling (for the full handshake, including the destination's
        veto, see :mod:`repro.core.channel_manager`).
        """
        decision = self._admit_one(source, destination, spec)
        if decision.reason is not None:
            self._count_rejection(decision.reason)
            return decision
        self.accept_count += 1
        return decision

    # -- batch engine ------------------------------------------------------

    def admit_many(
        self, requests: Iterable[tuple[str, str, ChannelSpec]]
    ) -> list[AdmissionDecision]:
        """Decide a burst of requests, in order, installing acceptances.

        Equivalent to ``[self.request(s, d, spec) for s, d, spec in
        requests]`` -- same decisions, same rejection reasons, same
        channel IDs, same final state and counters (the differential
        campaign ``repro admission-diff --batch`` and the Hypothesis
        property suite enforce stream equality). A fresh request goes
        through :meth:`request`'s own decision path, one scalar
        :meth:`~repro.core.feasibility_cache.FeasibilityCache.check` per
        affected link; the burst amortizes the rest:

        * repeated *rejected* requests (the saturated tail of an
          acceptance sweep) are answered from a burst-local decision
          template, epoch-validated against the two endpoint links (an
          acceptance invalidates only templates that share a link with
          it), so the repeat path is one dict probe plus two integer
          compares instead of a full re-assessment -- repeats of an
          identical rejected request may therefore share one
          (immutable, value-equal) decision record;
        * accept/reject counters and telemetry are accumulated locally
          and flushed once per burst (in a ``finally``: if a request
          mid-burst raises, the already-decided prefix is still counted
          and installed exactly as the scalar loop would leave it, with
          zero overlay residue beyond it).

        Falls back to the plain scalar loop when there is no cache or
        the scheme is not ``local_only``.
        """
        cache = self._cache
        if cache is None or not self._dps.local_only:
            return [
                self.request(source, destination, spec)
                for source, destination, spec in requests
            ]
        decisions: list[AdmissionDecision] = []
        append = decisions.append
        #: (source, destination, spec) -> (up_entry, up_epoch,
        #: down_entry, down_epoch, rejection decision, count cell).
        #: The decision is reusable while both endpoint links' epochs
        #: are unchanged (the scheme is ``local_only``), checked against
        #: the *entry objects themselves* (two attribute loads, no
        #: lookup; the cache never replaces an entry, so an entry's
        #: epoch is its link's). ``None`` entries mark decisions that
        #: do not depend on link state at all (unknown node /
        #: unpartitionable spec): nodes and specs are immutable during a
        #: burst, so those are always valid. The one-element count
        #: cell tallies how many decisions the record answered (fresh
        #: + template hits), so the hit path touches no dict of
        #: counters; ``records`` keeps every cell ever created,
        #: including superseded templates, for the flush below.
        templates: dict[
            tuple[str, str, ChannelSpec],
            tuple[object, int, object, int, AdmissionDecision, list[int]],
        ] = {}
        records: list[tuple[RejectionReason, list[int]]] = []
        accepts = 0
        fresh_done = 0
        try:
            for req in requests:
                key = req if type(req) is tuple else tuple(req)
                hit = templates.get(key)
                if hit is not None:
                    up_entry = hit[0]
                    if up_entry is None or (
                        up_entry.epoch == hit[1]
                        and hit[2].epoch == hit[3]
                    ):
                        hit[5][0] += 1
                        append(hit[4])
                        continue
                # Fresh path: request()'s decision path; the counter
                # updates are flushed below.
                source, destination, spec = key
                decision = self._admit_one(source, destination, spec)
                fresh_done += 1
                append(decision)
                reason = decision.reason
                if reason is None:
                    accepts += 1
                    continue
                cell = [1]
                records.append((reason, cell))
                if (
                    reason is RejectionReason.UNKNOWN_NODE
                    or reason is RejectionReason.NOT_PARTITIONABLE
                ):
                    templates[key] = (None, 0, None, 0, decision, cell)
                else:
                    up_entry = cache.entry(LinkRef.uplink(source))
                    down_entry = cache.entry(LinkRef.downlink(destination))
                    templates[key] = (
                        up_entry,
                        up_entry.epoch,
                        down_entry,
                        down_entry.epoch,
                        decision,
                        cell,
                    )
        finally:
            # Every cell increment pairs with exactly one appended
            # decision, so on a mid-burst exception the flushed
            # counters cover precisely the already-decided prefix --
            # the same totals the scalar loop would have left behind.
            self.batch_count += 1
            self.batch_template_hits += len(decisions) - fresh_done
            self.accept_count += accepts
            by_reason = self.rejections_by_reason
            rejects = 0
            for reason, cell in records:
                count = cell[0]
                rejects += count
                by_reason[reason] = by_reason.get(reason, 0) + count
            self.reject_count += rejects
        return decisions

    def preview(
        self, source: str, destination: str, spec: ChannelSpec
    ) -> AdmissionDecision:
        """Decide a request without any side effect whatsoever.

        Runs the identical decision procedure as :meth:`request` but
        installs nothing, consumes no channel ID and touches no counter:
        the controller's serialized state is byte-identical before and
        after. On a would-be acceptance the returned channel stays in
        ``REQUESTED`` state with no ID (the partition that *would* be
        used is still reported); on a would-be rejection the candidate
        is marked ``REJECTED`` exactly as a real rejection would.
        """
        candidate = RTChannel(source=source, destination=destination, spec=spec)
        assessment = self._assess(source, destination, spec)
        if assessment.reason is not None:
            candidate.state = ChannelState.REJECTED
        return AdmissionDecision(
            assessment.reason is None,
            candidate,
            assessment.reason,
            assessment.partition,
            assessment.uplink_report,
            assessment.downlink_report,
        )

    def admit_or_raise(
        self, source: str, destination: str, spec: ChannelSpec
    ) -> RTChannel:
        """Like :meth:`request` but raises on rejection (convenience API)."""
        decision = self.request(source, destination, spec)
        if not decision.accepted:
            raise InfeasibleChannelError(
                f"channel {source}->{destination} {spec} rejected: "
                f"{decision.reason.value if decision.reason else 'unknown'}",
                decision=decision,
            )
        return decision.channel

    def would_accept(
        self, source: str, destination: str, spec: ChannelSpec
    ) -> bool:
        """Non-mutating feasibility preview of a request.

        Thin alias for :meth:`preview`. Unlike the historical
        implementation (which installed the channel and rolled it back,
        permanently consuming a 16-bit channel ID per accepted preview
        and leaving stale zero-count histogram keys), this touches no
        controller state at all.
        """
        return self.preview(source, destination, spec).accepted

    def release(self, channel_id: int) -> RTChannel:
        """Tear down an active channel, freeing its reservations."""
        return self._state.release(channel_id)
