"""Intent-lock coordination for shared links in a multi-switch fabric.

A single switch owns every link of its star, so admission is a local
decision. The moment two switches share a trunk, each holds only a
*view* of the trunk's reservation state, and naive concurrent admission
can double-book it. This module adds the coordination layer:

**Intent lock (announce -> hold -> commit).** A switch wanting trunk
capacity broadcasts an :class:`~repro.protocol.frames.IntentFrame`
``ANNOUNCE`` to every peer sharing the link and retransmits it (the
handshake's :class:`~repro.protocol.signaling.RetryPolicy`) until every
peer has ``ACK``-ed. Only then does a *hold window* open; at its expiry
the switch decides:

* if any other active intent on the link -- its own or a peer's --
  precedes it under the total order ``(priority, switch MAC, seq)``,
  it **defers** (bounded re-holds, then aborts);
* otherwise it tests EDF feasibility of its committed trunk view plus
  its candidate, then reliably broadcasts ``COMMIT`` (idempotent by
  channel) or ``ABORT``.

Safety (THEORY.md section 10): a commit requires every peer's ACK
before the hold opens, so two conflicting intents each *know* of the
other before either can commit; the precedence order picks exactly one
winner, hence no two commits on one link overlap a hold window.

**Gossip.** Each switch periodically -- and whenever its own view moves
by more than a utilization threshold -- broadcasts a
:class:`~repro.protocol.frames.GossipFrame` carrying its per-link view
version. A peer whose own version for the link is higher replays its
commits (and its last releases) to the sender; both sides are
idempotent. This does not make views reconverge under control loss:
each switch's version counts only its own view changes, so the
comparison does not tell which view is stale, and the replay carries
only the last ``_RELEASE_LOG_LIMIT`` releases. In 12 of 12 two-switch
fabrics run for 2 s at 20 % loss and then quiesced, the trunk views
still differed (ROADMAP, "Intent lock, safety: ghost reservations on
shared trunks").

:class:`SharedLinkFabric` packages the protocol with a churn-driven
workload into one checkpointable engine: a single content-ordered
agenda heap (no sequence numbers; THEORY.md §10.3 says why the fabric
needs content order) and a modelled control bus that carries the
frozen frame objects themselves. Bytes appear only in checkpoints: a
checkpoint writes each in-flight frame as its bit-exact wire encoding
in hex, which makes every piece of state JSON-serializable, and
:meth:`SharedLinkFabric.resume` decodes it. The codec round-trips
every frame the coordinators build, so the resumed bus carries equal
frames and kill-and-resume reproduces the uninterrupted decision
stream byte for byte -- even with announce/commit legs in flight at
the checkpoint. Checkpoints are built from fresh containers, except
the coordinators' rows that are never mutated once created: the
``applied`` rows, the committed entries, the release-log rows and the
foreign-intent records. A checkpoint shares those with live state; the
cost is linear in the live state.

**Trusted frames.** ACKs, the COMMIT/ABORT frames of :meth:`resolve
<IntentCoordinator.resolve>` and the reconciliation replays copy every
field from a frame, an intent record or a committed entry that was
already checked, so they are built unchecked
(:meth:`~repro.protocol.frames._Frame._trusted`), and so are the
access and trunk :class:`~repro.core.task.LinkTask` s. The checks stay
at the boundary: ANNOUNCE, RELEASE and gossip frames and the codec are
checked, a coordinator checks its MAC and link IDs once,
:meth:`IntentCoordinator.begin_intent` and ``apply_commit`` check the
channel parameters, and :meth:`IntentCoordinator.import_state` checks
every row a trusted frame or task later copies.

Scope: the coordination protocol governs the *shared* trunks. Access
links (node uplink/downlink) are tested and reserved in the fabric's
access cache at arrival time, exactly as a single-switch star would;
only trunk state is replicated and intent-locked.

**Admission engine.** Both tests -- a trunk at the hold's expiry and
the two access links at arrival -- go through
:class:`~repro.core.feasibility_cache.FeasibilityCache`, whose verdicts
equal :func:`~repro.core.feasibility.is_feasible` on the same task set
(THEORY.md sections 7 and 10.4). On the access links the cache is the
store: it holds every reservation, a checkpoint writes it out and
:meth:`SharedLinkFabric.resume` installs it back. On a trunk the cache
is derived state: each coordinator's checkpointed ``committed`` table
stays authoritative, the cache follows every install and release of
it, and :meth:`IntentCoordinator.import_state` rebuilds it.
"""

from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import replace
from fractions import Fraction

from ..core.channel import ChannelSpec

# Not called here -- decisions go through the cache -- but kept bound in
# this module: perfbench's tracer tests patch it by this name.
from ..core.feasibility import is_feasible  # noqa: F401
from ..core.feasibility_cache import FeasibilityCache
from ..core.task import LinkDirection, LinkRef, LinkTask, _trusted_task
from ..errors import ChannelParameterError, ConfigurationError, PartitioningError
from ..protocol.frames import GossipFrame, IntentFrame, IntentKind, decode_signaling
from ..protocol.signaling import RetryPolicy
from ..faults.plan import FaultPlan, class_of_tag
from ..multiswitch.partitioning import split_deadline
from ..sim.rng import RngRegistry
from .churn import ChurnConfig, ChurnProcess

__all__ = ["IntentCoordinator", "SharedLinkFabric", "FABRIC_CHECKPOINT_VERSION"]

FABRIC_CHECKPOINT_VERSION = 2

#: Locally administered unicast base for synthetic switch MACs.
_SWITCH_MAC_BASE = 0x0200_0000_0000

#: Releases remembered per link for gossip-triggered reconciliation.
_RELEASE_LOG_LIMIT = 64

#: Per-leg retransmission of the reliable broadcasts.
_RETRY = RetryPolicy(timeout_ns=3_000_000, max_retries=12, backoff=1.5)
#: Control-bus latency of one frame.
_CONTROL_LATENCY_NS = 1_000
#: Period of each switch's gossip round.
_GOSSIP_EVERY_NS = 10_000_000
#: A switch gossips a link early once its reserved utilization has moved
#: by more than this many percentage points since its last digest.
_GOSSIP_THRESHOLD_PCT = 10

# Agenda priorities (a content-ordered heap: ties break on
# (prio, k1, k2), never on insertion order).
_PRIO_DELIVER = 0
_PRIO_RETRY = 1
_PRIO_HOLD = 2
_PRIO_DEPART = 3
_PRIO_ARRIVE = 4
_PRIO_GOSSIP = 5
_PRIO_CHECKPOINT = 6


def _trunk_ref(link_id: int) -> LinkRef:
    """The shared trunk modelled as one more EDF "processor"."""
    return LinkRef(node=f"trunk{link_id}", direction=LinkDirection.UPLINK)


def _copy_record(record: dict) -> dict:
    """An intent record with its mutable peer/ack lists copied."""
    return dict(record, peers=list(record["peers"]), acked=list(record["acked"]))


def _check_channel(period: int, capacity: int, deadline: int) -> None:
    """The :class:`LinkTask` invariants of values a trusted trunk task
    copies: ``0 < C <= P`` and ``C <= d``."""
    if not 0 < capacity <= period or deadline < capacity:
        raise ChannelParameterError(
            f"trunk task (P, C, d) = ({period}, {capacity}, {deadline}) "
            f"breaks 0 < C <= P, C <= d"
        )


class IntentCoordinator:
    """One switch's replicated-trunk state machine.

    Purely passive: methods mutate local state and *return* frames for
    the caller (the fabric, or a future wire harness) to transmit. All
    state is JSON-serializable via :meth:`export_state`, except the
    derived trunk admission cache, which :meth:`import_state` rebuilds.
    ``committed`` must change only through :meth:`apply_commit` and
    :meth:`apply_release`, which keep that cache in step. The intent
    records in ``pending`` change only through :meth:`begin_intent`,
    :meth:`record_ack`, :meth:`close_hold`, :meth:`resolve` and
    :meth:`abandon`; a caller reads the records they hand back. A
    committed entry, an ``applied`` or release-log row and a
    foreign-intent record are replaced or dropped, never edited:
    :meth:`export_state` shares them.
    """

    def __init__(self, mac: int, link_ids: tuple[int, ...]) -> None:
        self.mac = mac
        self.link_ids = tuple(link_ids)
        # The one range check of the MAC and link IDs that trusted
        # frames copy: a probe ACK per link through the codec's checks.
        for link_id in self.link_ids or (0,):
            IntentFrame(IntentKind.ACK, 0, mac, mac, link_id, 0, 0, 0, 0, 0)
        self._refs = {link_id: _trunk_ref(link_id) for link_id in self.link_ids}
        #: link_id -> {channel_id: [owner_mac, period, capacity, deadline, seq]}
        self.committed: dict[int, dict[int, list[int]]] = {
            link_id: {} for link_id in self.link_ids
        }
        #: derived: incremental EDF test over the committed trunk views.
        self._trunks = FeasibilityCache()
        #: link_id -> count of commit/release ops applied (view version).
        self.version: dict[int, int] = {link_id: 0 for link_id in self.link_ids}
        #: own in-flight intents: seq -> record dict.
        self.pending: dict[int, dict] = {}
        #: peers' announced intents: (mac, seq) -> record dict.
        self.foreign: dict[tuple[int, int], dict] = {}
        #: (mac, seq) pairs whose COMMIT was already applied (dedup).
        self.applied: set[tuple[int, int]] = set()
        #: ``applied`` as sorted ``[mac, seq]`` rows, kept sorted on every
        #: add so checkpoints never sort. A row is never mutated once
        #: inserted, so checkpoints share it with live state.
        self._applied_rows: list[list[int]] = []
        #: per-link recent releases [channel_id, seq] for reconciliation.
        self.release_log: dict[int, list[list[int]]] = {
            link_id: [] for link_id in self.link_ids
        }

    # -- intent origination ------------------------------------------------

    def begin_intent(
        self,
        seq: int,
        link_id: int,
        channel_id: int,
        priority: int,
        spec_on_link: tuple[int, int, int],
        peers: tuple[int, ...],
        *,
        holding: int = 0,
        src: str = "",
        dst: str = "",
    ) -> IntentFrame:
        """Open a local intent record and build its ANNOUNCE frame.

        ``holding``, ``src`` and ``dst`` ride in the record for the
        caller; the protocol never reads them. The frame and
        the channel parameters are checked before the record opens:
        the trusted COMMIT/ABORT frame and trunk task copy them.
        """
        period, capacity, deadline = spec_on_link
        announce = IntentFrame(
            kind=IntentKind.ANNOUNCE,
            intent_seq=seq,
            switch_mac=self.mac,
            ack_mac=0,
            link_id=link_id,
            channel_id=channel_id,
            priority=priority,
            period=period,
            capacity=capacity,
            deadline=deadline,
        )
        _check_channel(period, capacity, deadline)
        self.pending[seq] = {
            "link_id": link_id,
            "channel_id": channel_id,
            "priority": priority,
            "period": period,
            "capacity": capacity,
            "deadline": deadline,
            "peers": sorted(peers),
            "acked": [],
            "state": "announce",
            "defers": 0,
            "holding": holding,
            "src": src,
            "dst": dst,
        }
        return announce

    def precedence_of(self, seq: int) -> tuple[int, int, int]:
        record = self.pending[seq]
        return (record["priority"], self.mac, seq)

    def blockers(self, seq: int, now_ns: int, ttl_ns: int) -> int:
        """Count active intents on this intent's link that precede it.

        Considers the switch's *other* pending intents and every live
        foreign announce (pruning entries older than ``ttl_ns`` -- the
        backstop against a peer that died mid-handshake).
        """
        mine = self.pending[seq]
        my_key = self.precedence_of(seq)
        count = 0
        for other_seq, record in self.pending.items():
            if other_seq == seq or record["link_id"] != mine["link_id"]:
                continue
            if (record["priority"], self.mac, other_seq) < my_key:
                count += 1
        for (mac, fseq), record in list(self.foreign.items()):
            if now_ns - record["heard_at"] > ttl_ns:
                del self.foreign[(mac, fseq)]
                continue
            if record["link_id"] != mine["link_id"]:
                continue
            if (record["priority"], mac, fseq) < my_key:
                count += 1
        return count

    def trunk_feasible(self, seq: int) -> bool:
        """EDF-test the committed view plus this intent's candidate."""
        record = self.pending[seq]
        return self._trunks.check(
            _trusted_task(
                self._refs[record["link_id"]],
                record["period"],
                record["capacity"],
                record["deadline"],
                record["channel_id"],
            )
        ).feasible

    def close_hold(
        self, seq: int, now_ns: int, ttl_ns: int, max_defers: int
    ) -> str | None:
        """Decide an own intent whose hold window just closed.

        ``"defer"`` while a preceding intent blocks it, at most
        ``max_defers`` times (counted in its ``defers``); then
        ``"conflict"``. Else ``"trunk-infeasible"`` or ``"commit"``.
        None when the intent is gone or not holding.
        """
        record = self.pending.get(seq)
        if record is None or record["state"] != "hold":
            return None
        if self.blockers(seq, now_ns, ttl_ns):
            if record["defers"] < max_defers:
                record["defers"] += 1
                return "defer"
            return "conflict"
        if not self.trunk_feasible(seq):
            return "trunk-infeasible"
        return "commit"

    def resolve(self, seq: int, kind: IntentKind) -> tuple[IntentFrame, dict]:
        """Close an own intent: pop its record and build its COMMIT or
        ABORT frame; returns ``(frame, record)``."""
        if kind is not IntentKind.COMMIT and kind is not IntentKind.ABORT:
            raise ConfigurationError(
                f"an intent resolves by COMMIT or ABORT, not {kind!r}"
            )
        record = self.pending.pop(seq)
        return self._resolution_frame(seq, record, kind), record

    def _resolution_frame(
        self, seq: int, record: dict, kind: IntentKind
    ) -> IntentFrame:
        """The COMMIT or ABORT frame of an intent record, which copies
        the fields its checked ANNOUNCE carried."""
        return IntentFrame._trusted(
            kind, seq, self.mac, 0, record["link_id"], record["channel_id"],
            record["priority"], record["period"], record["capacity"],
            record["deadline"],
        )

    def abandon(self, seq: int) -> dict | None:
        """Pop an own intent still waiting for ACKs (its announce timed
        out); None when it is gone or past the announce."""
        record = self.pending.get(seq)
        if record is None or record["state"] != "announce":
            return None
        return self.pending.pop(seq)

    def reserved_channel_ids(self) -> list[int]:
        """The channel IDs of this switch's unresolved intents."""
        return [record["channel_id"] for record in self.pending.values()]

    def release_frame(self, seq: int, link_id: int, channel_id: int) -> IntentFrame:
        entry = self.committed[link_id][channel_id]
        return IntentFrame(
            kind=IntentKind.RELEASE,
            intent_seq=seq,
            switch_mac=self.mac,
            ack_mac=0,
            link_id=link_id,
            channel_id=channel_id,
            priority=0,
            period=entry[1],
            capacity=entry[2],
            deadline=entry[3],
        )

    # -- frame application (local and remote, all idempotent) --------------

    def ack_frame(self, frame: IntentFrame) -> IntentFrame:
        """The ACK this switch returns for a peer's reliable frame: the
        checked frame's fields plus this switch's checked MAC."""
        return IntentFrame._trusted(
            IntentKind.ACK, frame.intent_seq, frame.switch_mac, self.mac,
            frame.link_id, frame.channel_id, frame.priority, frame.period,
            frame.capacity, frame.deadline,
        )

    def record_announce(self, frame: IntentFrame, now_ns: int) -> IntentFrame:
        """Note a peer's intent; return the ACK to send back."""
        key = (frame.switch_mac, frame.intent_seq)
        if key not in self.applied:
            self.foreign[key] = {
                "link_id": frame.link_id,
                "channel_id": frame.channel_id,
                "priority": frame.priority,
                "heard_at": now_ns,
            }
        return self.ack_frame(frame)

    def record_ack(self, frame: IntentFrame) -> bool:
        """Credit a peer's ACK; True when every peer has answered, which
        moves the intent to ``"hold"``."""
        record = self.pending.get(frame.intent_seq)
        if record is None or record["state"] != "announce":
            return False
        if frame.ack_mac not in record["acked"]:
            record["acked"].append(frame.ack_mac)
            record["acked"].sort()
        if record["acked"] != record["peers"]:
            return False
        record["state"] = "hold"
        return True

    def apply_commit(self, frame: IntentFrame) -> bool:
        """Install a commit into the replicated view (idempotent)."""
        key = (frame.switch_mac, frame.intent_seq)
        self.foreign.pop(key, None)
        if key in self.applied:
            return False
        _check_channel(frame.period, frame.capacity, frame.deadline)
        self._mark_applied(key)
        entry = [
            frame.switch_mac,
            frame.period,
            frame.capacity,
            frame.deadline,
            frame.intent_seq,
        ]
        view = self.committed[frame.link_id]
        if frame.channel_id in view:
            # A reused ID whose release this switch missed: the commit
            # replaces the stale record, so the cache drops it first.
            self._trunks.release(self._refs[frame.link_id], frame.channel_id)
        view[frame.channel_id] = entry
        self._install_trunk(frame.link_id, frame.channel_id, entry)
        self.version[frame.link_id] += 1
        return True

    def _mark_applied(self, key: tuple[int, int]) -> None:
        self.applied.add(key)
        insort(self._applied_rows, list(key))

    def _install_trunk(
        self, link_id: int, channel_id: int, entry: list[int]
    ) -> None:
        """Install a committed entry whose channel parameters passed
        :func:`_check_channel`."""
        self._trunks.install(
            _trusted_task(
                self._refs[link_id], entry[1], entry[2], entry[3], channel_id
            )
        )

    def apply_abort(self, frame: IntentFrame) -> None:
        self.foreign.pop((frame.switch_mac, frame.intent_seq), None)

    def apply_release(self, frame: IntentFrame) -> bool:
        """Remove a released channel from the view (idempotent)."""
        key = (frame.switch_mac, frame.intent_seq)
        if key in self.applied:
            return False
        self._mark_applied(key)
        removed = self.committed[frame.link_id].pop(frame.channel_id, None)
        if removed is None:
            return False
        self._trunks.release(self._refs[frame.link_id], frame.channel_id)
        self.version[frame.link_id] += 1
        log = self.release_log[frame.link_id]
        log.append([frame.channel_id, frame.intent_seq])
        del log[:-_RELEASE_LOG_LIMIT]
        return True

    # -- gossip ------------------------------------------------------------

    def trunk_utilization(self, link_id: int) -> Fraction:
        """Exact committed utilization of a link, as the trunk cache
        keeps it (the value of :meth:`utilization_of`)."""
        return self._trunks.link_utilization(self._refs[link_id])

    def utilization_of(self, link_id: int) -> tuple[int, int]:
        """Exact committed utilization of a link as (num, den), the
        product of its periods unreduced (the gossip frame's fields)."""
        num, den = 0, 1
        for entry in self.committed[link_id].values():
            num = num * entry[1] + entry[2] * den
            den = den * entry[1]
        return num, den

    def gossip_frame(self, link_id: int) -> GossipFrame:
        num, den = self.utilization_of(link_id)
        # Clamp into the frame's 32-bit fields (den grows as a product
        # of periods; the ratio is all gossip consumers compare).
        while num >> 32 or den >> 32:
            num >>= 1
            den >>= 1
        return GossipFrame(
            switch_mac=self.mac,
            link_id=link_id,
            version=self.version[link_id],
            load=len(self.committed[link_id]),
            util_num=num,
            util_den=max(1, den),
        )

    def reconciliation_frames(self, link_id: int) -> list[IntentFrame]:
        """Re-broadcast the link view for a peer that fell behind.

        Commits are replayed from the live view; releases from the
        bounded recent-release log. Every frame is idempotent at the
        receiver, so over-sending is harmless. The frames copy checked
        rows (see :meth:`import_state`), so they are built unchecked.
        """
        trusted = IntentFrame._trusted
        frames = [
            trusted(IntentKind.COMMIT, entry[4], entry[0], 0, link_id,
                    channel_id, 0, entry[1], entry[2], entry[3])
            for channel_id, entry in sorted(self.committed[link_id].items())
        ]
        frames += [
            trusted(IntentKind.RELEASE, seq, self.mac, 0, link_id,
                    channel_id, 0, 1, 1, 1)
            for channel_id, seq in self.release_log[link_id]
        ]
        return frames

    # -- checkpoint/resume -------------------------------------------------

    def export_state(self) -> dict:
        """The coordinator's state in JSON-compatible containers.

        Every container is fresh except the rows that are never mutated
        once created, which are the live ones: each ``[mac, seq]`` row
        of ``applied``, each committed entry, each ``[channel_id, seq]``
        release-log row and each foreign-intent record. The pending
        records, which change until they resolve, are copied. A
        consumer that edits the state copies it first.
        """
        return {
            "mac": self.mac,
            "committed": {
                str(link_id): {
                    str(channel_id): entry
                    for channel_id, entry in view.items()
                }
                for link_id, view in self.committed.items()
            },
            "version": {str(k): v for k, v in self.version.items()},
            "pending": {
                str(seq): _copy_record(r) for seq, r in self.pending.items()
            },
            "foreign": [
                [mac, seq, record]
                for (mac, seq), record in sorted(self.foreign.items())
            ],
            "applied": list(self._applied_rows),
            "release_log": {
                str(k): list(v) for k, v in self.release_log.items()
            },
        }

    def import_state(self, data: dict) -> None:
        """Load :meth:`export_state` output into fresh containers.

        Every row a trusted frame or task later copies is checked here:
        the COMMIT and ABORT frames of the pending records and the
        reconciliation replays of the committed entries and the release
        log go through the checking constructor (``FieldRangeError``),
        and the channel parameters of the pending records and committed
        entries must satisfy the :class:`LinkTask` invariants
        (``ChannelParameterError``). A corrupt checkpoint therefore
        fails here, not mid-run.
        """
        if int(data["mac"]) != self.mac:
            raise ConfigurationError(
                f"coordinator snapshot is for MAC {data['mac']:#x}, "
                f"this switch is {self.mac:#x}"
            )
        self.committed = {
            int(link_id): {
                int(channel_id): list(map(int, entry))
                for channel_id, entry in view.items()
            }
            for link_id, view in data["committed"].items()
        }
        self.version = {int(k): int(v) for k, v in data["version"].items()}
        self.pending = {
            int(seq): _copy_record(r) for seq, r in data["pending"].items()
        }
        self.foreign = {
            (int(mac), int(seq)): dict(record)
            for mac, seq, record in data["foreign"]
        }
        self._applied_rows = sorted(
            [int(mac), int(seq)] for mac, seq in data["applied"]
        )
        self.applied = {(mac, seq) for mac, seq in self._applied_rows}
        self.release_log = {
            int(k): [list(map(int, e)) for e in v]
            for k, v in data["release_log"].items()
        }
        for seq, record in self.pending.items():
            replace(self._resolution_frame(seq, record, IntentKind.COMMIT))
            _check_channel(
                record["period"], record["capacity"], record["deadline"]
            )
        for link_id in self.committed:
            for frame in self.reconciliation_frames(link_id):
                replace(frame)
        self._trunks = FeasibilityCache()
        for link_id, view in self.committed.items():
            for channel_id, entry in view.items():
                _check_channel(entry[1], entry[2], entry[3])
                self._install_trunk(link_id, channel_id, entry)


class SharedLinkFabric:
    """A churn-driven multi-switch fabric with intent-locked trunks.

    ``n_switches`` switches form a chain; switch ``i`` and ``i+1``
    share trunk ``link_id=i``. Each switch serves ``nodes_per_switch``
    end nodes and runs its own seeded churn stream; every generated
    channel crosses to an adjacent switch, so every admission exercises
    the intent lock. Control frames travel as frame objects over a
    modelled control bus with fixed latency, loss classified by frame
    type through a :class:`~repro.faults.plan.FaultPlan`, and per-leg
    retransmission; they are encoded only when a checkpoint is written.

    The engine is a content-ordered agenda heap, so
    :meth:`take_checkpoint`/:meth:`resume` reproduce the uninterrupted
    run byte for byte from any checkpoint -- including mid-handshake.
    """

    def __init__(
        self,
        *,
        n_switches: int = 2,
        nodes_per_switch: int = 4,
        seed: int = 0,
        fault_plan: FaultPlan | None = None,
        hold_ns: int = 2_000_000,
        checkpoint_every_ns: int | None = None,
        max_defers: int = 4,
    ) -> None:
        if n_switches < 2:
            raise ConfigurationError(
                f"a shared-link fabric needs >= 2 switches, got {n_switches}"
            )
        if nodes_per_switch < 1:
            raise ConfigurationError("need at least one node per switch")
        if hold_ns <= 0:
            raise ConfigurationError(f"hold_ns must be positive, got {hold_ns}")
        if checkpoint_every_ns is not None and checkpoint_every_ns <= 0:
            raise ConfigurationError(
                f"checkpoint_every_ns must be positive, got "
                f"{checkpoint_every_ns}"
            )
        self.n_switches = n_switches
        self.nodes_per_switch = nodes_per_switch
        self.seed = seed
        self.nodes = [
            tuple(f"n{i}_{k}" for k in range(nodes_per_switch))
            for i in range(n_switches)
        ]
        #: every node of the fabric, switch by switch; the churn streams
        #: draw their endpoints from it.
        self._all_nodes = tuple(n for group in self.nodes for n in group)
        registry = RngRegistry(seed)
        config = ChurnConfig(nodes=self._all_nodes)
        self.churn = [
            ChurnProcess(registry.fork(i + 1), config)
            for i in range(n_switches)
        ]
        self.plan = fault_plan
        self.hold_ns = hold_ns
        self.checkpoint_every_ns = checkpoint_every_ns
        self.max_defers = max_defers
        #: foreign-intent staleness backstop: generous multiple of the
        #: worst-case announce->resolution span under full retries.
        self.foreign_ttl_ns = (
            self.hold_ns * (max_defers + 2)
            + _RETRY.delay_ns(0) * (_RETRY.max_retries + 1)
        )
        self.coordinators = [
            IntentCoordinator(
                _SWITCH_MAC_BASE + i, self._links_of_switch(i)
            )
            for i in range(n_switches)
        ]
        # -- derived state (never checkpointed; resume() rebuilds it) --
        #: split_deadline(d, C, (1, 1, 1)) per (d, C); None = no split.
        self._splits: dict[tuple[int, int], list[int] | None] = {}
        #: the fault plan's link name of each bus leg, [src][dst].
        self._bus_links = tuple(
            tuple(f"sw{src}->sw{dst}" for dst in range(n_switches))
            for src in range(n_switches)
        )
        #: the handler of each IntentFrame kind.
        self._handlers = {
            IntentKind.ANNOUNCE: self._on_announce,
            IntentKind.ACK: self._on_ack,
            IntentKind.COMMIT: self._on_commit,
            IntentKind.ABORT: self._on_abort,
            IntentKind.RELEASE: self._on_release,
        }
        # -- mutable engine state (everything below is checkpointed) --
        self.now = 0
        self._agenda: list[tuple[int, int, int, int]] = []
        #: fabric-global intent/message sequence.
        self._next_seq = 1
        self._next_delivery = 1
        #: delivery_id -> [dst_idx, frame]; checkpoints write the frame
        #: as its wire encoding in hex.
        self._wire: dict[int, list] = {}
        #: seq -> reliable-broadcast record; its "payload" is the frame
        #: it retransmits (whose kind and switch MAC name the leg's
        #: kind and sender), written to checkpoints as hex like
        #: ``_wire``.
        self._outstanding: dict[int, dict] = {}
        #: per-switch next channel id counter (stride-partitioned).
        self._next_channel = [0] * n_switches
        #: every access link's reservations, keyed by the interned
        #: ``LinkRef.uplink(node)``/``LinkRef.downlink(node)``; a
        #: checkpoint writes them as ``"access"``.
        self._access_cache = FeasibilityCache()
        #: committed channels: cid -> [link_id, src, dst]
        self._active: dict[int, list] = {}
        self._next_arrival = [0] * n_switches
        self._last_gossip_util: dict[str, list[int]] = {}
        self._started = False
        self.ledger: list[tuple] = []
        self.counters = {
            "arrivals": 0,
            "local_rejects": 0,
            "commits": 0,
            "aborts": 0,
            "defers": 0,
            "departures": 0,
            "announce_timeouts": 0,
            "retransmissions": 0,
            "gossip_rounds": 0,
            "reconciliations": 0,
            "checkpoints": 0,
        }
        self.checkpoints: list[dict] = []

    # -- topology helpers --------------------------------------------------

    def _links_of_switch(self, i: int) -> tuple[int, ...]:
        links = []
        if i > 0:
            links.append(i - 1)
        if i < self.n_switches - 1:
            links.append(i)
        return tuple(links)

    def _peers_of_link(self, link_id: int) -> tuple[int, ...]:
        return (link_id, link_id + 1)

    def _others_on_link(self, link_id: int, i: int) -> tuple[int, ...]:
        """The switches sharing trunk ``link_id`` with switch ``i``."""
        return tuple(p for p in self._peers_of_link(link_id) if p != i)

    def _switch_of_mac(self, mac: int) -> int:
        return mac - _SWITCH_MAC_BASE

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        if self._started:
            raise ConfigurationError("fabric already started")
        self._started = True
        for i in range(self.n_switches):
            self._next_arrival[i] = self.churn[i].next_interarrival_ns()
            self._push(self._next_arrival[i], _PRIO_ARRIVE, i, 0)
            self._push(_GOSSIP_EVERY_NS, _PRIO_GOSSIP, i, 0)
        if self.checkpoint_every_ns is not None:
            self._push(self.checkpoint_every_ns, _PRIO_CHECKPOINT, 0, 0)

    def run_until(self, until_ns: int) -> int:
        """Pump the agenda up to and including ``until_ns``."""
        if not self._started:
            raise ConfigurationError("call start() (or resume()) first")
        dispatched = 0
        while self._agenda and self._agenda[0][0] <= until_ns:
            at, prio, k1, k2 = heapq.heappop(self._agenda)
            self.now = at
            self._dispatch(prio, k1, k2)
            dispatched += 1
        self.now = max(self.now, until_ns)
        return dispatched

    def _push(self, at: int, prio: int, k1: int, k2: int) -> None:
        heapq.heappush(self._agenda, (at, prio, k1, k2))

    def _dispatch(self, prio: int, k1: int, k2: int) -> None:
        if prio == _PRIO_DELIVER:
            self._ev_deliver(k1)
        elif prio == _PRIO_RETRY:
            self._ev_retry(k1)
        elif prio == _PRIO_HOLD:
            self._ev_hold(k1)
        elif prio == _PRIO_DEPART:
            self._ev_depart(k1, k2)
        elif prio == _PRIO_ARRIVE:
            self._ev_arrive(k1)
        elif prio == _PRIO_GOSSIP:
            self._ev_gossip(k1)
        else:
            self._ev_checkpoint()

    # -- the control bus ---------------------------------------------------

    def _transmit(
        self, src: int, dst: int, frame: IntentFrame | GossipFrame
    ) -> None:
        """One attempt to move a control frame; may be dropped."""
        if self.plan is not None and self.plan.should_drop_class(
            class_of_tag(frame.TYPE), self._bus_links[src][dst], self.now
        ):
            return
        delivery_id = self._next_delivery
        self._next_delivery += 1
        self._wire[delivery_id] = [dst, frame]
        self._push(
            self.now + _CONTROL_LATENCY_NS, _PRIO_DELIVER, delivery_id, 0
        )

    def _send_reliable(
        self, src: int, frame: IntentFrame, peers: tuple[int, ...]
    ) -> None:
        """Broadcast with per-peer retransmission until ACKed.

        ANNOUNCE legs are ACKed explicitly by the protocol; COMMIT,
        ABORT and RELEASE legs reuse the same ACK frame (the receiver
        acks whatever reliable kind it hears, and application is
        idempotent, so duplicated deliveries are harmless).
        """
        self._outstanding[frame.intent_seq] = {
            "payload": frame,
            "pending": sorted(peers),
            "attempt": 0,
        }
        for dst in peers:
            self._transmit(src, dst, frame)
        self._push(
            self.now + _RETRY.delay_ns(0),
            _PRIO_RETRY,
            frame.intent_seq,
            0,
        )

    def _ev_retry(self, seq: int) -> None:
        record = self._outstanding.get(seq)
        if record is None:
            return
        if not record["pending"]:
            del self._outstanding[seq]
            return
        frame = record["payload"]
        if record["attempt"] >= _RETRY.max_retries:
            del self._outstanding[seq]
            if frame.kind is IntentKind.ANNOUNCE:
                self._announce_timed_out(seq)
            return
        record["attempt"] += 1
        src = self._switch_of_mac(frame.switch_mac)
        for dst in record["pending"]:
            self.counters["retransmissions"] += 1
            self._transmit(src, dst, frame)
        self._push(
            self.now + _RETRY.delay_ns(record["attempt"]),
            _PRIO_RETRY,
            seq,
            0,
        )

    def _ev_deliver(self, delivery_id: int) -> None:
        entry = self._wire.pop(delivery_id, None)
        if entry is None:
            return
        dst, frame = entry
        if type(frame) is GossipFrame:
            self._on_gossip(dst, frame)
        else:
            self._handlers[frame.kind](dst, frame)

    def _ack_and_mark(self, receiver: int, frame: IntentFrame) -> None:
        """Send the generic reliable-delivery ACK back to the origin."""
        ack = self.coordinators[receiver].ack_frame(frame)
        self._transmit(receiver, self._switch_of_mac(frame.switch_mac), ack)

    # -- protocol event handlers -------------------------------------------

    def _on_announce(self, receiver: int, frame: IntentFrame) -> None:
        ack = self.coordinators[receiver].record_announce(frame, self.now)
        self._transmit(receiver, self._switch_of_mac(frame.switch_mac), ack)

    def _on_ack(self, receiver: int, frame: IntentFrame) -> None:
        outstanding = self._outstanding.get(frame.intent_seq)
        if outstanding is not None:
            peer = self._switch_of_mac(frame.ack_mac)
            if peer in outstanding["pending"]:
                outstanding["pending"].remove(peer)
            if not outstanding["pending"]:
                del self._outstanding[frame.intent_seq]
        if self.coordinators[receiver].record_ack(frame):
            self._push(
                self.now + self.hold_ns, _PRIO_HOLD, frame.intent_seq, 0
            )

    def _on_commit(self, receiver: int, frame: IntentFrame) -> None:
        self.coordinators[receiver].apply_commit(frame)
        self._ack_and_mark(receiver, frame)
        self._maybe_threshold_gossip(receiver, frame.link_id)

    def _on_abort(self, receiver: int, frame: IntentFrame) -> None:
        self.coordinators[receiver].apply_abort(frame)
        self._ack_and_mark(receiver, frame)

    def _on_release(self, receiver: int, frame: IntentFrame) -> None:
        self.coordinators[receiver].apply_release(frame)
        self._ack_and_mark(receiver, frame)
        self._maybe_threshold_gossip(receiver, frame.link_id)

    def _on_gossip(self, receiver: int, frame: GossipFrame) -> None:
        coordinator = self.coordinators[receiver]
        if frame.link_id not in coordinator.version:
            return
        if coordinator.version[frame.link_id] > frame.version:
            # The sender is behind: replay our view (idempotent).
            self.counters["reconciliations"] += 1
            sender = self._switch_of_mac(frame.switch_mac)
            for reply in coordinator.reconciliation_frames(frame.link_id):
                self._transmit(receiver, sender, reply)

    # -- workload events ---------------------------------------------------

    def _ev_arrive(self, i: int) -> None:
        churn = self.churn[i]
        request = churn.draw_request()
        holding = churn.holding_ns()
        self.counters["arrivals"] += 1
        all_nodes = self._all_nodes
        src_slot = all_nodes.index(request.source) % self.nodes_per_switch
        src = self.nodes[i][src_slot]
        neighbours = [j for j in (i - 1, i + 1) if 0 <= j < self.n_switches]
        dst_pick = all_nodes.index(request.destination)
        j = neighbours[dst_pick % len(neighbours)]
        dst = self.nodes[j][dst_pick % self.nodes_per_switch]
        link_id = min(i, j)
        self._admit(i, j, link_id, src, dst, request.spec, holding)
        self._next_arrival[i] = self.now + churn.next_interarrival_ns()
        self._push(self._next_arrival[i], _PRIO_ARRIVE, i, 0)

    def _reserved_channel_ids(self) -> set[int]:
        """Channel IDs bound to an unresolved intent (id reuse guard)."""
        return {cid for coordinator in self.coordinators
                for cid in coordinator.reserved_channel_ids()}

    def _allocate_channel_id(self, i: int) -> int:
        """Stride-partitioned 16-bit IDs: switch ``i`` owns ``i mod n``."""
        span = 0xFFFF // self.n_switches
        reserved = self._reserved_channel_ids()
        for _ in range(span):
            slot = self._next_channel[i] % span
            self._next_channel[i] += 1
            candidate = 1 + slot * self.n_switches + i
            if candidate not in self._active and candidate not in reserved:
                return candidate
        raise ConfigurationError(
            f"switch {i} exhausted its channel-ID partition"
        )

    def _split(self, deadline: int, capacity: int) -> list[int] | None:
        """Memoised even three-hop split of ``deadline`` (None = none)."""
        key = (deadline, capacity)
        if key not in self._splits:
            try:
                self._splits[key] = split_deadline(deadline, capacity, (1, 1, 1))
            except PartitioningError:
                self._splits[key] = None
        return self._splits[key]

    def _admit(
        self,
        i: int,
        j: int,
        link_id: int,
        src: str,
        dst: str,
        spec: ChannelSpec,
        holding: int,
    ) -> None:
        parts = self._split(spec.deadline, spec.capacity)
        if parts is None:
            self.counters["local_rejects"] += 1
            self.ledger.append(
                ("reject", self.now, i, src, dst, spec.period,
                 spec.capacity, spec.deadline, "partition")
            )
            return
        channel_id = self._allocate_channel_id(i)
        # Trusted tasks: the spec is a checked ChannelSpec (0 < C <= P)
        # and every part of the split is at least C.
        reservations = [
            _trusted_task(link, spec.period, spec.capacity, deadline,
                          channel_id)
            for link, deadline in ((LinkRef.uplink(src), parts[0]),
                                   (LinkRef.downlink(dst), parts[2]))
        ]
        for task in reservations:
            if not self._access_cache.check(task).feasible:
                self.counters["local_rejects"] += 1
                self.ledger.append(
                    ("reject", self.now, i, src, dst, spec.period,
                     spec.capacity, spec.deadline, "access-link")
                )
                return
        # Reserve access capacity now; released on abort or departure.
        for task in reservations:
            self._access_cache.install(task)
        seq = self._next_seq
        self._next_seq += 1
        # Rate-monotonic-flavoured precedence: shorter period wins the
        # trunk; (priority, MAC, seq) breaks the rest deterministically.
        priority = min(255, spec.period // 16)
        peers = self._others_on_link(link_id, i)
        announce = self.coordinators[i].begin_intent(
            seq,
            link_id,
            channel_id,
            priority,
            (spec.period, spec.capacity, parts[1]),
            peers=tuple(self.coordinators[p].mac for p in peers),
            holding=holding,
            src=src,
            dst=dst,
        )
        self.ledger.append(
            ("announce", self.now, i, channel_id, link_id, spec.period,
             spec.capacity, spec.deadline)
        )
        self._send_reliable(i, announce, peers)

    def _ev_hold(self, seq: int) -> None:
        owner = self._owner_of_seq(seq)
        if owner is None:
            return
        outcome = self.coordinators[owner].close_hold(
            seq, self.now, self.foreign_ttl_ns, self.max_defers
        )
        if outcome is None:
            return
        if outcome == "defer":
            self.counters["defers"] += 1
            self._push(self.now + self.hold_ns, _PRIO_HOLD, seq, 0)
        elif outcome == "commit":
            self._resolve_commit(owner, seq)
        else:
            self._resolve_abort(owner, seq, outcome)

    def _owner_of_seq(self, seq: int) -> int | None:
        for i, coordinator in enumerate(self.coordinators):
            if seq in coordinator.pending:
                return i
        return None

    def _resolve_commit(self, owner: int, seq: int) -> None:
        coordinator = self.coordinators[owner]
        frame, record = coordinator.resolve(seq, IntentKind.COMMIT)
        coordinator.apply_commit(frame)
        channel_id, link_id = frame.channel_id, frame.link_id
        departs_at = self.now + record["holding"]
        self._active[channel_id] = [link_id, record["src"], record["dst"]]
        self.counters["commits"] += 1
        self.ledger.append(("commit", self.now, owner, channel_id, link_id))
        self._send_reliable(owner, frame, self._others_on_link(link_id, owner))
        self._push(departs_at, _PRIO_DEPART, owner, channel_id)
        self._maybe_threshold_gossip(owner, link_id)

    def _resolve_abort(self, owner: int, seq: int, reason: str) -> None:
        frame, record = self.coordinators[owner].resolve(seq, IntentKind.ABORT)
        self._abort(owner, record, reason)
        self._send_reliable(
            owner, frame, self._others_on_link(frame.link_id, owner)
        )

    def _announce_timed_out(self, seq: int) -> None:
        owner = self._owner_of_seq(seq)
        if owner is None:
            return
        record = self.coordinators[owner].abandon(seq)
        if record is None:
            return
        self.counters["announce_timeouts"] += 1
        self._abort(owner, record, "announce-timeout")

    def _abort(self, owner: int, record: dict, reason: str) -> None:
        """Free an aborted intent's access links, count and log it."""
        channel_id = record["channel_id"]
        self._drop_access(record["src"], record["dst"], channel_id)
        self.counters["aborts"] += 1
        self.ledger.append(("abort", self.now, owner, channel_id, reason))

    def _drop_access(self, src: str, dst: str, channel_id: int) -> None:
        self._access_cache.release(LinkRef.uplink(src), channel_id)
        self._access_cache.release(LinkRef.downlink(dst), channel_id)

    def _ev_depart(self, owner: int, channel_id: int) -> None:
        entry = self._active.pop(channel_id, None)
        if entry is None:
            return
        link_id, src, dst = entry
        self._drop_access(src, dst, channel_id)
        coordinator = self.coordinators[owner]
        seq = self._next_seq
        self._next_seq += 1
        frame = coordinator.release_frame(seq, link_id, channel_id)
        coordinator.apply_release(frame)
        self.counters["departures"] += 1
        self.ledger.append(("depart", self.now, owner, channel_id))
        self._send_reliable(owner, frame, self._others_on_link(link_id, owner))
        self._maybe_threshold_gossip(owner, link_id)

    # -- gossip scheduling -------------------------------------------------

    def _ev_gossip(self, i: int) -> None:
        self.counters["gossip_rounds"] += 1
        for link_id in self.coordinators[i].link_ids:
            self._send_gossip(i, link_id)
        self._push(self.now + _GOSSIP_EVERY_NS, _PRIO_GOSSIP, i, 0)

    def _maybe_threshold_gossip(self, i: int, link_id: int) -> None:
        # The test depends only on the utilization's value, so the
        # trunk cache's reduced fraction serves.
        util = self.coordinators[i].trunk_utilization(link_id)
        num, den = util.numerator, util.denominator
        last = self._last_gossip_util.get(f"{i}:{link_id}", [0, 1])
        # |num/den - last| > threshold, in integers.
        delta = abs(num * last[1] - last[0] * den)
        if delta * 100 > _GOSSIP_THRESHOLD_PCT * den * last[1]:
            self._send_gossip(i, link_id)

    def _send_gossip(self, i: int, link_id: int) -> None:
        """Send switch ``i``'s digest of one trunk to the other sharers."""
        frame = self.coordinators[i].gossip_frame(link_id)
        self._last_gossip_util[f"{i}:{link_id}"] = [
            frame.util_num, frame.util_den
        ]
        for p in self._others_on_link(link_id, i):
            self._transmit(i, p, frame)

    # -- checkpointing -----------------------------------------------------

    def _ev_checkpoint(self) -> None:
        # Bump and reschedule *before* capturing: the snapshot's agenda
        # must already contain the next checkpoint entry, or a resumed
        # fabric never checkpoints again.
        self.counters["checkpoints"] += 1
        assert self.checkpoint_every_ns is not None
        self._push(
            self.now + self.checkpoint_every_ns, _PRIO_CHECKPOINT, 0, 0
        )
        self.take_checkpoint()

    def take_checkpoint(self) -> dict:
        """Everything a resumed fabric needs, as one JSON-able dict.

        In-flight frames (``wire``, each outstanding ``payload``) are
        written as their wire encoding in hex. Every container is built
        fresh -- nested lists the engine keeps mutating (ack lists,
        outstanding peer sets) are copied -- except the coordinators'
        rows that are never mutated once created: ``applied`` rows,
        committed entries, release-log rows and foreign-intent records
        (see :meth:`IntentCoordinator.export_state`). So the checkpoint
        stays frozen as the run continues past it.
        """
        data = {
            "version": FABRIC_CHECKPOINT_VERSION,
            "now_ns": self.now,
            "seed": self.seed,
            "n_switches": self.n_switches,
            "nodes_per_switch": self.nodes_per_switch,
            "agenda": [list(e) for e in sorted(self._agenda)],
            "next_seq": self._next_seq,
            "next_delivery": self._next_delivery,
            "wire": {
                str(k): [dst, frame.encode().hex()]
                for k, (dst, frame) in sorted(self._wire.items())
            },
            "outstanding": {
                str(k): dict(
                    v,
                    payload=v["payload"].encode().hex(),
                    pending=list(v["pending"]),
                )
                for k, v in sorted(self._outstanding.items())
            },
            "next_channel": list(self._next_channel),
            "access": self._access_rows(),
            "active": {
                str(cid): list(entry)
                for cid, entry in sorted(self._active.items())
            },
            "next_arrival": list(self._next_arrival),
            "last_gossip_util": {
                k: list(v) for k, v in sorted(self._last_gossip_util.items())
            },
            "coordinators": [c.export_state() for c in self.coordinators],
            "churn": [c.export_state() for c in self.churn],
            "fault_plan": (
                None if self.plan is None else self.plan.export_state()
            ),
            "counters": dict(self.counters),
            "ledger_len": len(self.ledger),
        }
        self.checkpoints.append(data)
        return data

    def _access_rows(self) -> dict[str, dict[str, list[int]]]:
        """Occupied access links, sorted: ``node|up``/``node|down`` ->
        ``{cid: [P, C, d]}`` in install order."""
        cache = self._access_cache
        rows = {}
        for link in cache.occupied_links():
            side = "up" if link.direction is LinkDirection.UPLINK else "down"
            rows[f"{link.node}|{side}"] = {
                str(task.channel_id): list(task.pcd)
                for task in cache.tasks_on(link)
            }
        return dict(sorted(rows.items()))

    @classmethod
    def resume(cls, data: dict, **kwargs) -> "SharedLinkFabric":
        """Rebuild a fabric from :meth:`take_checkpoint` output.

        ``kwargs`` must supply the same code-level configuration
        (fault_plan, hold_ns, ...) as the original; the checkpoint
        carries only positions and views, not policy.
        """
        if data.get("version") != FABRIC_CHECKPOINT_VERSION:
            raise ConfigurationError(
                f"fabric checkpoint version {data.get('version')!r} is not "
                f"supported (this build reads {FABRIC_CHECKPOINT_VERSION})"
            )
        fabric = cls(
            n_switches=int(data["n_switches"]),
            nodes_per_switch=int(data["nodes_per_switch"]),
            seed=int(data["seed"]),
            **kwargs,
        )
        fabric._started = True
        fabric.now = int(data["now_ns"])
        fabric._agenda = [tuple(e) for e in data["agenda"]]
        heapq.heapify(fabric._agenda)
        fabric._next_seq = int(data["next_seq"])
        fabric._next_delivery = int(data["next_delivery"])
        fabric._wire = {
            int(k): [dst, decode_signaling(bytes.fromhex(payload))]
            for k, (dst, payload) in data["wire"].items()
        }
        fabric._outstanding = {
            int(k): dict(
                v,
                payload=decode_signaling(bytes.fromhex(v["payload"])),
                pending=list(v["pending"]),
            )
            for k, v in data["outstanding"].items()
        }
        fabric._next_channel = [int(v) for v in data["next_channel"]]
        for key, view in data["access"].items():
            node, side = key.rsplit("|", 1)
            ref = LinkRef.uplink if side == "up" else LinkRef.downlink
            for cid, (p, c, d) in view.items():
                fabric._access_cache.install(LinkTask(
                    link=ref(node), period=int(p), capacity=int(c),
                    deadline=int(d), channel_id=int(cid),
                ))
        fabric._active = {
            int(cid): list(entry) for cid, entry in data["active"].items()
        }
        fabric._next_arrival = [int(v) for v in data["next_arrival"]]
        fabric._last_gossip_util = {
            k: list(v) for k, v in data["last_gossip_util"].items()
        }
        for coordinator, state in zip(
            fabric.coordinators, data["coordinators"]
        ):
            coordinator.import_state(state)
        for churn, state in zip(fabric.churn, data["churn"]):
            churn.import_state(state)
        if data.get("fault_plan") is not None:
            if fabric.plan is None:
                raise ConfigurationError(
                    "checkpoint carries fault-plan state but resume() was "
                    "given no fault_plan; pass the original plan config"
                )
            fabric.plan.import_state(data["fault_plan"])
        for key, count in data.get("counters", {}).items():
            if key in fabric.counters:
                fabric.counters[key] = int(count)
        return fabric

    # -- introspection for tests and invariants ----------------------------

    def trunk_views(self, link_id: int) -> list[dict[int, list[int]]]:
        """Each sharing switch's committed view of one trunk."""
        return [
            dict(self.coordinators[p].committed[link_id])
            for p in self._peers_of_link(link_id)
        ]

    def quiesce(self) -> None:
        """Stop new arrivals and drain in-flight work (end of a soak).

        The drain runs past every foreign intent's staleness backstop
        plus two gossip rounds.
        """
        self._agenda = [
            entry
            for entry in self._agenda
            if entry[1] not in (_PRIO_ARRIVE, _PRIO_CHECKPOINT)
        ]
        heapq.heapify(self._agenda)
        self.run_until(self.now + self.foreign_ttl_ns + 2 * _GOSSIP_EVERY_NS)

    def leaked_reservations(self) -> list[int]:
        """Access-link channel IDs with neither a live channel nor an
        unresolved intent behind them (must be empty after quiesce)."""
        live = self._active.keys() | self._reserved_channel_ids()
        cache = self._access_cache
        return sorted({
            task.channel_id
            for link in cache.occupied_links()
            for task in cache.tasks_on(link)
            if task.channel_id not in live
        })
