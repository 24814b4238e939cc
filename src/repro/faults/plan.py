"""Deterministic fault injection: the one place frames are dropped.

Every loss a wire or the intent bus suffers comes from a
:class:`FaultPlan`. Its targeted rules serve robustness experiments on
the *signalling* plane:

* drop a **specific handshake step** (the paper's Figure 18.3/18.4
  messages each have a distinct on-wire shape, so arrivals classify
  without any out-of-band tagging);
* drop the **n-th occurrence** of a frame class exactly once (the
  "every handshake frame lost exactly once" test matrix);
* apply per-class **Bernoulli loss** with independent, named RNG
  streams (losing requests at 20% must not reshuffle the draws for
  teardowns);
* take a link down for a **scheduled time window** (cable pull /
  switchover), matching links by ``fnmatch`` pattern.

Beside them, ``corruption`` drops any arrival the rules let through
with one probability, whatever its class (FCS failure on a noisy wire,
EXP-R1's frame loss).

A plan is consulted by every :class:`~repro.network.link.HalfLink` it
is installed on (``build_star(fault_plan=...)`` installs one plan on
every wire) at frame-arrival time (:meth:`FaultPlan.drop_cause`), and
by the intent bus of :class:`~repro.service.intent.SharedLinkFabric`,
which names each frame's class itself
(:meth:`FaultPlan.should_drop_class`). All randomness comes from a
:class:`~repro.sim.rng.RngRegistry` seeded at construction, so a plan
is a pure function of (seed, arrival sequence): two runs over the same
traffic see identical drops.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Mapping, Sequence

from ..errors import ConfigurationError
from ..protocol.ethernet import EthernetFrame, FrameKind
from ..protocol.frames import FrameType
from ..sim.rng import RngRegistry

__all__ = [
    "FRAME_CLASSES",
    "SIGNALLING_CLASSES",
    "COORDINATION_CLASSES",
    "FaultPlan",
    "LinkDownWindow",
    "class_of_tag",
]

#: The switch's name in frame source/destination fields (mirrors
#: :data:`repro.network.node.SWITCH_NAME`; duplicated to keep this
#: module import-light).
_SWITCH_SOURCE = "switch"

#: Every frame class :meth:`FaultPlan.classify` can produce. The five
#: signalling classes are the handshake steps of Figures 18.3/18.4 plus
#: the teardown extension:
#:
#: * ``request``        -- source -> switch RequestFrame
#: * ``offer``          -- switch -> destination stamped RequestFrame
#: * ``dest-response``  -- destination -> switch ResponseFrame
#: * ``final-response`` -- switch -> source ResponseFrame (verdict)
#: * ``teardown``       -- source -> switch TeardownFrame
#:
#: The two coordination classes carry the multi-switch intent-lock and
#: gossip extension frames (:class:`~repro.protocol.frames.IntentFrame`
#: and :class:`~repro.protocol.frames.GossipFrame`).
FRAME_CLASSES = (
    "request",
    "offer",
    "dest-response",
    "final-response",
    "teardown",
    "intent",
    "gossip",
    "rt-data",
    "best-effort",
)

#: The single-switch handshake subset of :data:`FRAME_CLASSES`. Kept to
#: exactly the five Figure 18.3/18.4 steps (tests and the EXP-R2 matrix
#: parametrize over it); the coordination classes live separately in
#: :data:`COORDINATION_CLASSES`.
SIGNALLING_CLASSES = (
    "request",
    "offer",
    "dest-response",
    "final-response",
    "teardown",
)

#: The multi-switch coordination subset of :data:`FRAME_CLASSES`.
COORDINATION_CLASSES = (
    "intent",
    "gossip",
)

#: Signalling type tag -> (its class when a node sends it, its class
#: when the switch sends it).
_CLASSES_BY_TAG = {
    FrameType.CONNECT: ("request", "offer"),
    FrameType.RESPONSE: ("dest-response", "final-response"),
    FrameType.TEARDOWN: ("teardown", "teardown"),
    FrameType.INTENT: ("intent", "intent"),
    FrameType.GOSSIP: ("gossip", "gossip"),
}


def class_of_tag(tag: int, from_switch: bool = False) -> str:
    """The frame class of a signalling frame with type tag ``tag``.

    ``from_switch`` picks the switch's side of the shared CONNECT and
    RESPONSE formats (``offer``, ``final-response``).
    """
    names = _CLASSES_BY_TAG.get(tag)
    if names is None:
        raise ConfigurationError(f"unknown signalling type tag {tag}")
    return names[from_switch]


@dataclass(frozen=True, slots=True)
class LinkDownWindow:
    """One scheduled outage: frames arriving in the window are dropped.

    ``link`` is an ``fnmatch`` pattern over :class:`HalfLink` names
    (``"m0->switch"``, ``"switch->*"``, ``"*"``). The window is
    half-open: ``start_ns <= now < end_ns``.
    """

    link: str
    start_ns: int
    end_ns: int

    def __post_init__(self) -> None:
        if self.start_ns < 0 or self.end_ns <= self.start_ns:
            raise ConfigurationError(
                f"down window needs 0 <= start < end, got "
                f"[{self.start_ns}, {self.end_ns})"
            )

    def covers(self, link_name: str, now: int) -> bool:
        return self.start_ns <= now < self.end_ns and fnmatchcase(
            link_name, self.link
        )


class FaultPlan:
    """A deterministic drop schedule over classified frame arrivals.

    Parameters
    ----------
    seed:
        Root seed for the per-class and ``link-loss`` RNG streams.
    bernoulli:
        ``{frame class: drop probability}``; classes absent drop never.
    drop_occurrences:
        ``{frame class: occurrence indices}`` -- drop the n-th arrival
        (0-based, counted network-wide per class) of that class. The
        deterministic tool behind "drop each handshake frame exactly
        once" tests.
    down_windows:
        Scheduled :class:`LinkDownWindow` outages.
    corruption:
        Probability that a wire arrival the rules above let through is
        corrupted and dropped, whatever its class. The paper assumes
        error-free wires, so this is a fault-injection knob: losses
        surface as incomplete messages, never as wrong results. Draws
        come from the registry's ``link-loss`` stream, one per arrival
        the rules let through.
    """

    def __init__(
        self,
        seed: int = 0,
        bernoulli: Mapping[str, float] | None = None,
        drop_occurrences: Mapping[str, Sequence[int]] | None = None,
        down_windows: Sequence[LinkDownWindow] = (),
        corruption: float = 0.0,
    ) -> None:
        bernoulli = dict(bernoulli or {})
        drop_occurrences = {
            cls: frozenset(indices)
            for cls, indices in (drop_occurrences or {}).items()
        }
        for mapping in (bernoulli, drop_occurrences):
            for cls in mapping:
                if cls not in FRAME_CLASSES:
                    raise ConfigurationError(
                        f"unknown frame class {cls!r}; expected one of "
                        f"{FRAME_CLASSES}"
                    )
        for cls, rate in bernoulli.items():
            if not (0.0 <= rate < 1.0):
                raise ConfigurationError(
                    f"drop probability for {cls!r} must be in [0, 1), "
                    f"got {rate}"
                )
        for cls, indices in drop_occurrences.items():
            if any(i < 0 for i in indices):
                raise ConfigurationError(
                    f"occurrence indices for {cls!r} must be >= 0"
                )
        if not (0.0 <= corruption < 1.0):
            raise ConfigurationError(
                f"corruption probability must be in [0, 1), got {corruption}"
            )
        self._bernoulli = bernoulli
        self._drop_occurrences = drop_occurrences
        self._down_windows = tuple(down_windows)
        registry = RngRegistry(seed)
        self._rngs = {
            cls: registry.stream(f"fault-{cls}") for cls in bernoulli
        }
        self._corruption = corruption
        self._corruption_rng = (
            registry.stream("link-loss") if corruption > 0.0 else None
        )
        #: arrivals seen so far, per class (network-wide).
        self.seen: dict[str, int] = {cls: 0 for cls in FRAME_CLASSES}
        #: drops performed, per class.
        self.drops_by_class: dict[str, int] = {cls: 0 for cls in FRAME_CLASSES}
        #: drops attributable to down windows (also in drops_by_class).
        self.window_drops = 0

    @classmethod
    def signalling_loss(cls, rate: float, seed: int = 0) -> "FaultPlan":
        """Uniform Bernoulli loss over every signalling class (EXP-R2)."""
        return cls(
            seed=seed,
            bernoulli={name: rate for name in SIGNALLING_CLASSES},
        )

    @classmethod
    def control_loss(cls, rate: float, seed: int = 0) -> "FaultPlan":
        """Uniform Bernoulli loss over signalling *and* coordination
        classes -- the EXP-X4 regime where intent-lock legs are as lossy
        as the handshake they protect."""
        return cls(
            seed=seed,
            bernoulli={
                name: rate
                for name in SIGNALLING_CLASSES + COORDINATION_CLASSES
            },
        )

    @property
    def total_drops(self) -> int:
        return sum(self.drops_by_class.values())

    def signalling_drops(self) -> int:
        """Drops across the five control-plane classes."""
        return sum(self.drops_by_class[c] for c in SIGNALLING_CLASSES)

    @staticmethod
    def classify(frame: EthernetFrame) -> str:
        """Name the handshake step (or traffic class) ``frame`` carries.

        On the star's links a signalling payload travels as its
        bit-exact wire encoding, whose first byte is the FrameType tag;
        a typed frame carries the same tag as ``TYPE``. The switch's
        grant-carrying final response is the one structured exception
        (a ``(ResponseFrame, ChannelGrant)`` tuple). Direction
        (node->switch vs switch->node) disambiguates the shared
        CONNECT/RESPONSE formats into distinct handshake steps. The
        intent bus of :mod:`repro.service.intent` carries typed frames
        and names their class with :func:`class_of_tag` directly.
        """
        if frame.kind is FrameKind.RT_DATA:
            return "rt-data"
        if frame.kind is FrameKind.BEST_EFFORT:
            return "best-effort"
        payload = frame.payload_object
        if isinstance(payload, tuple):
            return "final-response"
        if isinstance(payload, (bytes, bytearray)):
            tag = payload[0] if payload else None
        else:
            tag = getattr(payload, "TYPE", None)
        if tag is None:
            raise ConfigurationError(
                f"cannot classify signalling payload "
                f"{type(payload).__name__}"
            )
        return class_of_tag(tag, frame.source == _SWITCH_SOURCE)

    def export_state(self) -> dict:
        """Serialize the plan's mutable state for a service checkpoint.

        The configuration (rates, occurrence schedules, windows, seed)
        is code-supplied and NOT exported; only the arrival counters and
        the RNG positions travel (the ``link-loss`` one only when the
        plan corrupts), so a plan rebuilt with the same configuration
        and fed :meth:`import_state` produces drop draws byte-identical
        to the never-checkpointed plan.
        """
        state = {
            "seen": dict(self.seen),
            "drops_by_class": dict(self.drops_by_class),
            "window_drops": self.window_drops,
            "rng_states": {
                cls: rng.bit_generator.state
                for cls, rng in sorted(self._rngs.items())
            },
        }
        if self._corruption_rng is not None:
            state["link_loss_rng_state"] = (
                self._corruption_rng.bit_generator.state
            )
        return state

    def import_state(self, data: dict) -> None:
        """Adopt counters and RNG positions from :meth:`export_state`."""
        for cls, count in data.get("seen", {}).items():
            if cls not in self.seen:
                raise ConfigurationError(
                    f"snapshot names unknown frame class {cls!r}"
                )
            self.seen[cls] = int(count)
        for cls, count in data.get("drops_by_class", {}).items():
            if cls not in self.drops_by_class:
                raise ConfigurationError(
                    f"snapshot names unknown frame class {cls!r}"
                )
            self.drops_by_class[cls] = int(count)
        self.window_drops = int(data.get("window_drops", 0))
        for cls, state in data.get("rng_states", {}).items():
            rng = self._rngs.get(cls)
            if rng is None:
                raise ConfigurationError(
                    f"snapshot carries an RNG stream for {cls!r} but this "
                    f"plan draws no Bernoulli losses for that class; "
                    f"rebuild the plan with the snapshot's configuration"
                )
            rng.bit_generator.state = state
        link_loss = data.get("link_loss_rng_state")
        if link_loss is not None:
            if self._corruption_rng is None:
                raise ConfigurationError(
                    "snapshot carries a link_loss_rng_state but this plan "
                    "corrupts no frames; rebuild the plan with the "
                    "snapshot's configuration"
                )
            self._corruption_rng.bit_generator.state = link_loss

    def drop_cause(
        self, link_name: str, frame: EthernetFrame, now: int
    ) -> str | None:
        """Decide the fate of one wire arrival (called by the link).

        Returns ``"fault-plan"`` when a targeted rule drops the frame,
        ``"corruption"`` when the corruption draw does, and None when
        it arrives. Only arrivals the rules let through draw.
        """
        if self.should_drop_class(self.classify(frame), link_name, now):
            return "fault-plan"
        rng = self._corruption_rng
        if rng is not None and rng.random() < self._corruption:
            return "corruption"
        return None

    def should_drop(self, link_name: str, frame: EthernetFrame, now: int) -> bool:
        """True when :meth:`drop_cause` drops the arrival."""
        return self.drop_cause(link_name, frame, now) is not None

    def should_drop_class(self, cls: str, link_name: str, now: int) -> bool:
        """Decide the fate of one arrival of frame class ``cls``.

        The caller has already named the class (``drop_cause`` by
        :meth:`classify`); counters and RNG draws are those of the
        targeted rules in :meth:`drop_cause` on a frame of that class.
        The corruption draw is the wire's alone.
        """
        index = self.seen[cls]
        self.seen[cls] = index + 1
        for window in self._down_windows:
            if window.covers(link_name, now):
                self.window_drops += 1
                self.drops_by_class[cls] += 1
                return True
        targeted = self._drop_occurrences.get(cls)
        if targeted is not None and index in targeted:
            self.drops_by_class[cls] += 1
            return True
        rate = self._bernoulli.get(cls, 0.0)
        if rate > 0.0 and float(self._rngs[cls].random()) < rate:
            self.drops_by_class[cls] += 1
            return True
        return False
