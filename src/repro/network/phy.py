"""Physical-layer profiles: speeds, delays and the latency budget.

The feasibility analysis works in abstract timeslots; the simulator
works in nanoseconds. A :class:`PhyProfile` fixes the mapping for one
network: link speed (hence slot duration), cable propagation delay and
the switch's store-and-forward processing delay.

It also computes the paper's ``T_latency`` term (Eq. 18.1): the part of
the end-to-end delay that is *not* covered by the EDF deadline budget
``d_i``. In this model it contains, per the paper, "the medium
propagation delay and the medium access time":

* propagation over two cables (uplink + downlink),
* the switch's store-and-forward processing delay, and
* up to one maximum frame of *non-preemption blocking* per link: an RT
  frame that becomes the earliest deadline right after a best-effort (or
  later-deadline RT) frame started cannot interrupt it; Ethernet never
  aborts a frame mid-wire. Two links → two frames of blocking.

The validation experiment (EXP-V1) asserts that every delivered RT
frame meets ``created + d_i·slot + T_latency``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from ..units import ETH_MAX_WIRE_BYTES, TimeBase
from ..protocol.ethernet import EthernetFrame

__all__ = ["PhyProfile"]


@dataclass(frozen=True, slots=True)
class PhyProfile:
    """Timing parameters of one homogeneous switched-Ethernet network.

    Parameters
    ----------
    timebase:
        Speed / slot-duration mapping (see :class:`repro.units.TimeBase`).
    propagation_ns:
        One-way cable propagation delay. 100 m of copper is ~500 ns;
        industrial cells are usually shorter. The paper folds this into
        the system-specific constant ``T_latency``.
    switch_processing_ns:
        Store-and-forward decision latency of the switch, applied once
        per frame between full reception and enqueueing at the output
        port. A few microseconds on commodity hardware.
    """

    timebase: TimeBase
    propagation_ns: int = 500
    switch_processing_ns: int = 5_000

    def __post_init__(self) -> None:
        if self.propagation_ns < 0:
            raise ConfigurationError(
                f"propagation delay must be >= 0 ns, got {self.propagation_ns}"
            )
        if self.switch_processing_ns < 0:
            raise ConfigurationError(
                "switch processing delay must be >= 0 ns, got "
                f"{self.switch_processing_ns}"
            )

    @classmethod
    def fast_ethernet(cls) -> "PhyProfile":
        """The paper's implicit setting: 100 Mbps full duplex."""
        return cls(timebase=TimeBase.for_speed_mbps(100))

    @classmethod
    def gigabit(cls) -> "PhyProfile":
        """1000BASE-T profile for scaling studies."""
        return cls(timebase=TimeBase.for_speed_mbps(1000))

    @property
    def slot_ns(self) -> int:
        """Duration of one timeslot (maximum frame on the wire)."""
        return self.timebase.slot_ns

    def transmission_ns(self, frame: EthernetFrame) -> int:
        """Wire time of ``frame`` including preamble, SFD and IFG."""
        return self.timebase.bytes_to_ns(frame.wire_size_bytes)

    @property
    def max_frame_ns(self) -> int:
        """Wire time of a maximum-sized frame (== ``slot_ns``)."""
        return self.timebase.bytes_to_ns(ETH_MAX_WIRE_BYTES)

    @property
    def t_latency_ns(self) -> int:
        """The paper's ``T_latency`` (Eq. 18.1) for the two-link path.

        ``2 × propagation + switch processing + 2 × one-frame blocking``.
        This is the guaranteed *additional* delay on top of the deadline
        ``d_i``; see the module docstring for the derivation.
        """
        return self.t_latency_hops_ns(2)

    def t_latency_hops_ns(self, hops: int) -> int:
        """``T_latency`` generalized to a path of ``hops`` links.

        ``hops × propagation + (hops − 1) × switch processing + hops ×
        one-frame blocking``: one cable, one store-and-forward and one
        frame of non-preemption blocking per hop, as in the two-link
        case. Multi-switch fabrics use it for the end-to-end bound and
        for each hop's share of the per-link miss check.
        """
        return (
            hops * self.propagation_ns
            + (hops - 1) * self.switch_processing_ns
            + hops * self.max_frame_ns
        )

    def per_link_allowance_ns(self) -> int:
        """Slack allowed on a single link beyond its ``d_iu``/``d_id`` budget.

        One propagation delay plus one frame of non-preemption blocking;
        used by the per-link deadline assertions in the simulator.
        """
        return self.propagation_ns + self.max_frame_ns
