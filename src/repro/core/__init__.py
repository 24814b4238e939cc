"""Core algorithms of the reproduced paper.

This subpackage contains the paper's actual contribution:

* :mod:`~repro.core.channel` -- RT channels ``{P, C, d}`` and their
  deadline partitions.
* :mod:`~repro.core.task` -- the per-link "supposed tasks" derived from a
  channel (Eq. 18.6/18.7).
* :mod:`~repro.core.edf_queue` -- deadline-sorted (EDF) and FCFS frame
  queues used at every output port.
* :mod:`~repro.core.feasibility` -- EDF feasibility analysis per link:
  utilization test and processor-demand criterion with the paper's
  busy-period and control-point reductions (Section 18.3.2).
* :mod:`~repro.core.partitioning` -- deadline partitioning schemes:
  SDPS and ADPS (Section 18.4).
* :mod:`~repro.core.partitioning_ext` -- additional schemes beyond the
  paper (utilization-proportional, laxity-aware, search-based).
* :mod:`~repro.core.admission` -- the switch's admission control over the
  system state ``{N, K}``.
* :mod:`~repro.core.rt_layer` -- end-node RT layer behaviour.
* :mod:`~repro.core.channel_manager` -- switch-side channel management.
"""

from .channel import ChannelSpec, DeadlinePartition, RTChannel, ChannelState
from .task import LinkTask, LinkDirection, LinkRef
from .edf_queue import EDFQueue, FCFSQueue, QueuedFrame
from .feasibility import (
    FeasibilityReport,
    busy_period,
    control_points,
    demand,
    hyperperiod,
    is_feasible,
    utilization,
)
from .feasibility_cache import (
    CacheStats,
    FeasibilityCache,
    LinkCacheEntry,
)
from .partitioning import (
    DeadlinePartitioningScheme,
    SymmetricDPS,
    AsymmetricDPS,
    clamp_partition,
)
from .partitioning_ext import (
    UtilizationDPS,
    LaxityDPS,
    SearchDPS,
)
from .admission import (
    AdmissionController,
    AdmissionDecision,
    RejectionReason,
    SystemState,
)
from .rt_layer import ChannelGrant, OutgoingFrame, RTLayer
from .schedule import LinkSchedule as OfflineLinkSchedule
from .schedule import TaskResponse, build_schedule
from .persistence import (
    dumps as snapshot_dumps,
    loads as snapshot_loads,
    restore,
    restore_signalling,
    snapshot,
)
from .channel_manager import NodeDirectory, SignalAction, SwitchChannelManager

__all__ = [
    "ChannelSpec",
    "DeadlinePartition",
    "RTChannel",
    "ChannelState",
    "LinkTask",
    "LinkDirection",
    "LinkRef",
    "EDFQueue",
    "FCFSQueue",
    "QueuedFrame",
    "FeasibilityReport",
    "busy_period",
    "control_points",
    "demand",
    "hyperperiod",
    "is_feasible",
    "utilization",
    "CacheStats",
    "FeasibilityCache",
    "LinkCacheEntry",
    "DeadlinePartitioningScheme",
    "SymmetricDPS",
    "AsymmetricDPS",
    "clamp_partition",
    "UtilizationDPS",
    "LaxityDPS",
    "SearchDPS",
    "AdmissionController",
    "AdmissionDecision",
    "RejectionReason",
    "SystemState",
    "ChannelGrant",
    "OutgoingFrame",
    "RTLayer",
    "NodeDirectory",
    "SignalAction",
    "SwitchChannelManager",
    "OfflineLinkSchedule",
    "TaskResponse",
    "build_schedule",
    "restore_signalling",
    "snapshot",
    "restore",
    "snapshot_dumps",
    "snapshot_loads",
]
