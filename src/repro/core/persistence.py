"""Persistence: snapshot and restore the switch's admission state.

An industrial switch reboots; its RT-channel reservations must survive
(re-running every establishment handshake would violate the channels'
guarantees meanwhile). This module serializes the complete system state
-- nodes, active channels with their IDs, specs, deadline partitions and
lifecycle states, the ID allocator position, and (optionally) the
switch's in-flight signalling state -- to a plain JSON-compatible dict,
and restores a byte-identical controller from it.

Round-trip fidelity is the contract: ``restore(snapshot(ctrl))`` yields
a controller whose every future admission decision matches the
original's (same link loads, same partitions, same next channel ID).
The property tests drive random admit/release histories through a
snapshot/restore cycle and diff subsequent decisions.

Schema history
--------------
Version 1 recorded only the admission side and silently coerced every
channel to ACTIVE on restore. That dropped the switch-side signalling
state -- reservation leases for OFFERED channels and the
completed-verdict dedup cache -- so a restored switch could double-book
a lease or re-run admission for a duplicate request after a restart.
Version 2 records each channel's lifecycle state and an optional
``signalling`` section (see
:meth:`~repro.core.channel_manager.SwitchChannelManager.export_signalling_state`).
Version 1 snapshots are refused with a migration message rather than
restored lossily.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

from ..errors import ConfigurationError
from .admission import AdmissionController, SystemState
from .channel import ChannelSpec, ChannelState, DeadlinePartition, RTChannel
from .partitioning import DeadlinePartitioningScheme

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .channel_manager import SwitchChannelManager

__all__ = ["snapshot", "restore", "restore_signalling", "dumps", "loads"]

#: Schema version stamped into every snapshot; bumped on layout changes.
SNAPSHOT_VERSION = 2

#: Channel lifecycle states that may legitimately appear in a snapshot:
#: ACTIVE channels are established, OFFERED ones hold a reservation
#: while the destination's verdict is in flight.
_SNAPSHOT_STATES = frozenset(
    {ChannelState.ACTIVE.value, ChannelState.OFFERED.value}
)


def snapshot(
    controller: AdmissionController,
    *,
    manager: "SwitchChannelManager | None" = None,
) -> dict[str, Any]:
    """Serialize the controller's state to a JSON-compatible dict.

    The DPS itself is recorded by name only -- schemes are code, not
    state; :func:`restore` receives the scheme instance from the caller
    and cross-checks the name to catch accidental mismatches. Pass the
    switch's :class:`~repro.core.channel_manager.SwitchChannelManager`
    as ``manager`` to also capture the in-flight signalling state
    (pending offers, verdict cache, loss counters); restore it with
    :func:`restore_signalling`.
    """
    state = controller.state
    channels = []
    # ``seq`` records each channel's position in the *installation*
    # order. The records themselves stay sorted by channel ID (stable
    # diff-friendly layout), but restore must re-install in seq order:
    # the state's per-link cache entries keep tasks in insertion
    # order, and once the ID allocator wraps under churn,
    # sorted-by-ID no longer equals installed-order -- restoring by ID
    # would permute the per-link arrays and diverge (float fdensity
    # folds, memo overlays) from the never-snapshotted run.
    install_order = {
        channel_id: seq
        for seq, channel_id in enumerate(state.channels.keys())
    }
    for channel in sorted(
        state.channels.values(), key=lambda c: c.channel_id
    ):
        if channel.partition is None:  # pragma: no cover - install forbids
            raise ConfigurationError(
                f"active channel {channel.channel_id} has no partition"
            )
        if channel.state.value not in _SNAPSHOT_STATES:
            raise ConfigurationError(
                f"channel {channel.channel_id} is installed but in "
                f"state {channel.state.value!r}; only active or offered "
                f"channels can be snapshotted"
            )
        channels.append(
            {
                "id": channel.channel_id,
                "source": channel.source,
                "destination": channel.destination,
                "period": channel.spec.period,
                "capacity": channel.spec.capacity,
                "deadline": channel.spec.deadline,
                "d_iu": channel.partition.uplink,
                "d_id": channel.partition.downlink,
                "state": channel.state.value,
                "seq": install_order[channel.channel_id],
            }
        )
    return {
        "version": SNAPSHOT_VERSION,
        "dps": controller.dps.name,
        "nodes": sorted(state.nodes),
        "channels": channels,
        "next_channel_id": _peek_next_id(controller),
        "accept_count": controller.accept_count,
        "reject_count": controller.reject_count,
        "rejections_by_reason": {
            reason.value: count
            for reason, count in controller.rejections_by_reason.items()
        },
        "signalling": (
            None if manager is None else manager.export_signalling_state()
        ),
    }


def _peek_next_id(controller: AdmissionController) -> int:
    """Read the ID allocator position without consuming an ID."""
    return int(controller._next_id)  # noqa: SLF001 - serializer


def restore(
    data: dict[str, Any], dps: DeadlinePartitioningScheme
) -> AdmissionController:
    """Rebuild a controller from :func:`snapshot` output.

    Parameters
    ----------
    data:
        A snapshot dict (parsed JSON).
    dps:
        The partitioning scheme to install; its ``name`` must match the
        snapshot's, preventing a silent scheme swap across a reboot.
    """
    if not isinstance(data, dict) or "version" not in data:
        raise ConfigurationError("not a snapshot: missing version field")
    if data["version"] == 1:
        raise ConfigurationError(
            "snapshot version 1 is not supported: it predates the "
            "switch-side signalling state (per-channel lifecycle, "
            "reservation leases, duplicate-verdict cache) and cannot be "
            "migrated safely -- a lossy restore could double-book a "
            "lease or re-answer a duplicate request wrongly. Quiesce "
            "signalling on the old build, re-snapshot with version "
            f"{SNAPSHOT_VERSION}, and restore that instead."
        )
    if data["version"] != SNAPSHOT_VERSION:
        raise ConfigurationError(
            f"snapshot version {data['version']} is not supported "
            f"(this build reads version {SNAPSHOT_VERSION})"
        )
    if data["dps"] != dps.name:
        raise ConfigurationError(
            f"snapshot was taken under DPS {data['dps']!r} but "
            f"{dps.name!r} was supplied; refusing a silent scheme swap"
        )
    state = SystemState(nodes=data["nodes"])
    controller = AdmissionController(state=state, dps=dps)
    records = data["channels"]
    if all("seq" in record for record in records):
        # Re-install in the original installation order so per-link
        # task arrays come back byte-identical (see snapshot()).
        records = sorted(records, key=lambda record: record["seq"])
    for record in records:
        recorded_state = record["state"]
        if recorded_state not in _SNAPSHOT_STATES:
            raise ConfigurationError(
                f"channel {record['id']} has snapshot state "
                f"{recorded_state!r}; expected one of "
                f"{sorted(_SNAPSHOT_STATES)}"
            )
        channel = RTChannel(
            source=record["source"],
            destination=record["destination"],
            spec=ChannelSpec(
                period=record["period"],
                capacity=record["capacity"],
                deadline=record["deadline"],
            ),
            channel_id=record["id"],
        )
        channel.assign_partition(
            DeadlinePartition(
                uplink=record["d_iu"], downlink=record["d_id"]
            )
        )
        channel.state = ChannelState(recorded_state)
        state.install(channel)
    controller._next_id = int(  # noqa: SLF001 - deserializer
        data["next_channel_id"]
    )
    controller.accept_count = int(data.get("accept_count", 0))
    controller.reject_count = int(data.get("reject_count", 0))
    from .admission import RejectionReason

    controller.rejections_by_reason = {
        RejectionReason(key): int(value)
        for key, value in data.get("rejections_by_reason", {}).items()
    }
    return controller


def restore_signalling(
    data: dict[str, Any], manager: "SwitchChannelManager"
) -> None:
    """Import a snapshot's signalling section into a fresh manager.

    ``manager`` must wrap the controller returned by :func:`restore`
    for the same snapshot and be configured (``switch_mac``,
    ``lease_ns``, and so the ``response_cache_ns`` retention that
    follows from it) exactly as the snapshotted manager was; those are
    code-level settings the snapshot only cross-checks. A snapshot taken without a manager (``signalling``
    is null) raises: restoring "no signalling state" into a live
    manager is almost certainly a caller error.
    """
    signalling = data.get("signalling")
    if signalling is None:
        raise ConfigurationError(
            "snapshot carries no signalling section (it was taken "
            "without a manager); pass manager= to snapshot() to "
            "capture the in-flight signalling state"
        )
    manager.import_signalling_state(signalling)


def dumps(
    controller: AdmissionController,
    indent: int | None = 2,
    *,
    manager: "SwitchChannelManager | None" = None,
) -> str:
    """Snapshot to a JSON string."""
    return json.dumps(
        snapshot(controller, manager=manager),
        indent=indent,
        sort_keys=True,
    )


def loads(text: str, dps: DeadlinePartitioningScheme) -> AdmissionController:
    """Restore from a JSON string."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"snapshot is not valid JSON: {exc}") from exc
    return restore(data, dps)
