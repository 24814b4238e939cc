"""Differential campaign: cached vs from-scratch admission control.

The :class:`~repro.core.feasibility_cache.FeasibilityCache` is the
admission hot path's fast lane; this module is the proof that it changed
*nothing* about the decisions. Every trial builds two controllers over
identical (but separate) system states -- one with ``use_cache=True``,
one with ``use_cache=False`` -- and drives both through the same seeded
sequence of ``request()`` and ``release()`` operations, comparing after
every single operation:

* the decision stream: ``accepted``, ``reason`` and assigned
  ``channel_id`` must match exactly,
* the per-link reservation state: ``link_load`` and exact
  ``link_utilization`` (as :class:`~fractions.Fraction`) on every
  occupied link,
* the cached state's running utilization (its :class:`FeasibilityCache`
  ``util``) against a fresh ``C/P`` sum over the same stored tasks (the
  incremental bookkeeping must never drift from the tasks it holds).

Trials cycle through partitioning schemes -- SDPS, ADPS, utilization-
and laxity-weighted, and a strict :class:`~repro.core.partitioning_ext.SearchDPS`
(whose probes exercise the cache once per candidate split) -- and mix
workload shapes: the Figure 18.5 paper workload, uniform random specs
(including non-partitionable ones and unknown nodes, to cover every
rejection reason) and adversarial near-saturation specs. Release
operations interleave randomly, which is exactly where an incremental
cache can rot (stale busy periods, un-evicted memo entries).

Everything is a pure function of ``(seed, trial)`` via
:class:`~repro.sim.rng.RngRegistry`, so any reported disagreement can be
replayed in isolation with :func:`run_trial`.

The ``churn`` mode (``repro admission-diff --churn``) extends the op
alphabet with **snapshot/resume**: at random points mid-trial the cached
controller is serialized through :mod:`repro.core.persistence`, the
round-trip is byte-compared (``dumps(original) == dumps(restored)``),
and the *restored* controller replaces the original for the rest of the
trial -- so every later decision also proves the restored
:class:`FeasibilityCache` behaves identically to one that never crossed
a snapshot. This is the campaign shape that originally exposed the
cache's insertion-order drift after restore.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.admission import AdmissionController, SystemState
from ..core.channel import ChannelSpec
from ..core.partitioning import (
    AsymmetricDPS,
    DeadlinePartitioningScheme,
    SymmetricDPS,
)
from ..core.partitioning_ext import LaxityDPS, SearchDPS, UtilizationDPS
from ..core.task import LinkRef
from ..errors import ConfigurationError
from ..sim.rng import RngRegistry

__all__ = [
    "AdmissionDisagreement",
    "AdmissionDiffReport",
    "run_trial",
    "run_churn_trial",
    "run_admission_campaign",
]

#: Node population per trial; small enough that links saturate and
#: rejections actually occur, large enough for link diversity.
_NODES = tuple(f"n{i}" for i in range(6))

#: One name that is never registered, to exercise UNKNOWN_NODE.
_GHOST_NODE = "ghost"


def _schemes() -> tuple[DeadlinePartitioningScheme, ...]:
    """Fresh scheme instances (schemes are stateless, but cheap to make)."""
    return (
        SymmetricDPS(),
        AsymmetricDPS(),
        UtilizationDPS(),
        LaxityDPS(),
        SearchDPS(max_probes=12, strict=True),
    )


def _draw_spec(rng: np.random.Generator) -> ChannelSpec:
    """One channel spec; mixes paper-shaped, uniform and adversarial."""
    shape = int(rng.integers(0, 10))
    if shape < 4:
        # Figure 18.5 workload: C=3, P=100, d in the paper's menu.
        deadline = int(rng.choice((20, 40, 100)))
        return ChannelSpec(period=100, capacity=3, deadline=deadline)
    if shape < 8:
        period = int(rng.integers(4, 81))
        capacity = int(rng.integers(1, max(2, period // 3)))
        deadline = int(rng.integers(1, 2 * period))
        return ChannelSpec(period=period, capacity=capacity, deadline=deadline)
    # Adversarial: fat capacity, tight deadline -- often only feasible
    # under one particular split, sometimes under none.
    period = int(rng.integers(10, 41))
    capacity = int(rng.integers(period // 4 + 1, period // 2 + 1))
    deadline = int(rng.integers(capacity, period + 1))
    return ChannelSpec(period=period, capacity=capacity, deadline=deadline)


@dataclass(frozen=True, slots=True)
class AdmissionDisagreement:
    """First divergence of one trial, with replay coordinates."""

    trial: int
    op_index: int
    dps: str
    detail: str

    def reproduce_hint(self, seed: int) -> str:
        return f"run_trial(seed={seed}, trial={self.trial})"


@dataclass(frozen=True, slots=True)
class AdmissionDiffReport:
    """Outcome of one cached-vs-naive admission campaign."""

    trials: int
    seed: int
    ops_per_trial: int
    decisions: int
    accepts: int
    rejects: int
    releases: int
    disagreements: tuple[AdmissionDisagreement, ...]
    disagreement_count: int
    #: True when the trials additionally replayed every burst through
    #: admit_many() on a third controller (three-way mode).
    batch: bool = False
    #: True when the trials interleaved snapshot/resume ops (churn mode);
    #: ``snapshots`` counts the round-trips byte-compared.
    churn: bool = False
    snapshots: int = 0

    @property
    def ok(self) -> bool:
        """True when cached and from-scratch admission never diverged."""
        return self.disagreement_count == 0

    def summary(self) -> str:
        status = "OK" if self.ok else "DISAGREEMENTS FOUND"
        mode = " [three-way: cached vs naive vs batched]" if self.batch else ""
        if self.churn:
            mode += (
                f" [churn: {self.snapshots} snapshot/resume round-trips]"
            )
        lines = [
            f"admission diff campaign {status}: {self.trials} trials, "
            f"seed {self.seed}, {self.ops_per_trial} ops/trial{mode}",
            f"  {self.decisions} decisions compared "
            f"({self.accepts} accepts, {self.rejects} rejects, "
            f"{self.releases} releases)",
        ]
        for disagreement in self.disagreements:
            lines.append(
                f"  MISMATCH trial={disagreement.trial} "
                f"op={disagreement.op_index} dps={disagreement.dps}: "
                f"{disagreement.detail}"
            )
            lines.append(
                f"    reproduce: {disagreement.reproduce_hint(self.seed)}"
            )
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "ops_per_trial": self.ops_per_trial,
            "batch": self.batch,
            "churn": self.churn,
            "snapshots": self.snapshots,
            "decisions": self.decisions,
            "accepts": self.accepts,
            "rejects": self.rejects,
            "releases": self.releases,
            "disagreement_count": self.disagreement_count,
            "disagreements": [
                {
                    "trial": d.trial,
                    "op_index": d.op_index,
                    "dps": d.dps,
                    "detail": d.detail,
                }
                for d in self.disagreements
            ],
            "ok": self.ok,
        }


def _links_of(source: str, destination: str) -> tuple[LinkRef, LinkRef]:
    return LinkRef.uplink(source), LinkRef.downlink(destination)


def _compare_links(
    cached: AdmissionController,
    naive: AdmissionController,
    links: tuple[LinkRef, ...],
) -> str | None:
    """Per-link parity of the two states *and* the cache's running sums."""
    for link in links:
        load_c = cached.state.link_load(link)
        load_n = naive.state.link_load(link)
        if load_c != load_n:
            return f"link_load({link}) cached={load_c} naive={load_n}"
        util_c = cached.state.link_utilization(link)
        util_n = naive.state.link_utilization(link)
        if util_c != util_n:
            return f"link_utilization({link}) cached={util_c} naive={util_n}"
        cache = cached.cache
        assert cache is not None
        if cache.link_utilization(link) != util_c:
            return (
                f"cache drift on {link}: cache util "
                f"{cache.link_utilization(link)} != state util {util_c}"
            )
    return None


def _check_batch_flush(
    batched: AdmissionController,
    burst: list[tuple[str, str, ChannelSpec]],
    expected: list,
    trial: int,
    op_index: int,
    dps: DeadlinePartitioningScheme,
) -> AdmissionDisagreement | None:
    """Feed the pending burst to admit_many and diff the streams."""
    if not burst:
        return None
    decided = batched.admit_many(list(burst))
    burst.clear()
    want = list(expected)
    expected.clear()
    for index, (got, ref) in enumerate(zip(decided, want)):
        if (
            got.accepted != ref.accepted
            or got.reason != ref.reason
            or got.channel.channel_id != ref.channel.channel_id
            or got.partition != ref.partition
        ):
            return AdmissionDisagreement(
                trial=trial,
                op_index=op_index,
                dps=dps.name,
                detail=(
                    f"batched burst element {index}: batched "
                    f"(accepted={got.accepted}, reason={got.reason}, "
                    f"id={got.channel.channel_id}, "
                    f"partition={got.partition}) vs cached "
                    f"(accepted={ref.accepted}, reason={ref.reason}, "
                    f"id={ref.channel.channel_id}, "
                    f"partition={ref.partition})"
                ),
            )
    return None


def _compare_batched_links(
    cached: AdmissionController,
    batched: AdmissionController,
    links: tuple[LinkRef, ...],
) -> str | None:
    """Per-link parity of the batched controller against the cached one."""
    for link in links:
        if batched.state.link_load(link) != cached.state.link_load(link):
            return (
                f"batched link_load({link}) "
                f"{batched.state.link_load(link)} != "
                f"{cached.state.link_load(link)}"
            )
        if (
            batched.state.link_utilization(link)
            != cached.state.link_utilization(link)
        ):
            return (
                f"batched link_utilization({link}) "
                f"{batched.state.link_utilization(link)} != "
                f"{cached.state.link_utilization(link)}"
            )
    return None


def run_trial(
    seed: int, trial: int, ops: int = 40, *, batch: bool = False
) -> tuple[AdmissionDisagreement | None, dict[str, int]]:
    """Replay one trial; returns (first disagreement or None, op counts).

    Pure in ``(seed, trial, ops)``: the coordinates recorded in an
    :class:`AdmissionDisagreement` reproduce the exact divergence.

    With ``batch=True`` a *third* controller replays the identical
    operation sequence through :meth:`AdmissionController.admit_many`:
    consecutive request ops accumulate into a burst that is flushed
    (and diffed element by element against the cached decisions)
    whenever a release interrupts it and at trial end, so the batched
    engine is exercised against bursts of every length the op mix
    produces, interleaved with releases.
    """
    rng = RngRegistry(seed).fork(trial).stream("admission-diff")
    dps = _schemes()[trial % len(_schemes())]
    cached = AdmissionController(
        SystemState(nodes=_NODES), dps, use_cache=True
    )
    naive = AdmissionController(
        SystemState(nodes=_NODES), dps, use_cache=False
    )
    batched = (
        AdmissionController(SystemState(nodes=_NODES), dps, use_cache=True)
        if batch
        else None
    )
    burst: list[tuple[str, str, ChannelSpec]] = []
    burst_expected: list = []
    counts = {"decisions": 0, "accepts": 0, "rejects": 0, "releases": 0}
    touched: set[LinkRef] = set()
    for op_index in range(ops):
        roll = int(rng.integers(0, 10))
        active = sorted(cached.state.channels)
        if roll < 3 and active:
            victim = int(active[int(rng.integers(0, len(active)))])
            if batched is not None:
                disagreement = _check_batch_flush(
                    batched, burst, burst_expected, trial, op_index, dps
                )
                if disagreement is not None:
                    return disagreement, counts
                batched.release(victim)
            cached.release(victim)
            naive.release(victim)
            counts["releases"] += 1
        else:
            source = str(rng.choice(_NODES))
            if roll == 9:
                destination = _GHOST_NODE
            else:
                others = [n for n in _NODES if n != source]
                destination = str(rng.choice(others))
            spec = _draw_spec(rng)
            decision_c = cached.request(source, destination, spec)
            decision_n = naive.request(source, destination, spec)
            if batched is not None:
                burst.append((source, destination, spec))
                burst_expected.append(decision_c)
            counts["decisions"] += 1
            if decision_c.accepted != decision_n.accepted:
                return (
                    AdmissionDisagreement(
                        trial=trial,
                        op_index=op_index,
                        dps=dps.name,
                        detail=(
                            f"{source}->{destination} {spec}: cached "
                            f"accepted={decision_c.accepted} naive "
                            f"accepted={decision_n.accepted}"
                        ),
                    ),
                    counts,
                )
            if decision_c.reason != decision_n.reason:
                return (
                    AdmissionDisagreement(
                        trial=trial,
                        op_index=op_index,
                        dps=dps.name,
                        detail=(
                            f"{source}->{destination} {spec}: cached "
                            f"reason={decision_c.reason} naive "
                            f"reason={decision_n.reason}"
                        ),
                    ),
                    counts,
                )
            if decision_c.accepted:
                counts["accepts"] += 1
                if (
                    decision_c.channel.channel_id
                    != decision_n.channel.channel_id
                ):
                    return (
                        AdmissionDisagreement(
                            trial=trial,
                            op_index=op_index,
                            dps=dps.name,
                            detail=(
                                "channel_id cached="
                                f"{decision_c.channel.channel_id} naive="
                                f"{decision_n.channel.channel_id}"
                            ),
                        ),
                        counts,
                    )
                touched.update(_links_of(source, destination))
            else:
                counts["rejects"] += 1
        mismatch = _compare_links(cached, naive, tuple(sorted(touched)))
        if mismatch is not None:
            return (
                AdmissionDisagreement(
                    trial=trial,
                    op_index=op_index,
                    dps=dps.name,
                    detail=mismatch,
                ),
                counts,
            )
    if batched is not None:
        disagreement = _check_batch_flush(
            batched, burst, burst_expected, trial, ops, dps
        )
        if disagreement is not None:
            return disagreement, counts
        mismatch = _compare_batched_links(
            cached, batched, tuple(sorted(touched))
        )
        if mismatch is None and (
            batched.accept_count != cached.accept_count
            or batched.reject_count != cached.reject_count
            or batched.rejections_by_reason != cached.rejections_by_reason
        ):
            mismatch = (
                f"batched counters ({batched.accept_count}, "
                f"{batched.reject_count}, {batched.rejections_by_reason}) "
                f"!= cached ({cached.accept_count}, "
                f"{cached.reject_count}, {cached.rejections_by_reason})"
            )
        if mismatch is not None:
            return (
                AdmissionDisagreement(
                    trial=trial, op_index=ops, dps=dps.name, detail=mismatch
                ),
                counts,
            )
    # End-of-trial: the rejection histograms must agree too.
    if (
        cached.accept_count != naive.accept_count
        or cached.reject_count != naive.reject_count
        or cached.rejections_by_reason != naive.rejections_by_reason
    ):
        return (
            AdmissionDisagreement(
                trial=trial,
                op_index=ops,
                dps=dps.name,
                detail=(
                    f"counters diverged: cached ({cached.accept_count}, "
                    f"{cached.reject_count}, {cached.rejections_by_reason}) "
                    f"naive ({naive.accept_count}, {naive.reject_count}, "
                    f"{naive.rejections_by_reason})"
                ),
            ),
            counts,
        )
    return None, counts


def run_churn_trial(
    seed: int, trial: int, ops: int = 60
) -> tuple[AdmissionDisagreement | None, dict[str, int]]:
    """One churn trial: requests, releases *and* snapshot/resume ops.

    Like :func:`run_trial`, but roughly one op in twelve serializes the
    cached controller through :mod:`repro.core.persistence`, asserts the
    round-trip is byte-identical (``dumps`` before == after), and swaps
    the restored controller in for the rest of the trial. Every
    subsequent decision therefore also diffs a *restored*
    :class:`FeasibilityCache` against the never-snapshotted naive
    controller -- the interleaving that exposed the cache's
    insertion-order drift across restore.
    """
    from ..core import persistence

    rng = RngRegistry(seed).fork(trial).stream("admission-churn")
    dps = _schemes()[trial % len(_schemes())]
    cached = AdmissionController(
        SystemState(nodes=_NODES), dps, use_cache=True
    )
    naive = AdmissionController(
        SystemState(nodes=_NODES), dps, use_cache=False
    )
    counts = {
        "decisions": 0,
        "accepts": 0,
        "rejects": 0,
        "releases": 0,
        "snapshots": 0,
    }
    touched: set[LinkRef] = set()
    for op_index in range(ops):
        roll = int(rng.integers(0, 12))
        active = sorted(cached.state.channels)
        if roll == 11:
            before = persistence.dumps(cached, indent=None)
            restored = persistence.restore(
                persistence.snapshot(cached), dps
            )
            after = persistence.dumps(restored, indent=None)
            counts["snapshots"] += 1
            if before != after:
                return (
                    AdmissionDisagreement(
                        trial=trial,
                        op_index=op_index,
                        dps=dps.name,
                        detail=(
                            "snapshot round-trip not byte-identical "
                            f"({len(before)} vs {len(after)} bytes)"
                        ),
                    ),
                    counts,
                )
            cached = restored
        elif roll < 3 and active:
            victim = int(active[int(rng.integers(0, len(active)))])
            cached.release(victim)
            naive.release(victim)
            counts["releases"] += 1
        else:
            source = str(rng.choice(_NODES))
            if roll == 10:
                destination = _GHOST_NODE
            else:
                others = [n for n in _NODES if n != source]
                destination = str(rng.choice(others))
            spec = _draw_spec(rng)
            decision_c = cached.request(source, destination, spec)
            decision_n = naive.request(source, destination, spec)
            counts["decisions"] += 1
            if (
                decision_c.accepted != decision_n.accepted
                or decision_c.reason != decision_n.reason
                or (
                    decision_c.accepted
                    and decision_c.channel.channel_id
                    != decision_n.channel.channel_id
                )
            ):
                return (
                    AdmissionDisagreement(
                        trial=trial,
                        op_index=op_index,
                        dps=dps.name,
                        detail=(
                            f"{source}->{destination} {spec} after "
                            f"{counts['snapshots']} resumes: cached "
                            f"(accepted={decision_c.accepted}, "
                            f"reason={decision_c.reason}) naive "
                            f"(accepted={decision_n.accepted}, "
                            f"reason={decision_n.reason})"
                        ),
                    ),
                    counts,
                )
            if decision_c.accepted:
                counts["accepts"] += 1
                touched.update(_links_of(source, destination))
            else:
                counts["rejects"] += 1
        mismatch = _compare_links(cached, naive, tuple(sorted(touched)))
        if mismatch is not None:
            return (
                AdmissionDisagreement(
                    trial=trial,
                    op_index=op_index,
                    dps=dps.name,
                    detail=(
                        f"after {counts['snapshots']} resumes: {mismatch}"
                    ),
                ),
                counts,
            )
    if (
        cached.accept_count != naive.accept_count
        or cached.reject_count != naive.reject_count
        or cached.rejections_by_reason != naive.rejections_by_reason
    ):
        return (
            AdmissionDisagreement(
                trial=trial,
                op_index=ops,
                dps=dps.name,
                detail=(
                    f"counters diverged after {counts['snapshots']} "
                    f"resumes: cached ({cached.accept_count}, "
                    f"{cached.reject_count}, "
                    f"{cached.rejections_by_reason}) naive "
                    f"({naive.accept_count}, {naive.reject_count}, "
                    f"{naive.rejections_by_reason})"
                ),
            ),
            counts,
        )
    return None, counts


def run_admission_campaign(
    trials: int,
    seed: int,
    *,
    ops_per_trial: int = 40,
    disagreement_limit: int = 20,
    batch: bool = False,
    churn: bool = False,
) -> AdmissionDiffReport:
    """Run an N-trial cached-vs-from-scratch admission campaign.

    ``batch=True`` turns every trial into a three-way diff: cached,
    from-scratch, and a third controller replaying the request bursts
    through :meth:`~repro.core.admission.AdmissionController.admit_many`.
    ``churn=True`` runs :func:`run_churn_trial` instead, interleaving
    snapshot/resume ops into every trial (exclusive with ``batch``).
    """
    if trials <= 0:
        raise ConfigurationError(f"trials must be positive, got {trials}")
    if ops_per_trial <= 0:
        raise ConfigurationError(
            f"ops_per_trial must be positive, got {ops_per_trial}"
        )
    if batch and churn:
        raise ConfigurationError(
            "batch and churn modes are mutually exclusive"
        )
    disagreements: list[AdmissionDisagreement] = []
    disagreement_count = 0
    totals = {
        "decisions": 0,
        "accepts": 0,
        "rejects": 0,
        "releases": 0,
        "snapshots": 0,
    }
    for trial in range(trials):
        if churn:
            disagreement, counts = run_churn_trial(
                seed, trial, ops=ops_per_trial
            )
        else:
            disagreement, counts = run_trial(
                seed, trial, ops=ops_per_trial, batch=batch
            )
        for key, value in counts.items():
            totals[key] += value
        if disagreement is not None:
            disagreement_count += 1
            if len(disagreements) < disagreement_limit:
                disagreements.append(disagreement)
    return AdmissionDiffReport(
        trials=trials,
        seed=seed,
        ops_per_trial=ops_per_trial,
        decisions=totals["decisions"],
        accepts=totals["accepts"],
        rejects=totals["rejects"],
        releases=totals["releases"],
        disagreements=tuple(disagreements),
        disagreement_count=disagreement_count,
        batch=batch,
        churn=churn,
        snapshots=totals["snapshots"],
    )
