"""Seeded random task-set families driving differential campaigns.

A campaign draws task sets from several *families* -- each stressing a
different region of the admission test's input space -- and runs the
three-way :func:`repro.oracle.differential.cross_check` on every draw:

``uniform``
    independent uniform draws of ``(P, C, d)``; the broad sweep. Mixes
    feasible, infeasible and over-utilized sets.
``harmonic``
    harmonic periods (divisor chains), where busy periods stay short
    and verdicts flip on single-slot margins.
``paper``
    the Figure 18.5 workload shape (``C=3, P=100``) with the paper's
    deadline-partition values (``d in {20, 40, 100}``), sized to
    straddle the exact per-link saturation boundaries (6 channels fit
    at ``d=20``, 13 at ``d=40``).
``adversarial``
    utilization forced into ``[0.9, 1.1]`` with tight deadlines
    (``d <= P``) -- the band where every oracle works hardest and where
    the naive/fast/timeline verdicts are most likely to diverge if a
    reduction is subtly wrong.

Every draw is a pure function of ``(family, root seed, trial index)``
via :class:`repro.sim.rng.RngRegistry`, so any disagreement a campaign
reports can be reproduced in isolation with
:func:`generate_task_set` and the recorded coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.task import LinkRef, LinkTask
from ..errors import ConfigurationError
from ..sim.rng import RngRegistry
from .differential import (
    DEFAULT_MAX_HORIZON,
    Agreement,
    OracleVerdict,
    cross_check,
)

__all__ = [
    "FAMILIES",
    "generate_task_set",
    "Disagreement",
    "CampaignReport",
    "run_campaign",
]

#: All known family names, in the order campaigns cycle through them.
FAMILIES: tuple[str, ...] = ("uniform", "harmonic", "paper", "adversarial")

_LINK = LinkRef.uplink("oracle-fuzz")

#: Harmonic period menu: every value divides 120, keeping hyperperiods
#: (and therefore replay horizons) tightly bounded.
_HARMONIC_PERIODS = (5, 10, 15, 30, 60, 120)


def _make(period: int, capacity: int, deadline: int, index: int) -> LinkTask:
    return LinkTask(
        link=_LINK,
        period=period,
        capacity=capacity,
        deadline=deadline,
        channel_id=index,
    )


def _uniform(rng: np.random.Generator) -> list[LinkTask]:
    n = int(rng.integers(1, 9))
    tasks = []
    for index in range(n):
        period = int(rng.integers(2, 61))
        capacity = int(rng.integers(1, period + 1))
        deadline = int(rng.integers(capacity, 121))
        tasks.append(_make(period, capacity, deadline, index))
    return tasks


def _harmonic(rng: np.random.Generator) -> list[LinkTask]:
    n = int(rng.integers(1, 7))
    tasks = []
    for index in range(n):
        period = int(rng.choice(_HARMONIC_PERIODS))
        capacity = int(rng.integers(1, max(2, period // 2)))
        deadline = int(rng.integers(capacity, 2 * period + 1))
        tasks.append(_make(period, capacity, deadline, index))
    return tasks


def _paper(rng: np.random.Generator) -> list[LinkTask]:
    # One switch-port's view of the Figure 18.5 workload: n identical
    # C=3, P=100 channels whose per-link deadline came out of SDPS
    # (d=40 halved -> 20), ADPS, or an unpartitioned d=P fallback.
    n = int(rng.integers(1, 15))
    deadlines = rng.choice((20, 40, 100), size=n)
    return [
        _make(100, 3, int(deadlines[index]), index) for index in range(n)
    ]


def _adversarial(rng: np.random.Generator) -> list[LinkTask]:
    n = int(rng.integers(2, 7))
    periods = [int(rng.choice(_HARMONIC_PERIODS)) for _ in range(n)]
    capacities = [1] * n
    target = float(rng.uniform(0.9, 1.1))
    # Greedily pour capacity into random tasks until the target band.
    for _ in range(1000):
        utilization = sum(c / p for c, p in zip(capacities, periods))
        if utilization >= target:
            break
        index = int(rng.integers(0, n))
        if capacities[index] < periods[index]:
            capacities[index] += 1
    tasks = []
    for index in range(n):
        deadline = int(rng.integers(capacities[index], periods[index] + 1))
        tasks.append(
            _make(periods[index], capacities[index], deadline, index)
        )
    return tasks


_GENERATORS = {
    "uniform": _uniform,
    "harmonic": _harmonic,
    "paper": _paper,
    "adversarial": _adversarial,
}


def generate_task_set(family: str, seed: int, trial: int) -> list[LinkTask]:
    """The exact task set campaign trial ``trial`` drew from ``family``.

    Pure in ``(family, seed, trial)``: use the coordinates recorded in a
    :class:`Disagreement` to replay a single failing draw under a
    debugger without rerunning the campaign.
    """
    if family not in _GENERATORS:
        raise ConfigurationError(
            f"unknown fuzz family {family!r} (have {sorted(_GENERATORS)})"
        )
    rng = RngRegistry(seed).fork(trial).stream(f"oracle-{family}")
    return _GENERATORS[family](rng)


@dataclass(frozen=True, slots=True)
class Disagreement:
    """Reproduction coordinates plus the verdict for one failed trial."""

    family: str
    trial: int
    verdict: OracleVerdict

    def reproduce_hint(self, seed: int) -> str:
        return (
            f"generate_task_set({self.family!r}, seed={seed}, "
            f"trial={self.trial})"
        )


@dataclass(frozen=True, slots=True)
class CampaignReport:
    """Outcome of one differential fuzz campaign."""

    trials: int
    seed: int
    families: tuple[str, ...]
    #: trial counts per agreement class (keys: Agreement values).
    counts: dict[str, int]
    #: recorded mismatches (capped at :data:`DISAGREEMENT_LIMIT`).
    disagreements: tuple[Disagreement, ...]
    #: total mismatching trials, even beyond the recording cap.
    disagreement_count: int

    @property
    def ok(self) -> bool:
        """True when no trial produced an oracle contradiction."""
        return self.disagreement_count == 0

    @property
    def capped(self) -> int:
        return self.counts.get(Agreement.HORIZON_CAPPED.value, 0)

    def summary(self) -> str:
        status = "OK" if self.ok else "DISAGREEMENTS FOUND"
        parts = ", ".join(
            f"{name}={count}" for name, count in sorted(self.counts.items())
        )
        lines = [
            f"oracle campaign {status}: {self.trials} trials, "
            f"seed {self.seed}, families {'/'.join(self.families)}",
            f"  {parts}",
        ]
        for disagreement in self.disagreements:
            lines.append(
                f"  MISMATCH family={disagreement.family} "
                f"trial={disagreement.trial}: "
                f"{disagreement.verdict.summary()}"
            )
            lines.append(
                f"    reproduce: {disagreement.reproduce_hint(self.seed)}"
            )
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "families": list(self.families),
            "counts": dict(sorted(self.counts.items())),
            "disagreement_count": self.disagreement_count,
            "disagreements": [
                {
                    "family": d.family,
                    "trial": d.trial,
                    "detail": d.verdict.detail,
                    "tasks": [
                        {
                            "period": t.period,
                            "capacity": t.capacity,
                            "deadline": t.deadline,
                        }
                        for t in d.verdict.tasks
                    ],
                }
                for d in self.disagreements
            ],
            "ok": self.ok,
        }


#: Mismatches a campaign report records in full; the rest are only
#: counted.
DISAGREEMENT_LIMIT = 20


def run_campaign(
    trials: int,
    seed: int,
    families: Sequence[str] = FAMILIES,
    *,
    check_naive: bool = True,
    max_horizon: int = DEFAULT_MAX_HORIZON,
) -> CampaignReport:
    """Run an N-trial differential campaign.

    Trials cycle round-robin through ``families``; trial ``i`` draws
    :func:`generate_task_set(families[i % len], seed, i) <generate_task_set>`
    and cross-checks it. The report is a pure function of the arguments.
    """
    if trials <= 0:
        raise ConfigurationError(f"trials must be positive, got {trials}")
    families = tuple(families)
    for family in families:
        if family not in _GENERATORS:
            raise ConfigurationError(
                f"unknown fuzz family {family!r} (have {sorted(_GENERATORS)})"
            )
    counts: dict[str, int] = {}
    disagreements: list[Disagreement] = []
    disagreement_count = 0
    for trial in range(trials):
        family = families[trial % len(families)]
        tasks = generate_task_set(family, seed, trial)
        verdict = cross_check(
            tasks, check_naive=check_naive, max_horizon=max_horizon
        )
        key = verdict.agreement.value
        counts[key] = counts.get(key, 0) + 1
        if verdict.agreement.is_disagreement:
            disagreement_count += 1
            if len(disagreements) < DISAGREEMENT_LIMIT:
                disagreements.append(
                    Disagreement(family=family, trial=trial, verdict=verdict)
                )
    return CampaignReport(
        trials=trials,
        seed=seed,
        families=families,
        counts=counts,
        disagreements=tuple(disagreements),
        disagreement_count=disagreement_count,
    )
