"""Incremental per-link feasibility cache: the admission fast path.

Admission control (Section 18.3.2) answers one question per affected
link: *is the installed task set plus this one candidate still
EDF-feasible?* The from-scratch test (:func:`repro.core.feasibility.is_feasible`)
recomputes the utilization sum, the busy-period fixpoint, the control
points and the demand function for the whole task set on every call,
which makes a Figure 18.5 sweep quadratic-plus in admitted channels.
This module keeps, per :class:`~repro.core.task.LinkRef`, everything the
test needs in incremental form:

* the task list and parallel plain-int lists of periods / capacities /
  deadlines (allocation-free scalar overlay checks and base rebuilds),
* the exact utilization as a running :class:`fractions.Fraction`,
* the cached busy period, reused as a **warm start** for the candidate
  overlay's fixpoint iteration,
* the cached, sorted control-point and demand arrays of the *installed*
  set, so an overlay only evaluates what the candidate can change, and
* a verdict memo keyed by the candidate's ``(P, C, d)``, invalidated on
  every install/release, which makes the saturated tail of an
  acceptance sweep (hundreds of identical rejected requests) O(1).

The overlay exploits two facts proved in THEORY.md §7:

1. If the installed set is feasible then ``h(t) <= t`` holds for *all*
   ``t`` (not only within the checked busy period), so a candidate with
   relative deadline ``d`` can only create a violation at control
   points ``t >= d`` -- everything below ``d`` is skipped.
2. The busy period is monotone in the task set, so the installed set's
   busy period is a valid warm start (lower bound) for the overlay's
   fixpoint iteration.

A deliberate engineering note: the cache runs in *scalar* Python over
the cached sorted lists, with no NumPy. The admission workloads this
repo reproduces have a handful of control points per link (hyperperiod
100 in Figure 18.5), where the fixed per-call overhead of small ndarray
operations costs more than the arithmetic they would vectorize; base
rebuilds in :meth:`LinkCacheEntry._ensure_base` are a prefix sum over
job deadlines, O(jobs). Every admission decision, single request or
burst, checks each link through :meth:`FeasibilityCache.check`.

The from-scratch :func:`~repro.core.feasibility.is_feasible` is retained
unchanged as the reference; :class:`FeasibilityCache` falls back to it
whenever the cached base state is not known to be feasible (it returns
verdict-equal reports either way, as the differential campaign in
:mod:`repro.oracle.admission_diff` and the Hypothesis property tests
enforce).

A :class:`FeasibilityCache` is the store of its links' installed tasks,
not a copy of one kept elsewhere. :class:`~repro.core.admission.SystemState`
keeps the star's per-link task sets (the supposed tasks of Eq.
18.6/18.7) in one, and the cached
:class:`~repro.core.admission.AdmissionController` decides against that
same cache; the multi-switch admission and the intent plane own theirs.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from ..errors import ConfigurationError, UnknownChannelError
from .feasibility import (
    FeasibilityReport,
    is_feasible,
    max_busy_period_iterations,
)
from .task import LinkRef, LinkTask

__all__ = [
    "CacheStats",
    "LinkCacheEntry",
    "FeasibilityCache",
]

#: Do not cache control-point/demand arrays beyond this many points; a
#: link whose installed horizon needs more falls back to the reference
#: test per check (same asymptotics as the from-scratch path).
MAX_CACHED_POINTS = 200_000

#: Density acceptance threshold. ``sum C_i / min(d_i, P_i) <= 1`` is a
#: classical *sufficient* EDF condition (h(t) <= density * t for all t,
#: see THEORY.md §7), tracked as a float running sum. The margin absorbs
#: float rounding: an inconclusive density falls through to the exact
#: demand test, so rounding can only cost a shortcut, never soundness.
_DENSITY_MARGIN = 1.0 - 1e-6

#: Global mutation clock. Every entry stamps itself with the next tick
#: on construction and on each install/release, giving observers
#: (the admission controller's assessment memo) an O(1) "has anything
#: on this link changed?" test that can never confuse two different
#: task-set states -- ticks are process-unique, not per-entry counters.
_EPOCH = itertools.count()

#: Interned ``Fraction(C, P)`` terms. Admission sees few distinct
#: ``(C, P)`` pairs but adds their utilization on every check, and
#: ``Fraction.__new__`` (gcd normalization, type dispatch) is measurable
#: on the hot path. Bounded by the number of distinct pairs ever seen.
_FRACTIONS: dict[tuple[int, int], Fraction] = {}


def _utilization(capacity: int, period: int) -> Fraction:
    key = (capacity, period)
    value = _FRACTIONS.get(key)
    if value is None:
        value = Fraction(capacity, period)
        _FRACTIONS[key] = value
    return value


#: Interned utilization *sums* ``base + C/P``, keyed by the base's
#: normalized numerator/denominator and the addend pair. Every overlay
#: check performs exactly this addition and ``Fraction.__add__`` (gcd,
#: allocation) costs ~2us; the admitted utilization ladder of a link
#: revisits the same sums constantly. Bounded by a wholesale clear.
_UTIL_SUMS: dict[tuple[int, int, int, int], Fraction] = {}
_UTIL_SUMS_MAX = 1 << 16

_ZERO = Fraction(0)


def _util_sum(base: Fraction, capacity: int, period: int) -> Fraction:
    key = (base.numerator, base.denominator, capacity, period)
    value = _UTIL_SUMS.get(key)
    if value is None:
        if len(_UTIL_SUMS) >= _UTIL_SUMS_MAX:
            _UTIL_SUMS.clear()
        value = base + _utilization(capacity, period)
        _UTIL_SUMS[key] = value
    return value


#: Interned shortcut reports (density / utilization / Liu & Layland
#: outcomes carry no violation and no per-point diagnostics, so the
#: same few field combinations recur across links and trials). Keyed by
#: every varying field; bounded by a wholesale clear.
_REPORTS: dict[
    tuple[bool, int, int, int, bool, int], FeasibilityReport
] = {}
_REPORTS_MAX = 1 << 14


def _shortcut_report(
    feasible: bool,
    util: Fraction,
    horizon: int,
    used_ll: bool,
    points_checked: int = 0,
) -> FeasibilityReport:
    key = (
        feasible,
        util.numerator,
        util.denominator,
        horizon,
        used_ll,
        points_checked,
    )
    report = _REPORTS.get(key)
    if report is None:
        if len(_REPORTS) >= _REPORTS_MAX:
            _REPORTS.clear()
        report = FeasibilityReport(
            feasible=feasible,
            link_utilization=util,
            horizon=horizon,
            points_checked=points_checked,
            used_liu_layland=used_ll,
            violation=None,
        )
        _REPORTS[key] = report
    return report


@dataclass(slots=True)
class CacheStats:
    """Observability counters for one :class:`FeasibilityCache`."""

    checks: int = 0
    memo_hits: int = 0
    incremental_checks: int = 0
    shortcut_accepts: int = 0
    full_fallbacks: int = 0
    installs: int = 0
    releases: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "checks": self.checks,
            "memo_hits": self.memo_hits,
            "incremental_checks": self.incremental_checks,
            "shortcut_accepts": self.shortcut_accepts,
            "full_fallbacks": self.full_fallbacks,
            "installs": self.installs,
            "releases": self.releases,
        }


def _busy_period_capped(
    periods: Sequence[int], capacities: Sequence[int], start: int, cap: int
) -> int:
    """Ascend ``W(L) = sum ceil(L/P_i) C_i`` from a warm start.

    ``start`` must not exceed the least fixpoint (the busy period of any
    subset of the task set qualifies -- THEORY.md §7 -- as does 0); the
    iteration then ascends monotonically to it. Returns the least
    fixpoint, or the first iterate ``>= cap``: callers only ever use
    ``min(busy, cap)`` with ``cap`` the hyperperiod, for which both are
    interchangeable (an early-exit iterate is still a lower bound on the
    true fixpoint, so it stays a valid warm start later).

    Callers guarantee ``U <= 1``, so the capped iteration terminates.
    Plain-integer arithmetic: exact at any magnitude.
    """
    total = sum(capacities)
    if total == 0:
        return 0
    length = max(int(start), total)
    for _ in range(max_busy_period_iterations):
        if length >= cap:
            return length
        nxt = 0
        for p, c in zip(periods, capacities):
            nxt += (length + p - 1) // p * c
        if nxt == length:
            return length
        length = nxt
    raise ConfigurationError(  # pragma: no cover - unreachable for U <= 1
        "busy-period iteration failed to converge within "
        f"{max_busy_period_iterations} steps"
    )


class _Overlay(NamedTuple):
    """One memoized candidate-overlay result.

    ``points``/``demands`` cover every control point of the combined set
    in ``[cut, horizon]`` (``cut = min(d_cand, base_horizon + 1)``), with
    the candidate's contribution included -- exactly the suffix that an
    install must graft onto the cached base arrays. ``None`` when the
    result came from a shortcut (utilization, Liu & Layland, density) or
    a reference-test fallback; a feasible shortcut overlay with
    ``busy > 0`` still lets an install adopt the busy period even though
    there are no arrays to graft. (A NamedTuple, not a dataclass: one is
    constructed per fresh check and tuple construction is measurably
    cheaper on the admission hot path.)
    """

    report: FeasibilityReport
    busy: int
    hyper: int
    cut: int
    points: list[int] | None
    demands: list[int] | None


class LinkCacheEntry:
    """Cached incremental state of one link direction.

    Not constructed directly by users -- :class:`FeasibilityCache` owns
    entries and mutates them through its ``install``/``release``.
    """

    __slots__ = (
        "link",
        "tasks",
        "plist",
        "clist",
        "dlist",
        "util",
        "fdensity",
        "cap_sum",
        "hyper",
        "min_p",
        "implicit",
        "busy",
        "horizon",
        "points",
        "demands",
        "next_pt",
        "feasible",
        "memo_f",
        "memo_i",
        "epoch",
    )

    def __init__(self, link: LinkRef, tasks: Iterable[LinkTask] = ()) -> None:
        self.link = link
        self.tasks: list[LinkTask] = list(tasks)
        #: Verdict memos keyed by the candidate's ``(P, C, d)``, split by
        #: verdict so each invalidation rule is an O(1) ``clear()``:
        #: feasible overlays die on every install (added demand can break
        #: them), infeasible ones survive installs (demand monotonicity,
        #: THEORY.md §7) and die only on release/rebuild.
        self.memo_f: dict[tuple[int, int, int], _Overlay] = {}
        self.memo_i: dict[tuple[int, int, int], _Overlay] = {}
        if self.tasks:
            self._rebuild()
            return
        # The empty set's values, as _rebuild() would compute them: the
        # cache creates one empty entry per link it meets.
        self.plist = []
        self.clist = []
        self.dlist = []
        self.util = _ZERO
        self.fdensity = 0
        self.cap_sum = 0
        self.hyper = 1
        self.min_p = 1
        self.implicit = 0
        self._mark_dirty()
        self.epoch = next(_EPOCH)

    # -- bookkeeping -----------------------------------------------------

    def _rebuild(self) -> None:
        """Recompute every cached quantity from ``self.tasks``."""
        self.plist = [t.period for t in self.tasks]
        self.clist = [t.capacity for t in self.tasks]
        self.dlist = [t.deadline for t in self.tasks]
        self.util = Fraction(0)
        for task in self.tasks:
            self.util += _utilization(task.capacity, task.period)
        self.fdensity = sum(
            c / (d if d < p else p)
            for p, c, d in zip(self.plist, self.clist, self.dlist)
        )
        self.cap_sum = sum(self.clist)
        self.hyper = 1
        for period in self.plist:
            self.hyper = math.lcm(self.hyper, period)
        self.min_p = min(self.plist, default=1)
        self.implicit = sum(
            1 for t in self.tasks if t.deadline == t.period
        )
        self._mark_dirty()
        self.memo_f.clear()
        self.memo_i.clear()
        self.epoch = next(_EPOCH)

    def _mark_dirty(self) -> None:
        self.busy = None
        self.horizon = None
        self.points = None
        self.demands = None
        self.next_pt = None
        self.feasible = None

    def _compute_next_pt(self, horizon: int) -> None:
        """Earliest control point of any installed task *beyond* horizon.

        Lets the overlay check skip its horizon-growth scan in O(1): when
        the combined horizon stays below ``next_pt`` there is no base
        control point in the grown window (the usual case -- the busy
        period grows by one capacity while the next points sit a full
        period away). ``None`` when there are no tasks.
        """
        nxt: int | None = None
        for d, p in zip(self.dlist, self.plist):
            t = d if d > horizon else d + ((horizon - d) // p + 1) * p
            if nxt is None or t < nxt:
                nxt = t
        self.next_pt = nxt

    @property
    def all_implicit(self) -> bool:
        return self.implicit == len(self.tasks)

    def _ensure_base(self) -> bool:
        """Materialize busy period, horizon, points and demands.

        Returns True when the cached base arrays are usable for overlay
        checks: the installed set is feasible and its control points fit
        under :data:`MAX_CACHED_POINTS`.
        """
        if self.util.numerator > self.util.denominator:
            self.feasible = False
            return False
        if self.busy is None:
            self.busy = _busy_period_capped(
                self.plist, self.clist, 0, self.hyper
            )
            self.horizon = min(self.busy, self.hyper)
        if self.points is None:
            horizon = self.horizon
            estimated = 0
            for d, p in zip(self.dlist, self.plist):
                if d <= horizon:
                    estimated += (horizon - d) // p + 1
            if estimated > MAX_CACHED_POINTS:
                # Pathological horizon: keep correctness, drop the cache.
                self.feasible = is_feasible(self.tasks).feasible
                return False
            # Rebuilds land on the hot path whenever an install adopted
            # a shortcut verdict (arrays dirty, next exact check
            # rebuilds here). Each job of task i contributes C_i exactly
            # at its absolute deadline d_i + m P_i, so the demand at the
            # sorted control points is a running prefix sum over those
            # contributions -- O(jobs), not O(points x tasks).
            contrib: dict[int, int] = {}
            get = contrib.get
            for d, p, c in zip(self.dlist, self.plist, self.clist):
                t = d
                while t <= horizon:
                    contrib[t] = get(t, 0) + c
                    t += p
            points_l = sorted(contrib)
            demands_l: list[int] = []
            feasible = True
            running = 0
            for t in points_l:
                running += contrib[t]
                demands_l.append(running)
                if running > t:
                    feasible = False
            self.feasible = feasible
            self.points = points_l
            self.demands = demands_l
            self._compute_next_pt(horizon)
        return bool(self.feasible)

    # -- the overlay check -----------------------------------------------

    def _base_demand_at(self, t: int) -> int:
        """Scalar ``h(t)`` of the installed set (no candidate)."""
        total = 0
        for p, c, d in zip(self.plist, self.clist, self.dlist):
            if t >= d:
                total += (1 + (t - d) // p) * c
        return total

    def _shortcut_overlay(
        self, util: Fraction, cand_p: int, cand_c: int, cand_d: int
    ) -> _Overlay | None:
        """Branches that decide without the cached base arrays.

        Utilization overload, the all-implicit Liu & Layland accept and
        the density sufficient accept; ``None`` means "inconclusive,
        run the exact overlay" (:meth:`overlay_check`).
        """
        # util > 1, as a plain-int compare (Fraction.__gt__ dispatch is
        # measurable here): num/den > 1  <=>  num > den.
        if util.numerator > util.denominator:
            return _Overlay(
                report=_shortcut_report(False, util, 0, False),
                busy=0, hyper=0, cut=0, points=None, demands=None,
            )
        if self.all_implicit and cand_d == cand_p:
            return _Overlay(
                report=_shortcut_report(True, util, 0, True),
                busy=0, hyper=0, cut=0, points=None, demands=None,
            )
        # Density sufficient test: sum C/min(d, P) <= 1 proves EDF
        # feasibility outright (THEORY.md §7), turning the accept path
        # on lightly loaded links into O(n)-fixpoint-only work with no
        # point generation at all. The busy period is still computed so
        # the report's horizon matches the from-scratch test exactly.
        fdens = self.fdensity + cand_c / (
            cand_d if cand_d < cand_p else cand_p
        )
        if fdens <= _DENSITY_MARGIN:
            busy2, hyper2 = self._combined_busy(cand_p, cand_c)
            return _Overlay(
                report=_shortcut_report(
                    True, util, busy2 if busy2 < hyper2 else hyper2, False
                ),
                busy=busy2, hyper=hyper2, cut=0, points=None, demands=None,
            )
        return None

    def _fallback_overlay(self, candidate: LinkTask) -> _Overlay:
        """Reference-test overlay (base unknown-feasible or too big)."""
        return _Overlay(
            report=is_feasible(list(self.tasks) + [candidate]),
            busy=0, hyper=0, cut=0, points=None, demands=None,
        )

    def _combined_busy(self, cand_p: int, cand_c: int) -> tuple[int, int]:
        """Busy period and hyperperiod of ``tasks + [candidate]``.

        Warm-started fixpoint with the candidate folded in
        (allocation-free; see :func:`_busy_period_capped` for the
        theory). ``W_new(busy) >= busy + C_cand``, so the cached base
        busy period (when materialized) is a valid warm start.
        """
        hyper = self.hyper
        hyper2 = hyper if hyper % cand_p == 0 else math.lcm(hyper, cand_p)
        start = self.busy if self.busy is not None else 0
        length = max(start + cand_c, self.cap_sum + cand_c)
        plist = self.plist
        clist = self.clist
        for _ in range(max_busy_period_iterations):
            if length >= hyper2:
                break
            nxt = (length + cand_p - 1) // cand_p * cand_c
            for p, c in zip(plist, clist):
                nxt += (length + p - 1) // p * c
            if nxt == length:
                break
            length = nxt
        else:  # pragma: no cover - unreachable for U <= 1
            raise ConfigurationError(
                "busy-period iteration failed to converge within "
                f"{max_busy_period_iterations} steps"
            )
        return length, hyper2

    def _new_points(
        self, cand_p: int, cand_d: int, horizon2: int
    ) -> tuple[int, list[int]] | None:
        """Control points of the combined set not in the cached base.

        Returns ``(lo_idx, new_pts)`` where ``lo_idx`` is the base-array
        index of the first point ``>= cand_d`` and ``new_pts`` is the
        sorted, deduplicated list of (b) base tasks' horizon-growth
        points in ``(base_h, horizon2]`` and (c) the candidate's own
        points ``d + m P`` not coinciding with a cached base point.
        ``None`` when the size guard overflows ``MAX_CACHED_POINTS``
        (caller falls back to the reference test). Requires a
        materialized feasible base (``_ensure_base() == True``) and
        ``cand_d <= horizon2``.
        """
        base_h = self.horizon
        pts = self.points
        plist = self.plist
        lo_idx = bisect_left(pts, cand_d)

        # Size guard before generating anything: points the candidate
        # can affect plus horizon-growth points of the base tasks. Try
        # an O(1) conservative bound (min-period) first; only when that
        # overshoots the cap, pay the exact O(n) count.
        # cand_d <= horizon2 holds here, so the candidate contributes
        # at least one point.
        estimated = len(pts) - lo_idx
        estimated += (horizon2 - cand_d) // cand_p + 1
        if horizon2 > base_h and plist:
            estimated += len(plist) * (
                (horizon2 - base_h) // self.min_p + 1
            )
        if estimated > MAX_CACHED_POINTS:
            estimated = len(pts) - lo_idx
            estimated += (horizon2 - cand_d) // cand_p + 1
            if horizon2 > base_h:
                for d, p in zip(self.dlist, plist):
                    if d <= horizon2:
                        lo = max(d, base_h + 1)
                        if lo <= horizon2:
                            estimated += (horizon2 - lo) // p + 1
            if estimated > MAX_CACHED_POINTS:
                return None

        new_pts: list[int] = []
        next_pt = self.next_pt
        if (
            horizon2 > base_h
            and next_pt is not None
            and next_pt <= horizon2
        ):
            for p, d in zip(plist, self.dlist):
                if d > horizon2:
                    continue
                t = d if d > base_h else d + ((base_h - d) // p + 1) * p
                while t <= horizon2:
                    new_pts.append(t)
                    t += p
        n_pts = len(pts)
        t = cand_d
        while t <= horizon2:
            if t > base_h:
                new_pts.append(t)
            else:
                i = bisect_left(pts, t, lo_idx)
                if i >= n_pts or pts[i] != t:
                    new_pts.append(t)
            t += cand_p
        if new_pts:
            new_pts = sorted(set(new_pts))
        return lo_idx, new_pts

    def _merge_overlay(
        self,
        util: Fraction,
        cand_p: int,
        cand_c: int,
        cand_d: int,
        busy2: int,
        hyper2: int,
        lo_idx: int,
        new_pts: list[int],
        new_dems: list[int],
    ) -> _Overlay:
        """Merge region (a) with the new points (both sorted, disjoint)
        while adding the candidate's contribution and scanning for the
        first violation in global point order. The dominant shape --
        the candidate's points all coincide with cached base points
        and the horizon grew past every deadline, i.e. no new points
        at all -- gets a slice-and-comprehension fast path (every
        region-(a) point is >= cand_d by construction of lo_idx).
        """
        pts = self.points
        dems = self.demands
        horizon2 = min(busy2, hyper2)
        violation: tuple[int, int] | None = None
        if not new_pts:
            merged_pts = pts[lo_idx:]
            merged_dems = [
                base + (1 + (t - cand_d) // cand_p) * cand_c
                for t, base in zip(merged_pts, dems[lo_idx:])
            ]
            for t, h in zip(merged_pts, merged_dems):
                if h > t:
                    violation = (t, h)
                    break
        else:
            merged_pts = []
            merged_dems = []
            i, j = lo_idx, 0
            n_pts = len(pts)
            n_new = len(new_pts)
            while i < n_pts or j < n_new:
                if j >= n_new or (i < n_pts and pts[i] < new_pts[j]):
                    t = pts[i]
                    base = dems[i]
                    i += 1
                else:
                    t = new_pts[j]
                    base = new_dems[j]
                    j += 1
                if t >= cand_d:
                    h = base + (1 + (t - cand_d) // cand_p) * cand_c
                else:
                    h = base  # growth point below d: candidate adds 0
                merged_pts.append(t)
                merged_dems.append(h)
                if violation is None and h > t:
                    violation = (t, h)

        if violation is None:
            report = _shortcut_report(
                True, util, horizon2, False, len(merged_pts)
            )
        else:
            report = FeasibilityReport(
                feasible=False,
                link_utilization=util,
                horizon=horizon2,
                points_checked=len(merged_pts),
                used_liu_layland=False,
                violation=violation,
            )
        return _Overlay(
            report=report,
            busy=busy2,
            hyper=hyper2,
            cut=min(cand_d, self.horizon + 1),
            points=merged_pts,
            demands=merged_dems,
        )

    def overlay_check(self, candidate: LinkTask) -> _Overlay:
        """Feasibility of ``tasks + [candidate]``, recomputing only what
        the candidate can change. Verdict-equal to
        ``is_feasible(tasks + [candidate])`` in every field except
        ``points_checked`` (which counts the points actually evaluated).
        """
        cand_p = candidate.period
        cand_c = candidate.capacity
        cand_d = candidate.deadline
        util = _util_sum(self.util, cand_c, cand_p)
        shortcut = self._shortcut_overlay(util, cand_p, cand_c, cand_d)
        if shortcut is not None:
            return shortcut

        if not self._ensure_base():
            # Base unknown-feasible (or too big to cache): reference test.
            return self._fallback_overlay(candidate)

        busy2, hyper2 = self._combined_busy(cand_p, cand_c)
        horizon2 = min(busy2, hyper2)
        if cand_d > horizon2:
            # The candidate's first control point lies beyond the
            # combined checking horizon. Every point within it then
            # carries zero candidate demand, and the feasible base has
            # h(t) <= t at *all* t (THEORY.md §7 fact 1) -- including
            # horizon-growth points -- so no violation is possible.
            return _Overlay(
                report=_shortcut_report(True, util, horizon2, False),
                busy=busy2, hyper=hyper2, cut=0, points=None, demands=None,
            )
        sized = self._new_points(cand_p, cand_d, horizon2)
        if sized is None:
            return self._fallback_overlay(candidate)
        lo_idx, new_pts = sized
        new_dems = [self._base_demand_at(t) for t in new_pts]
        return self._merge_overlay(
            util, cand_p, cand_c, cand_d, busy2, hyper2,
            lo_idx, new_pts, new_dems,
        )

    # -- mutation --------------------------------------------------------

    def install(self, task: LinkTask) -> None:
        """Add ``task``; graft the memoized overlay when available."""
        overlay = self.memo_f.get(task.pcd)
        can_graft = (
            overlay is not None
            and overlay.points is not None
            and self.points is not None
        )
        if can_graft:
            idx = bisect_left(self.points, overlay.cut)
            self.points = self.points[:idx] + overlay.points
            self.demands = self.demands[:idx] + overlay.demands
            self.busy = overlay.busy
            self.horizon = min(overlay.busy, overlay.hyper)
            self.feasible = True
        elif overlay is not None and overlay.busy > 0:
            # Shortcut proof (density path): no arrays to graft, but the
            # overlay's busy period is the exact fixpoint of the combined
            # set -- adopt it, keep the proved feasibility, and leave the
            # point arrays to a lazy rebuild if ever needed.
            self._mark_dirty()
            self.busy = overlay.busy
            self.horizon = min(overlay.busy, overlay.hyper)
            self.feasible = True
        else:
            self._mark_dirty()
        self.tasks.append(task)
        self.plist.append(task.period)
        self.clist.append(task.capacity)
        self.dlist.append(task.deadline)
        self.util = _util_sum(self.util, task.capacity, task.period)
        self.fdensity += task.capacity / (
            task.deadline if task.deadline < task.period else task.period
        )
        self.cap_sum += task.capacity
        if self.hyper % task.period:
            self.hyper = math.lcm(self.hyper, task.period)
        self.min_p = (
            task.period
            if len(self.tasks) == 1
            else min(self.min_p, task.period)
        )
        if task.deadline == task.period:
            self.implicit += 1
        # Feasible verdicts are invalidated by the added demand;
        # *infeasible* ones (memo_i) survive: demand is monotone in the
        # task set (THEORY.md §7), so a candidate that overloaded the
        # link before this install still overloads it after. Keeping
        # them makes the saturated tail of a sweep O(1) per repeated
        # rejection. Their diagnostic report fields (utilization,
        # violation point) keep describing the first rejection's smaller
        # base set; the verdict is what admission consumes and it is
        # exact.
        if can_graft:
            # Grafted arrays stay live, so the growth-scan skip bound
            # must track the new horizon and the new task's points.
            self._compute_next_pt(self.horizon)
        self.memo_f.clear()
        self.epoch = next(_EPOCH)

    def release(self, channel_id: int) -> None:
        """Drop the task belonging to ``channel_id`` (exactly one)."""
        for index, task in enumerate(self.tasks):
            if task.channel_id == channel_id:
                break
        else:
            raise UnknownChannelError(
                f"channel {channel_id} has no cached task on {self.link}"
            )
        removed = self.tasks.pop(index)
        plist = self.plist
        del plist[index]
        del self.clist[index]
        del self.dlist[index]
        # The interned sum with -C: exact, and no Fraction.__sub__.
        self.util = util = _util_sum(
            self.util, -removed.capacity, removed.period
        )
        # Recompute (not subtract) the float density: subtraction would
        # accumulate rounding drift over long install/release histories.
        self.fdensity = sum(
            c / (d if d < p else p)
            for p, c, d in zip(plist, self.clist, self.dlist)
        )
        self.cap_sum -= removed.capacity
        self.hyper = math.lcm(*plist)
        self.min_p = min(plist, default=1)
        if removed.deadline == removed.period:
            self.implicit -= 1
        was_feasible = self.feasible
        self._mark_dirty()
        # Removing work cannot break feasibility (demand only shrinks),
        # so a known-feasible base stays known-feasible; the arrays are
        # rebuilt lazily on the next check. (U <= 1 as plain ints.)
        if was_feasible:
            self.feasible = (
                True if util.numerator <= util.denominator else None
            )
        self.memo_f.clear()
        self.memo_i.clear()
        self.epoch = next(_EPOCH)


class FeasibilityCache:
    """Per-link incremental admission state over many links.

    The cache is the store of every link's installed tasks: a task is
    on a link from its :meth:`install` until its :meth:`release`, and
    :meth:`tasks_on`, :meth:`link_load` and :meth:`occupied_links` read
    that set back.
    """

    def __init__(self) -> None:
        self._entries: dict[LinkRef, LinkCacheEntry] = {}
        self.stats = CacheStats()

    def entry(self, link: LinkRef) -> LinkCacheEntry:
        """The cache entry for ``link``, created empty on first use.

        For :meth:`check`, :meth:`install`, :meth:`release` and callers
        that watch an entry's ``epoch``; reads go through
        :meth:`tasks_on`, :meth:`link_load` or :meth:`link_utilization`.
        """
        entry = self._entries.get(link)
        if entry is None:
            entry = LinkCacheEntry(link)
            self._entries[link] = entry
        return entry

    # -- queries ---------------------------------------------------------

    def check(self, candidate: LinkTask) -> FeasibilityReport:
        """Would ``candidate``'s link stay feasible with it installed?

        Verdict-equal to ``is_feasible(installed + [candidate])``; see
        :meth:`LinkCacheEntry.overlay_check` for the field-level
        contract.
        """
        stats = self.stats
        stats.checks += 1
        # Inlined self.entry(): check() is the hottest cache call.
        entry = self._entries.get(candidate.link)
        if entry is None:
            entry = self.entry(candidate.link)
        key = candidate.pcd
        overlay = entry.memo_f.get(key)
        if overlay is None:
            overlay = entry.memo_i.get(key)
        if overlay is not None:
            stats.memo_hits += 1
            return overlay.report
        overlay = entry.overlay_check(candidate)
        report = overlay.report
        if overlay.points is not None:
            stats.incremental_checks += 1
        elif report.feasible and overlay.busy > 0:
            stats.shortcut_accepts += 1
        elif report.used_liu_layland or report.link_utilization > 1:
            stats.incremental_checks += 1
        else:
            stats.full_fallbacks += 1
        if report.feasible:
            entry.memo_f[key] = overlay
        else:
            entry.memo_i[key] = overlay
        return report

    # The three reads below never create an entry: a link the cache has
    # not seen holds no task.

    def link_utilization(self, link: LinkRef) -> Fraction:
        entry = self._entries.get(link)
        return _ZERO if entry is None else entry.util

    def link_load(self, link: LinkRef) -> int:
        entry = self._entries.get(link)
        return 0 if entry is None else len(entry.tasks)

    def tasks_on(self, link: LinkRef) -> tuple[LinkTask, ...]:
        entry = self._entries.get(link)
        return () if entry is None else tuple(entry.tasks)

    def occupied_links(self) -> tuple[LinkRef, ...]:
        """Links that currently hold at least one task, sorted."""
        return tuple(
            sorted(
                link for link, entry in self._entries.items() if entry.tasks
            )
        )

    # -- mutation --------------------------------------------------------

    def install(self, task: LinkTask) -> None:
        """Record ``task`` as installed on its link."""
        self.stats.installs += 1
        self.entry(task.link).install(task)

    def release(self, link: LinkRef, channel_id: int) -> None:
        """Drop ``channel_id``'s task from ``link``.

        A release that fails (no such task) creates no entry and is not
        counted in ``stats.releases``.
        """
        entry = self._entries.get(link)
        if entry is None:
            raise UnknownChannelError(
                f"channel {channel_id} has no cached task on {link}"
            )
        entry.release(channel_id)
        self.stats.releases += 1
