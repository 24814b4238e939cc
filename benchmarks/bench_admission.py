"""EXP-A1/EXP-P2: admission fast-path speedup, cached vs from-scratch.

Times the Figure 18.5 admission sweep (10 masters, 50 slaves, the
paper's ``P=100, C=3, d=40`` spec, 200 requests x 5 seeded trials)
through two :class:`~repro.core.admission.AdmissionController` builds
fed the identical request sequences: one deciding through the
incremental :class:`~repro.core.feasibility_cache.FeasibilityCache`,
one re-running the from-scratch
:func:`~repro.core.feasibility.is_feasible` per request.

Two properties are asserted, not just printed:

* **parity** -- the decision streams must be identical (every run of
  this benchmark doubles as a differential test), and
* **speedup** -- the cached path must be at least 5x faster than the
  from-scratch path on the paper's baseline SDPS sweep (the PR that
  introduced the cache measured ~6.4x for SDPS and ~5x for ADPS on a
  quiet machine; the ADPS floor is set lower because its partition
  choices shift more work into non-memoizable territory).

Timing uses best-of-N (minimum over ``repeats``) with the collector
paused -- the workload is deterministic, so disturbances only ever add
time. Run with ``-s`` to see the timing tables.
"""

from __future__ import annotations

import pytest

from repro.analysis.report import format_table
from repro.experiments.admission_perf import (
    AdmissionPerfConfig,
    run_admission_perf,
    run_batch_perf,
)

#: Speedup floors asserted on the Fig. 18.5 sweep at 200 requested
#: channels. SDPS is the paper's baseline scheme and the headline
#: number; ADPS gets a regression floor (its measured speedup sits
#: right at ~5x and shared machines jitter ratios by ~10%).
_SPEEDUP_FLOOR = {"sdps": 5.0, "adps": 3.5}


def _print_result(result, capsys) -> None:
    rows = [[
        result.config.scheme,
        result.decisions,
        result.accepts,
        f"{result.naive_seconds * 1000:.1f}",
        f"{result.cached_seconds * 1000:.1f}",
        f"{result.speedup:.2f}x",
        "OK" if result.parity else "VIOLATED",
    ]]
    with capsys.disabled():
        print()
        print(format_table(
            ["scheme", "decisions", "accepts", "naive ms", "cached ms",
             "speedup", "parity"],
            rows,
            title="admission fast path -- Fig. 18.5 sweep, 200 requests",
        ))


@pytest.mark.parametrize("scheme", ["sdps", "adps"])
def test_bench_admission_speedup(scheme, capsys):
    """Cached admission beats from-scratch by the asserted floor."""
    result = run_admission_perf(
        AdmissionPerfConfig(scheme=scheme, repeats=3)
    )
    _print_result(result, capsys)
    assert result.parity, (
        "cached and from-scratch controllers diverged on the "
        f"{scheme} sweep"
    )
    floor = _SPEEDUP_FLOOR[scheme]
    assert result.speedup >= floor, (
        f"cached admission speedup regressed on {scheme}: "
        f"{result.speedup:.2f}x < {floor}x "
        f"(naive {result.naive_seconds * 1000:.1f} ms, "
        f"cached {result.cached_seconds * 1000:.1f} ms)"
    )


#: EXP-P7 floors. The saturated-storm regime (second identical burst on
#: a full network: pure template/memo traffic) is the ROADMAP's
#: 10^6 decisions/sec target; quiet machines measure ~1.45M dec/s for
#: SDPS and ~1.5M for ADPS at 10k-request bursts, so the absolute floor
#: keeps ~40% headroom for shared CI boxes. The relative floor pins the
#: batch engine's gain over the PR 2 scalar-cached path *measured in
#: the same process* at its canonical 200-request Fig. 18.5 config
#: (~30-60k dec/s), where ratios are robust to machine speed.
_STORM_RATE_FLOOR = 850_000.0
_STORM_OVER_PR2_FLOOR = 10.0


@pytest.mark.parametrize("scheme", ["sdps", "adps"])
def test_bench_admission_batch_engine(scheme, capsys):
    """EXP-P7: admit_many hits the 10^6 dec/s storm target, stream-equal.

    Three regimes on identical request sequences: the PR 2 scalar
    cached loop at its canonical config, a cold admit_many burst
    (every request decided fresh, one scalar cache check per link),
    and the saturated storm (a second identical burst against a full
    network). Parity is asserted on both
    batch regimes -- every run doubles as a differential test -- then
    the storm must clear the absolute 10^6-class floor *and* beat the
    same-process PR 2 cached rate by >= 10x.
    """
    pr2 = run_admission_perf(AdmissionPerfConfig(scheme=scheme, repeats=3))
    assert pr2.parity
    pr2_rate = pr2.decisions / pr2.cached_seconds
    result = run_batch_perf(
        AdmissionPerfConfig(
            scheme=scheme, requests=10_000, trials=1, repeats=3
        )
    )
    rows = [[
        scheme,
        result.decisions,
        f"{pr2_rate:,.0f}",
        f"{result.scalar_rate:,.0f}",
        f"{result.batched_rate:,.0f}",
        f"{result.storm_rate:,.0f}",
        f"{result.storm_rate / pr2_rate:.1f}x",
        "OK" if result.batch_parity and result.storm_parity else "VIOLATED",
    ]]
    with capsys.disabled():
        print()
        print(format_table(
            ["scheme", "decisions", "pr2 dec/s", "scalar dec/s",
             "cold dec/s", "storm dec/s", "storm/pr2", "parity"],
            rows,
            title="batch admission engine -- EXP-P7 (10k-request bursts)",
        ))
    assert result.batch_parity, (
        f"admit_many diverged from the scalar loop on the {scheme} sweep"
    )
    assert result.storm_parity, (
        f"saturated-storm admit_many diverged from the scalar replay "
        f"on {scheme}"
    )
    assert result.storm_template_hits > 0, (
        "storm burst never hit the template path; the measured regime "
        "is not the one the floor describes"
    )
    assert result.storm_rate >= _STORM_RATE_FLOOR, (
        f"storm throughput regressed on {scheme}: "
        f"{result.storm_rate:,.0f} dec/s < {_STORM_RATE_FLOOR:,.0f}"
    )
    assert result.storm_rate >= _STORM_OVER_PR2_FLOOR * pr2_rate, (
        f"storm admit_many no longer clears {_STORM_OVER_PR2_FLOOR}x "
        f"the PR 2 cached path on {scheme}: {result.storm_rate:,.0f} "
        f"vs {pr2_rate:,.0f} dec/s"
    )


def test_bench_admission_cache_does_incremental_work(capsys):
    """The speedup comes from the advertised mechanisms, not a fluke.

    The cache's own counters must show the fast paths carrying the
    sweep: memo hits plus incremental overlays plus shortcut accepts
    account for every check, and the from-scratch fallback never fires
    on the paper workload.
    """
    result = run_admission_perf(AdmissionPerfConfig(repeats=1))
    stats = result.cache_stats
    with capsys.disabled():
        print()
        print(f"  cache stats: {stats}")
    assert stats["full_fallbacks"] == 0
    fast = (
        stats["memo_hits"]
        + stats["incremental_checks"]
        + stats["shortcut_accepts"]
    )
    assert fast == stats["checks"]
    assert stats["memo_hits"] > 0
    assert stats["installs"] == 2 * result.accepts


def test_bench_admission_registry_metrics_agree(capsys):
    """The telemetry registry's view matches the cache's own counters.

    ``collect_metrics`` replays the cached sweep once, untimed, with a
    metrics registry attached; the flattened snapshot must agree with
    the raw cache stats and the verdict counters must account for every
    decision. This is the ``repro bench-admission --metrics`` path.
    """
    result = run_admission_perf(
        AdmissionPerfConfig(repeats=1, collect_metrics=True)
    )
    metrics = result.registry_metrics
    assert metrics is not None
    with capsys.disabled():
        print()
        for key in sorted(metrics):
            print(f"  {key} = {metrics[key]:g}")
    for stat in ("checks", "memo_hits", "incremental_checks",
                 "shortcut_accepts", "full_fallbacks", "installs"):
        assert metrics[f"feasibility_cache.{stat}"] == (
            result.cache_stats[stat]
        ), f"registry disagrees with cache counter {stat!r}"
    accepts = metrics.get("admission.decisions{verdict=accept}", 0)
    rejects = metrics.get("admission.decisions{verdict=reject}", 0)
    assert accepts == result.accepts
    assert accepts + rejects == result.decisions
