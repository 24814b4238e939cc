"""Tests for EXP-X3: the graph-fabric acceptance sweep and its CLI."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.experiments.fabric_sweep import (
    FabricSweepConfig,
    build_fabric_topology,
    run_fabric_sweep,
)

#: Reduced-scale config all the unit tests share (the CI smoke scale).
SMOKE = dict(topology="fat-tree:4", hosts_per_edge=2, requests=60,
             checkpoints=5, trials=2)


class TestTopologyParser:
    def test_fat_tree_default_scales_past_100_nodes(self):
        graph = build_fabric_topology("fat-tree:4")
        assert len(graph.nodes) >= 100

    def test_fat_tree_k8_default_density(self):
        graph = build_fabric_topology("fat-tree:8")
        assert len(graph.nodes) == 128
        assert len(graph.switches) == 80

    def test_forms(self):
        assert len(build_fabric_topology("chain:3").switches) == 3
        assert len(build_fabric_topology("tree:2:3").switches) == 4
        assert len(build_fabric_topology("star:7").nodes) == 7
        assert len(
            build_fabric_topology("chain:2", hosts_per_edge=5).nodes
        ) == 10

    def test_rejects_garbage(self):
        for spec in ("ring:4", "fat-tree", "fat-tree:4:4", "chain:x",
                     "fat-tree:3", "star:0"):
            with pytest.raises(ConfigurationError):
                build_fabric_topology(spec)


class TestRunFabricSweep:
    def test_curve_shape_and_monotonicity(self):
        result = run_fabric_sweep(FabricSweepConfig(**SMOKE))
        assert result.topology == "fat-tree:4"
        assert result.n_nodes == 16
        assert result.n_switches == 20
        assert result.max_hops == 6
        assert len(result.points) == 5
        accepted = [p.proportional_mean for p in result.points]
        assert accepted == sorted(accepted)  # acceptance never shrinks
        assert all(
            p.proportional_mean <= p.requested for p in result.points
        )

    def test_proportional_at_least_matches_symmetric_at_saturation(self):
        result = run_fabric_sweep(FabricSweepConfig(**SMOKE))
        last = result.points[-1]
        assert last.proportional_mean >= last.symmetric_mean

    def test_workers_byte_identical(self):
        serial = run_fabric_sweep(FabricSweepConfig(**SMOKE, workers=1))
        pooled = run_fabric_sweep(FabricSweepConfig(**SMOKE, workers=2))
        assert serial == pooled

    def test_routing_seed_changes_paths_not_determinism(self):
        base = run_fabric_sweep(FabricSweepConfig(**SMOKE))
        again = run_fabric_sweep(FabricSweepConfig(**SMOKE))
        assert base == again
        reseeded = run_fabric_sweep(
            FabricSweepConfig(**SMOKE, routing_seed=5)
        )
        assert reseeded.points is not None  # valid result either way

    def test_cross_check_runs_clean(self):
        result = run_fabric_sweep(
            FabricSweepConfig(**SMOKE, cross_check=True)
        )
        assert result.cross_checks
        assert result.cross_check_ok
        assert all(c.links_checked > 0 for c in result.cross_checks)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            run_fabric_sweep(FabricSweepConfig(trials=0))
        with pytest.raises(ConfigurationError):
            run_fabric_sweep(FabricSweepConfig(topology="star:1"))
        with pytest.raises(ConfigurationError):
            run_fabric_sweep(
                FabricSweepConfig(**{**SMOKE, "requests": 0})
            )


class TestFabricSweepCli:
    ARGS = ["fabric-sweep", "--topology", "fat-tree:4",
            "--hosts-per-edge", "2", "--requests", "60",
            "--checkpoints", "5", "--trials", "2"]

    def test_table_output(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "EXP-X3" in out
        assert "mprop" in out

    def test_csv_byte_identical_across_workers(self, tmp_path, capsys):
        serial = tmp_path / "serial.csv"
        pooled = tmp_path / "pooled.csv"
        assert main(self.ARGS + ["--csv", str(serial)]) == 0
        assert main(
            self.ARGS + ["--workers", "2", "--csv", str(pooled)]
        ) == 0
        assert serial.read_bytes() == pooled.read_bytes()

    def test_cross_check_exit_zero(self, capsys):
        assert main(self.ARGS + ["--cross-check"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_bad_topology_exits_2(self, capsys):
        assert main(["fabric-sweep", "--topology", "ring:4"]) == 2
        assert "unknown topology" in capsys.readouterr().err

    @pytest.mark.parametrize("k", [0, 1])
    def test_arity_below_two_names_the_arity(self, k, capsys):
        assert main(["fabric-sweep", "--topology", f"fat-tree:{k}"]) == 2
        assert capsys.readouterr().err == (
            f"repro fabric-sweep: cannot build topology 'fat-tree:{k}': "
            f"fat-tree arity must be even and >= 2, got {k}\n"
        )
