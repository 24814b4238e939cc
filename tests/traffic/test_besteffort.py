"""Tests for the best-effort injectors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.partitioning import SymmetricDPS
from repro.errors import ConfigurationError
from repro.network.topology import build_star
from repro.traffic.besteffort import BestEffortInjector


def make_net():
    return build_star(["a", "b", "c"], dps=SymmetricDPS())


class TestSaturatingInjector:
    def test_keeps_link_busy(self):
        net = make_net()
        injector = BestEffortInjector(
            sim=net.sim, node=net.nodes["a"], destinations=["b", "c"]
        )
        injector.start()
        horizon = 50 * net.phy.slot_ns
        net.sim.run(until=horizon)
        injector.stop()
        net.sim.run(until=horizon + 5 * net.phy.slot_ns)
        # ~50 slots of wall clock should deliver ~48+ max frames.
        assert net.metrics.be_frames_delivered >= 40
        assert injector.frames_offered >= net.metrics.be_frames_delivered

    def test_round_robin_destinations(self):
        net = make_net()
        injector = BestEffortInjector(
            sim=net.sim, node=net.nodes["a"], destinations=["b", "c"]
        )
        injector.start()
        net.sim.run(until=20 * net.phy.slot_ns)
        injector.stop()
        net.sim.run(until=25 * net.phy.slot_ns)
        received_b = net.nodes["b"].frames_received
        received_c = net.nodes["c"].frames_received
        assert received_b > 0 and received_c > 0
        assert abs(received_b - received_c) <= 2

    def test_start_is_idempotent(self):
        net = make_net()
        injector = BestEffortInjector(
            sim=net.sim, node=net.nodes["a"], destinations=["b"]
        )
        injector.start()
        injector.start()
        net.sim.run(until=5 * net.phy.slot_ns)
        injector.stop()


class TestPoissonInjector:
    def test_offered_load_roughly_respected(self):
        net = make_net()
        injector = BestEffortInjector(
            sim=net.sim,
            node=net.nodes["a"],
            destinations=["b"],
            mode="poisson",
            offered_load=0.5,
            rng=np.random.default_rng(3),
        )
        injector.start()
        slots = 400
        net.sim.run(until=slots * net.phy.slot_ns)
        injector.stop()
        net.sim.run(until=(slots + 10) * net.phy.slot_ns)
        # 0.5 load over 400 slots ~ 200 frames; accept wide tolerance.
        assert 120 <= injector.frames_offered <= 280

    def test_poisson_requires_rng(self):
        net = make_net()
        with pytest.raises(ConfigurationError):
            BestEffortInjector(
                sim=net.sim,
                node=net.nodes["a"],
                destinations=["b"],
                mode="poisson",
            )


class TestValidation:
    def test_invalid_mode(self):
        net = make_net()
        with pytest.raises(ConfigurationError):
            BestEffortInjector(
                sim=net.sim, node=net.nodes["a"], destinations=["b"],
                mode="burst",
            )

    def test_empty_destinations(self):
        net = make_net()
        with pytest.raises(ConfigurationError):
            BestEffortInjector(
                sim=net.sim, node=net.nodes["a"], destinations=[]
            )

    def test_invalid_offered_load(self):
        net = make_net()
        with pytest.raises(ConfigurationError):
            BestEffortInjector(
                sim=net.sim, node=net.nodes["a"], destinations=["b"],
                mode="poisson", offered_load=0,
                rng=np.random.default_rng(1),
            )


class TestRestart:
    def _offered(self, restart: bool) -> int:
        net = make_net()
        injector = BestEffortInjector(
            sim=net.sim, node=net.nodes["a"], destinations=["b"],
            mode="poisson", offered_load=0.2,
            rng=np.random.default_rng(9),
        )
        injector.start()
        net.run_slots(100)
        if restart:
            injector.stop()
            injector.start()
        net.run_slots(2_000)
        return injector.frames_offered

    def test_stop_then_start_runs_one_chain(self):
        # The stopped chain's pending arrival dies instead of carrying on
        # beside the new one (which doubled the offered load).
        plain, restarted = self._offered(False), self._offered(True)
        assert 0.8 * plain <= restarted <= 1.2 * plain

    def test_start_while_running_is_idempotent(self):
        def offered(starts: int) -> int:
            net = make_net()
            injector = BestEffortInjector(
                sim=net.sim, node=net.nodes["a"], destinations=["b"],
                mode="poisson", offered_load=0.2,
                rng=np.random.default_rng(9),
            )
            for _ in range(starts):
                injector.start()
            net.run_slots(500)
            return injector.frames_offered

        assert offered(2) == offered(1)
