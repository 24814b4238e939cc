"""Tests for LinkRef/LinkTask (the supposed tasks of Eq. 18.6/18.7)."""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.channel import ChannelSpec, DeadlinePartition, RTChannel
from repro.core.task import LinkDirection, LinkRef, LinkTask
from repro.errors import ChannelParameterError


class TestLinkRef:
    def test_uplink_downlink_distinct(self):
        assert LinkRef.uplink("a") != LinkRef.downlink("a")

    def test_same_direction_same_node_equal(self):
        assert LinkRef.uplink("a") == LinkRef.uplink("a")

    def test_hashable_and_sortable(self):
        refs = {LinkRef.uplink("a"), LinkRef.downlink("a"), LinkRef.uplink("b")}
        assert len(refs) == 3
        assert sorted(refs)  # does not raise

    def test_direction_opposite(self):
        assert LinkDirection.UPLINK.opposite is LinkDirection.DOWNLINK
        assert LinkDirection.DOWNLINK.opposite is LinkDirection.UPLINK

    def test_equality_order_and_repr_ignore_the_cached_hash(self):
        a = LinkRef.uplink("a")
        assert hash(a) == hash(("a", LinkDirection.UPLINK))
        b = LinkRef(node="a", direction=LinkDirection.UPLINK)
        object.__setattr__(b, "_hash", a._hash + 1)  # noqa: SLF001
        assert a == b and not a < b and not b < a
        assert LinkRef.downlink("a") < a < LinkRef.uplink("b")
        assert repr(a) == (
            "LinkRef(node='a', direction=<LinkDirection.UPLINK: 'uplink'>)"
        )

    def test_pickling_returns_the_interned_ref(self):
        for ref in (LinkRef.uplink("p0"), LinkRef.downlink("p0")):
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(ref, protocol)) is ref
            assert copy.deepcopy(ref) is ref
        task = LinkTask(
            link=LinkRef.downlink("p0"), period=100, capacity=3, deadline=20
        )
        assert pickle.loads(pickle.dumps(task)).link is task.link

    def test_a_ref_pickled_under_another_hash_seed_finds_its_key(
        self, tmp_path
    ):
        """A ref and a task holding one, pickled in a process with one
        string-hash salt and loaded in a process with another, hash as
        the loading process's own refs do."""
        dumped = tmp_path / "refs.pickle"
        dump = (
            "import pickle, sys\n"
            "from repro.core.task import LinkRef, LinkTask\n"
            "task = LinkTask(link=LinkRef.downlink('s0'), period=100,\n"
            "                capacity=3, deadline=20, channel_id=7)\n"
            "with open(sys.argv[1], 'wb') as out:\n"
            "    pickle.dump((LinkRef.uplink('m0'), task), out)\n"
        )
        load = (
            "import pickle, sys\n"
            "from repro.core.task import LinkRef\n"
            "with open(sys.argv[1], 'rb') as src:\n"
            "    ref, task = pickle.load(src)\n"
            "assert ref == LinkRef.uplink('m0')\n"
            "assert {LinkRef.uplink('m0'): 1}.get(ref) == 1, 'bare ref'\n"
            "assert {LinkRef.downlink('s0'): 1}.get(task.link) == 1, 'task'\n"
            "assert ref is LinkRef.uplink('m0')\n"
            "assert task.link is LinkRef.downlink('s0')\n"
            "assert task.channel_id == 7\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        for seed, script in (("1", dump), ("2", load)):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-c", script, str(dumped)],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert done.returncode == 0, done.stderr


class TestLinkTask:
    def test_valid_task(self, uplink):
        task = LinkTask(link=uplink, period=100, capacity=3, deadline=20)
        assert task.utilization == 0.03

    @pytest.mark.parametrize("field,value", [
        ("period", 0), ("capacity", 0), ("deadline", 0),
        ("period", -1), ("capacity", -2), ("deadline", -3),
    ])
    def test_nonpositive_rejected(self, uplink, field, value):
        kwargs = dict(link=uplink, period=100, capacity=3, deadline=20)
        kwargs[field] = value
        with pytest.raises(ChannelParameterError):
            LinkTask(**kwargs)

    def test_capacity_above_period_rejected(self, uplink):
        with pytest.raises(ChannelParameterError):
            LinkTask(link=uplink, period=2, capacity=3, deadline=5)

    def test_deadline_below_capacity_rejected(self, uplink):
        # Eq. 18.9: deadline < WCET can never be met.
        with pytest.raises(ChannelParameterError, match="18.9"):
            LinkTask(link=uplink, period=100, capacity=3, deadline=2)

    def test_deadline_equal_capacity_allowed(self, uplink):
        LinkTask(link=uplink, period=100, capacity=3, deadline=3)


class TestPairForChannel:
    def test_pair_matches_eq_18_6_and_18_7(self, paper_spec):
        channel = RTChannel(source="src", destination="dst", spec=paper_spec)
        channel.channel_id = 9
        channel.assign_partition(DeadlinePartition(uplink=25, downlink=15))
        up, down = LinkTask.pair_for_channel(channel)
        assert up.link == LinkRef.uplink("src")
        assert down.link == LinkRef.downlink("dst")
        assert up.period == down.period == paper_spec.period
        assert up.capacity == down.capacity == paper_spec.capacity
        assert up.deadline == 25
        assert down.deadline == 15
        assert up.channel_id == down.channel_id == 9

    def test_pair_requires_partition(self, paper_spec):
        channel = RTChannel(source="src", destination="dst", spec=paper_spec)
        with pytest.raises(Exception):
            LinkTask.pair_for_channel(channel)
