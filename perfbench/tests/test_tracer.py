"""The tracer's arithmetic, alias patching and clean uninstall."""

import importlib
import sys
import textwrap
import types
from time import perf_counter_ns

import pytest

from perfbench.tracer import LAYERS, Tracer, layer_of


def _spin(ns: int) -> None:
    end = perf_counter_ns() + ns
    while perf_counter_ns() < end:
        pass


def _call_tree(tracer: Tracer):
    """root -> (a -> c), b; each in its own layer, each busy a while."""
    module = types.SimpleNamespace()

    def c():
        _spin(200_000)

    def a():
        _spin(100_000)
        module.c()

    def b():
        _spin(300_000)

    def root():
        _spin(50_000)
        module.a()
        module.b()

    for fn, owner in ((c, "repro.core.task"), (a, "repro.network.port"),
                      (b, "repro.sim.kernel"), (root, "repro.protocol.x")):
        setattr(module, fn.__name__, tracer.wrap(fn, owner, fn.__name__))
    return module


def test_self_times_sum_to_the_root():
    tracer = Tracer()
    tree = _call_tree(tracer)
    before = tracer.snapshot()
    tracer.recording[0] = []
    tree.root()
    after = tracer.snapshot()
    root_ns = tracer.stack[0][0]
    # With no wrapper cost to subtract, self times telescope exactly.
    totals = tracer.layer_totals(before, after)
    assert sum(row[1] for row in totals.values()) == root_ns
    assert {layer: row[0] for layer, row in totals.items() if row[0]} == {
        "core.task": 1, "network": 1, "sim": 1, "protocol": 1,
    }
    assert totals["core.task"][1] >= 200_000
    assert totals["network"][1] >= 100_000
    assert totals["network"][1] < 200_000  # c's time is not a's

    spans = {s["name"]: s for s in tracer.span_records(0)}
    ids = {name.split(":")[1]: s["id"] for name, s in spans.items()}
    parents = {name.split(":")[1]: s["parent"] for name, s in spans.items()}
    assert parents == {"c": ids["a"], "a": ids["root"], "b": ids["root"],
                       "root": -1}


def test_wrapper_cost_is_taken_off_callee_and_caller():
    tracer = Tracer()
    tree = _call_tree(tracer)
    before = tracer.snapshot()
    tree.root()
    after = tracer.snapshot()
    exact = tracer.layer_totals(before, after)
    tracer.inner_ns, tracer.outer_ns = 10.0, 30.0
    corrected = tracer.layer_totals(before, after)
    # root has two wrapped children, a has one, b and c none.
    assert exact["protocol"][1] - corrected["protocol"][1] == 10 + 2 * 30
    assert exact["network"][1] - corrected["network"][1] == 10 + 30
    assert exact["sim"][1] - corrected["sim"][1] == 10


def test_calibration_measures_a_positive_cost():
    tracer = Tracer()
    tracer.calibrate(calls=20_000, repeats=2)
    total, inner = tracer.per_call_ns, tracer.inner_ns
    assert total > 0
    tracer.rescale(3 * total)
    assert tracer.per_call_ns == pytest.approx(3 * total)
    assert tracer.inner_ns == pytest.approx(3 * inner)


def test_layer_names():
    assert layer_of("repro.core.partitioning_ext") == "core.partitioning"
    assert layer_of("repro.multiswitch.fabric") == "multiswitch.graph"
    assert layer_of("repro.network.port") == "network"
    assert layer_of("repro.units") == "other"
    assert layer_of("numpy.core") == "other"
    assert len(set(LAYERS)) == len(LAYERS)


@pytest.fixture
def fake_package(tmp_path):
    package = tmp_path / "tracedpkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "lib.py").write_text(textwrap.dedent("""
        def helper():
            return 41

        class Box:
            def get(self):
                return helper() + 1
    """))
    (package / "user.py").write_text(textwrap.dedent("""
        from tracedpkg.lib import helper

        def call():
            return helper()
    """))
    sys.path.insert(0, str(tmp_path))
    try:
        yield importlib.import_module("tracedpkg")
    finally:
        sys.path.remove(str(tmp_path))
        for name in [n for n in sys.modules if n.startswith("tracedpkg")]:
            del sys.modules[name]


def test_alias_patching_reaches_from_imports(fake_package):
    user = importlib.import_module("tracedpkg.user")
    lib = importlib.import_module("tracedpkg.lib")
    original = lib.helper
    tracer = Tracer()
    tracer.install("tracedpkg")
    try:
        assert user.helper is lib.helper is not original
        before = tracer.snapshot()
        assert user.call() == 41
        assert lib.Box().get() == 42
        after = tracer.snapshot()
        calls = {name: after["calls"][i] - before["calls"][i]
                 for i, name in enumerate(tracer.sites)}
        assert calls["tracedpkg.lib:helper"] == 2
        assert calls["tracedpkg.user:call"] == 1
        assert calls["tracedpkg.lib:Box.get"] == 1
    finally:
        tracer.uninstall()
    assert user.helper is lib.helper is original
    assert tracer.patches == []


def test_alias_patching_reaches_repro_call_sites():
    """``service/intent.py`` binds ``is_feasible`` by name."""
    feasibility = importlib.import_module("repro.core.feasibility")
    intent = importlib.import_module("repro.service.intent")
    original = feasibility.is_feasible
    tracer = Tracer()
    tracer.install()
    try:
        assert intent.is_feasible is feasibility.is_feasible
        assert intent.is_feasible is not original
        assert intent.split_deadline.__wrapped__ is importlib.import_module(
            "repro.multiswitch.partitioning").split_deadline.__wrapped__
    finally:
        tracer.uninstall()
    assert intent.is_feasible is original
