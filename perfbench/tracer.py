"""Outside-in layer tracer: wraps ``repro`` functions to split host time.

Nothing in ``repro`` knows it is being traced. :meth:`Tracer.install`
replaces every function and method defined in a ``repro`` module with a
timing wrapper, and :meth:`Tracer.uninstall` puts the originals back.
Each wrapped call measures its duration; its *self time* is that
duration minus the time of the wrapped calls made inside it. Self time
is folded into layers named after the modules (:func:`layer_of`).

The wrapper costs time of its own, which would otherwise land on the
caller. :meth:`Tracer.calibrate` measures that cost on a no-op, split
into ``inner_ns`` (inside the callee's own clock reads, taken off the
callee) and ``outer_ns`` (the rest, taken off the caller once per
child call); :meth:`Tracer.layer_totals` subtracts both.

Pitfalls handled here:

* a module-level function imported by name elsewhere
  (``from ..core.feasibility import is_feasible``) is patched in every
  module that holds the same function object;
* bound methods are captured when objects are built
  (``link.on_idle = port._pump``), so wrappers must be installed before
  any object of a traced round is constructed;
* every class's own ``__dict__`` is patched, so each concrete
  partitioning scheme's ``partition`` is wrapped separately;
* generator functions are left alone: their body runs when the caller
  iterates, so a wrapper would time only the creation of the generator.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import pkgutil
import sys
from collections import defaultdict
from time import perf_counter_ns

__all__ = ["LAYERS", "Tracer", "layer_of"]

#: Every layer the ledger reports, named after ``repro`` modules. A
#: module not listed folds into ``other``.
LAYERS = (
    "sim",
    "network",
    "protocol",
    "traffic",
    "faults",
    "analysis",
    "obs",
    "netcalc",
    "oracle",
    "experiments",
    "core.admission",
    "core.channel",
    "core.channel_manager",
    "core.edf_queue",
    "core.feasibility",
    "core.feasibility_cache",
    "core.partitioning",
    "core.persistence",
    "core.rt_layer",
    "core.schedule",
    "core.task",
    "multiswitch.admission",
    "multiswitch.graph",
    "multiswitch.partitioning",
    "multiswitch.simnet",
    "service.churn",
    "service.intent",
    "service.service",
    "other",
)
_LAYER_INDEX = {layer: i for i, layer in enumerate(LAYERS)}

#: Modules that share a layer with a sibling.
_LAYER_ALIASES = {
    "core.partitioning_ext": "core.partitioning",
    "multiswitch.fabric": "multiswitch.graph",
}

#: Packages whose modules are layers of their own.
_SPLIT_PACKAGES = ("core", "multiswitch", "service")

#: Dunder methods worth timing; the rest are too small to matter.
_DUNDERS = ("__init__", "__call__")

#: Spans kept for the recorded round; later ones are dropped.
SPAN_LIMIT = 50_000


def layer_of(module: str) -> str:
    """The layer a ``repro`` module's self time is folded into."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return "other"
    name = parts[1]
    if name in _SPLIT_PACKAGES and len(parts) > 2:
        name = _LAYER_ALIASES.get(f"{name}.{parts[2]}", f"{name}.{parts[2]}")
    return name if name in _LAYER_INDEX else "other"


def _import_all(package: str) -> None:
    """Import every module of ``package`` so all of them get wrapped."""
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, package + "."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def _traceable(fn) -> bool:
    return inspect.isfunction(fn) and not (
        inspect.isgeneratorfunction(fn) or inspect.iscoroutinefunction(fn)
    )


def _never(key: str) -> bool:
    return False


class Tracer:
    """Collects per-function call counts and self time.

    One instance per traced pass. Counters are flat lists indexed by a
    *site* (one per wrapped function, named ``"module:qualname"``);
    :meth:`snapshot` copies them so a caller can take per-round
    differences.
    """

    def __init__(self) -> None:
        self.sites: list[str] = []
        self.layers: list[str] = []
        self.calls: list[int] = []
        #: sum over calls of (duration - wrapped direct children's time)
        self.raw_self_ns: list[int] = []
        #: sum over calls of the number of wrapped direct children
        self.children: list[int] = []
        #: sampled sites: per call ``(duration_ns, wrapped descendants)``
        self.samples: dict[int, list[tuple[int, int]]] = {}
        #: sized sites: summed ``len()`` of the return values
        self.result_bytes: dict[int, int] = {}
        #: call stack of frames ``[child_ns, child_calls, descendants,
        #: layer, span_depth]``; the bottom frame is the benchmark's code.
        self.stack: list[list[int]] = [[0, 0, 0, -1, 0]]
        #: ``[spans]`` while a round is recorded, ``[None]`` otherwise;
        #: spans are ``(site, start_ns, end_ns, span_depth)``
        self.recording: list = [None]
        self.inner_ns = 0.0
        self.outer_ns = 0.0
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def wrap(self, fn, module: str, qualname: str, *, sample: bool = False,
             sized: bool = False):
        """A timing wrapper around ``fn``, counted as a new site.

        ``sample`` keeps every call's duration; ``sized`` sums ``len()``
        of the return values (encoders). A span is recorded only where
        a call enters another layer than its caller's.
        """
        site = len(self.sites)
        layer = layer_of(module)
        self.sites.append(f"{module}:{qualname}")
        self.layers.append(layer)
        self.calls.append(0)
        self.raw_self_ns.append(0)
        self.children.append(0)
        layer_id = _LAYER_INDEX[layer]
        stack = self.stack
        push, pop = stack.append, stack.pop
        calls, raw, children = self.calls, self.raw_self_ns, self.children
        recording = self.recording
        samples = self.samples.setdefault(site, []) if sample else None
        if sized:
            self.result_bytes[site] = 0
        result_bytes = self.result_bytes

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            top = stack[-1]
            boundary = top[3] != layer_id
            depth = top[4] + boundary
            frame = [0, 0, 0, layer_id, depth]
            push(frame)
            start = perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                pop()
                duration = end - start
                top[0] += duration
                top[1] += 1
                top[2] += 1 + frame[2]
                calls[site] += 1
                raw[site] += duration - frame[0]
                children[site] += frame[1]
                if samples is not None:
                    samples.append((duration, frame[2]))
                if sized and result is not None:
                    result_bytes[site] += len(result)
                spans = recording[0]
                if (spans is not None and boundary
                        and len(spans) < SPAN_LIMIT):
                    spans.append((site, start, end, depth))

        return wrapper

    def install(self, package: str = "repro", *, sample=_never,
                sized=_never) -> None:
        """Wrap every function and method of ``package``.

        ``sample`` and ``sized`` are predicates on a site name
        ``"module:qualname"`` choosing the sites that keep per-call
        durations or sum their results' lengths.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        _import_all(package)
        modules = [
            module for name, module in sorted(sys.modules.items())
            if name == package or name.startswith(package + ".")
        ]
        aliases = self._alias_index()

        def wrapped(fn, module_name):
            key = f"{module_name}:{fn.__qualname__}"
            return self.wrap(fn, module_name, fn.__qualname__,
                             sample=sample(key), sized=sized(key))

        for module in modules:
            name = module.__name__
            for attr, value in list(vars(module).items()):
                if _traceable(value) and value.__module__ == name:
                    wrapper = wrapped(value, name)
                    for holder, alias in aliases.get(id(value), ()):
                        self._patch(holder, alias, wrapper)
                elif (inspect.isclass(value) and value.__module__ == name
                      and value.__qualname__ == attr):
                    self._wrap_class(value, name, wrapped)

    def _wrap_class(self, cls, module_name: str, wrapped) -> None:
        if issubclass(cls, (enum.Enum, BaseException)) or getattr(
            cls, "_is_protocol", False
        ):
            return
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("__") and attr not in _DUNDERS:
                continue
            kind = type(raw) if isinstance(
                raw, (staticmethod, classmethod)
            ) else None
            fn = raw.__func__ if kind is not None else raw
            if not _traceable(fn) or fn.__module__ != module_name:
                continue
            wrapper = wrapped(fn, module_name)
            self._patch(cls, attr, kind(wrapper) if kind else wrapper)

    @staticmethod
    def _alias_index() -> dict[int, list[tuple[object, str]]]:
        """Every module-global name bound to a function, by function id."""
        index: dict[int, list[tuple[object, str]]] = defaultdict(list)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for name, value in list(namespace.items()):
                if inspect.isfunction(value):
                    index[id(value)].append((module, name))
        return index

    def _patch(self, holder, attr: str, value) -> None:
        self._patches.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    @property
    def patches(self) -> list[tuple[object, str, object]]:
        """``(holder, attribute, original)`` for every live patch."""
        return list(self._patches)

    # -- calibration ----------------------------------------------------------

    def calibrate(self, calls: int = 200_000, repeats: int = 5) -> None:
        """Measure the wrapper's own cost on a no-op (best of ``repeats``)."""

        def noop():
            return None

        probe = Tracer()
        wrapped = probe.wrap(noop, __name__, "noop")
        plain_ns = wrapped_ns = measured_ns = float("inf")
        for _ in range(repeats):
            start = perf_counter_ns()
            for _ in range(calls):
                noop()
            plain_ns = min(plain_ns, (perf_counter_ns() - start) / calls)
            before = probe.raw_self_ns[0]
            start = perf_counter_ns()
            for _ in range(calls):
                wrapped()
            elapsed = (perf_counter_ns() - start) / calls
            if elapsed < wrapped_ns:
                wrapped_ns = elapsed
                measured_ns = (probe.raw_self_ns[0] - before) / calls
        self.inner_ns = max(0.0, measured_ns - plain_ns)
        self.outer_ns = max(0.0, wrapped_ns - measured_ns)

    def rescale(self, per_call_ns: float) -> None:
        """Keep the calibrated inner/outer split, at ``per_call_ns`` total.

        The no-op underestimates what a wrapper costs inside real code;
        the harness measures the real per-call cost by comparing traced
        and untraced runs of the same rounds.
        """
        total = self.inner_ns + self.outer_ns
        if total > 0 and per_call_ns > 0:
            self.inner_ns *= per_call_ns / total
            self.outer_ns *= per_call_ns / total

    @property
    def per_call_ns(self) -> float:
        return self.inner_ns + self.outer_ns

    # -- accounting -------------------------------------------------------------

    def snapshot(self) -> dict:
        """A copy of the counters, for per-round differences."""
        return {
            "calls": list(self.calls),
            "raw": list(self.raw_self_ns),
            "children": list(self.children),
            "bytes": dict(self.result_bytes),
            "samples": {site: len(v) for site, v in self.samples.items()},
        }

    def layer_totals(self, before: dict, after: dict) -> dict[str, list]:
        """``{layer: [calls, self_ns]}`` between two snapshots, with the
        wrapper's cost taken off."""
        totals = {layer: [0, 0.0] for layer in LAYERS}
        for site, layer in enumerate(self.layers):
            calls = after["calls"][site] - before["calls"][site]
            if not calls:
                continue
            raw = after["raw"][site] - before["raw"][site]
            kids = after["children"][site] - before["children"][site]
            row = totals[layer]
            row[0] += calls
            row[1] += raw - kids * self.outer_ns - calls * self.inner_ns
        return totals

    def site_totals(self, before: dict, after: dict) -> dict[str, list]:
        """``{site: [calls, self_ns]}`` for every site called in between."""
        out = {}
        for site, name in enumerate(self.sites):
            calls = after["calls"][site] - before["calls"][site]
            if calls:
                raw = after["raw"][site] - before["raw"][site]
                kids = after["children"][site] - before["children"][site]
                out[name] = [calls, raw - kids * self.outer_ns
                             - calls * self.inner_ns]
        return out

    def durations(self, before: dict, after: dict, name: str) -> list[float]:
        """Inclusive durations of the sampled site ``name`` between two
        snapshots, each less the cost of its wrapped descendants."""
        out: list[float] = []
        for site, site_name in enumerate(self.sites):
            if site_name == name and site in self.samples:
                window = self.samples[site][
                    before["samples"][site]:after["samples"][site]
                ]
                out.extend(
                    duration - descendants * self.per_call_ns - self.inner_ns
                    for duration, descendants in window
                )
        return out

    def span_records(self, round_index: int) -> list[dict]:
        """The recorded spans, with ids and parent ids.

        Spans complete in post-order, so a span's parent is the nearest
        later span one level up (``parent`` -1 is the round itself).
        """
        spans = self.recording[0] or []
        parents = [-1] * len(spans)
        latest_at_depth: dict[int, int] = {}
        for index in range(len(spans) - 1, -1, -1):
            depth = spans[index][3]
            parents[index] = latest_at_depth.get(depth - 1, -1)
            latest_at_depth[depth] = index
        return [
            {
                "id": index,
                "name": self.sites[site],
                "layer": self.layers[site],
                "start_ns": start,
                "end_ns": end,
                "parent": parents[index],
                "round": round_index,
            }
            for index, (site, start, end, _) in enumerate(spans)
        ]
