"""Only :mod:`repro.obs` builds or writes a metric.

The model keeps its counts as plain fields and the telemetry bundle's
snapshot-time collectors read them, so no decision or data path carries
a registry fork. This test holds the rule: no module under
``src/repro/`` outside ``repro/obs/`` may call ``.counter(``,
``.gauge(`` or ``.histogram(`` -- the registry's three family
builders.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

_BUILDERS = frozenset({"counter", "gauge", "histogram"})
_PACKAGE = Path(repro.__file__).parent


def _builder_calls(path: Path) -> list[str]:
    """``file:line .name(`` for every family-builder call in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        f"{path.relative_to(_PACKAGE.parent)}:{node.lineno} "
        f".{node.func.attr}("
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _BUILDERS
    ]


def test_no_module_outside_obs_builds_a_metric():
    modules = [
        path for path in sorted(_PACKAGE.rglob("*.py"))
        if (_PACKAGE / "obs") not in path.parents
    ]
    assert len(modules) > 50  # the walk found the package
    # and the parse sees a builder where there is one
    assert _builder_calls(_PACKAGE / "obs" / "bundle.py")
    calls = [call for path in modules for call in _builder_calls(path)]
    assert calls == []
