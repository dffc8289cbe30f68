"""The public names the package declares and the demos import all exist, and
the benchmark's tracer finds every name it wraps.

Nothing here runs a simulation: modules are imported and the demos are only
parsed, so a deletion that leaves a stale ``__all__``, breaks a demo's
imports or unbinds a traced name fails in milliseconds.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import pathcouple

MODULES = sorted(m.name for m in pkgutil.iter_modules(pathcouple.__path__)
                 if m.name != "__main__")
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _demo_imports(path: Path):
    """(module, name) for every ``from pathcouple... import name`` in a demo."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 0
            and (node.module or "").split(".")[0] == "pathcouple"
            for alias in node.names]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"pathcouple.{name}")
    exported = getattr(module, "__all__", [])
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"pathcouple.{name}.__all__ names missing attributes: {missing}"


def test_demos_found():
    assert len(DEMOS) >= 6
    assert all(_demo_imports(path) for path in DEMOS)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports_resolve(path):
    missing = []
    for module_name, name in _demo_imports(path):
        module = importlib.import_module(module_name)
        if not hasattr(module, name):
            try:
                importlib.import_module(f"{module_name}.{name}")
            except ModuleNotFoundError:
                missing.append(f"{module_name}.{name}")
    assert not missing, f"{path.name} imports names that do not exist: {missing}"


def test_benchmark_tracer_binds_every_name(monkeypatch):
    # perfbench/tracer.py wraps names in every namespace that binds them; a
    # refactor that unbinds or rebinds one makes instrument() raise.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    t = tracer.Tracer()
    try:
        tracer.instrument(t)
    finally:
        t.restore()
    assert not t._patches
