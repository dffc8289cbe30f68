"""The public names the package declares and the demos import all exist, the
benchmark's tracer finds every name it wraps, every import sits at module top
(except the SciPy modules deferred for start-up), and the demos run.

The name checks only import modules and parse the demos, so a deletion that
leaves a stale ``__all__``, breaks a demo's imports or unbinds a traced name
fails in milliseconds.  The demos then run in-process, except log_harnack.py
(the criterion-7 experiment at full size), so a removed keyword or
constructor argument they use fails the suite too.
"""

import ast
import importlib
import pkgutil
import runpy
from pathlib import Path

import pytest

import pathcouple

SRC = Path(pathcouple.__file__).resolve().parent
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


@pytest.mark.parametrize("path", [p for p in DEMOS if p.name != "log_harnack.py"],
                         ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


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


def test_one_euler_step_call():
    # Every simulator steps through the one Euler loop, the only caller of _euler_step.
    calls = [(path.name, node.lineno) for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_euler_step"]
    assert len(calls) == 1, f"calls of _euler_step (file, line): {calls}"


@pytest.mark.parametrize("simulator", ["simulate_paths", "simulate_coupled_Q", "simulate_mckean"])
def test_one_call_site_per_simulator(simulator):
    # decay and entropy read one coupled run, cached on the config; alh and
    # gradient share one common-random-numbers runner; growth's flows run in one
    # stacked mean-field helper.  So each simulator has one call site in experiments.py.
    path = SRC / "experiments.py"
    calls = [node.lineno for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == simulator]
    assert len(calls) == 1, f"lines of experiments.py that call {simulator}: {calls}"


def test_imports_at_module_top():
    # A function-level import hides a dependency (or an import cycle) until the
    # function runs.
    # SciPy modules deferred for start-up: each loads on the first call that needs it.
    allowed = {
        ("experiments.py", "scipy.special"),
        ("wasserstein.py", "scipy.optimize"),
        ("wasserstein.py", "scipy.spatial.distance"),
    }
    used, found = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                used |= {(path.name, name) for name in names}
                found += [(path.name, name, node.lineno) for name in names
                          if (path.name, name) not in allowed]
    assert not found, f"imports inside functions (file, module, line): {found}"
    assert not allowed - used, f"allowed imports no function makes: {sorted(allowed - used)}"


def test_batch_layout_stays_in_pathspace():
    # SegmentBatch keeps its window in a private ring; every other module reads
    # it through endpoint(), ordered_values() and the history integrals.  A
    # receiver counts as a batch when its text names one, or when the enclosing
    # function binds it to one: a SegmentBatch-annotated argument or the result
    # of a SegmentBatch call.  No other type in the package has a `head`.
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "pathspace.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
            batches = {a.arg for a in args
                       if a.annotation is not None and "SegmentBatch" in ast.unparse(a.annotation)}
            batches |= {target.id for node in ast.walk(fn) if isinstance(node, ast.Assign)
                        and ast.unparse(node.value).startswith("SegmentBatch")
                        for target in node.targets if isinstance(target, ast.Name)}
            for node in ast.walk(fn):
                if not (isinstance(node, ast.Attribute) and node.attr in ("values", "head")):
                    continue
                owner = ast.unparse(node.value)
                if node.attr == "head" or "batch" in owner.lower() or owner in batches:
                    found.add((path.name, ast.unparse(node), node.lineno))
    assert not found, f"batch layout read outside pathspace.py (file, expression, line): {sorted(found)}"
