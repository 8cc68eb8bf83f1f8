"""The names the benchmark in perfbench/ takes from the package.

The perfbench/ tests check the benchmark's own checks; its workloads run
only under perfbench/run.py.  These checks make a change that renames or
drops a name the benchmark wraps, or changes a signature one of its calls
relies on, fail here.
"""
import ast
import importlib
import importlib.util
import inspect
from dataclasses import fields
from pathlib import Path
from types import ModuleType

from obrealize import realize, spectral

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
WORKLOADS = PERFBENCH / "workloads.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _package_calls():
    """Every call in workloads.py of a name it imports from the package.

    Yields (line, dotted name, callee, positional count, keyword names);
    calls through a module (``spectral.spectrum_report``) and through an
    imported function (``extended_set``) both count.
    """
    tree = ast.parse(WORKLOADS.read_text())
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "obrealize":
            mod = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = getattr(mod, alias.name)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                and isinstance(names.get(f.value.id), ModuleType)):
            name, fn = f"{f.value.id}.{f.attr}", getattr(names[f.value.id], f.attr)
        elif isinstance(f, ast.Name) and callable(names.get(f.id)):
            name, fn = f.id, names[f.id]
        else:
            continue
        assert not any(isinstance(a, ast.Starred) for a in node.args)
        assert all(k.arg is not None for k in node.keywords)
        yield node.lineno, name, fn, len(node.args), [k.arg for k in node.keywords]


def test_tracer_wraps_and_restores_every_target():
    spans = _load_spans()
    before = [owner.__dict__[attr] for owner, attr, *_ in spans.TARGETS]
    with spans.Tracer():
        pass
    assert [owner.__dict__[attr] for owner, attr, *_ in spans.TARGETS] == before


def test_workload_calls_bind():
    seen = set()
    for line, name, fn, npos, keywords in _package_calls():
        seen.add(name)
        try:
            inspect.signature(fn).bind(*[None] * npos, **dict.fromkeys(keywords))
        except TypeError as exc:
            raise AssertionError(f"workloads.py:{line}: {name}: {exc}") from None
    # the parse reaches every stage the workloads drive
    assert {"spectral.spectrum_report", "reduction.numeric_basis",
            "reduction.compute_K", "control.control_solve",
            "realize.realize_target", "realize.integrate"} <= seen
    # spans.py derives the Lyapunov step count from these arguments by name
    lyap = inspect.signature(realize.lyapunov).bind(None, None, horizon=1.0,
                                                    dt=0.02, seed=0)
    lyap.apply_defaults()
    assert {"horizon", "dt", "transient"} <= set(lyap.arguments)
    # the backward-error check reads the assembled pencil
    assert {"A", "B"} <= {f.name for f in fields(spectral.Pencil)}
