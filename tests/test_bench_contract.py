"""The names the benchmark in perfbench/ takes from the package.

perfbench/ is outside the test paths; these checks make a change that
renames or drops one of the names it wraps or calls fail here.
"""
import importlib.util
import inspect
from dataclasses import fields
from pathlib import Path

from obrealize import realize, reduction, spectral

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_wraps_and_restores_every_target():
    spans = _load_spans()
    before = [owner.__dict__[attr] for owner, attr, *_ in spans.TARGETS]
    with spans.Tracer():
        pass
    assert [owner.__dict__[attr] for owner, attr, *_ in spans.TARGETS] == before


def test_workload_calls_bind():
    report = inspect.signature(spectral.spectrum_report)
    report.bind((1, 7), 21, None, None, None, grid=None, pencil_kmax=64, threads=1)
    report.bind((1, 7), 21, None, None, None, grid=None, finite_ks=())
    inspect.signature(reduction.compute_K).bind(None, 1.0)
    # spans.py derives the Lyapunov step count from these arguments by name
    lyap = inspect.signature(realize.lyapunov).bind(None, None, horizon=1.0,
                                                    dt=0.02, seed=0)
    lyap.apply_defaults()
    assert {"horizon", "dt", "transient"} <= set(lyap.arguments)
    # the backward-error check reads the assembled pencil
    assert {"A", "B"} <= {f.name for f in fields(spectral.Pencil)}
