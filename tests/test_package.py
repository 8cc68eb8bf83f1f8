"""The package's public lists name only what exists."""
import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import obrealize

MODULES = sorted(m.name for m in pkgutil.iter_modules(obrealize.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"obrealize.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_package_exports_exist_and_are_listed():
    """Each name obrealize/__init__ re-exports is defined by its module and,
    where the module keeps an __all__, listed there."""
    tree = ast.parse(Path(obrealize.__file__).read_text())
    unlisted = []
    for node in tree.body:
        if not (isinstance(node, ast.ImportFrom) and node.level == 1):
            continue
        module = importlib.import_module(f"obrealize.{node.module}")
        for alias in node.names:
            assert hasattr(obrealize, alias.asname or alias.name)
            if alias.name not in getattr(module, "__all__", (alias.name,)):
                unlisted.append(f"{node.module}.{alias.name}")
    assert not unlisted


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("user", [None, "2"])
def test_import_pins_blas_threads_unless_set(user):
    """Importing the package sets one BLAS thread before numpy loads; a
    value the caller set wins."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    if user is not None:
        env["OPENBLAS_NUM_THREADS"] = user
    src = str(Path(obrealize.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, os, obrealize; "
            "assert 'numpy' in sys.modules; "
            f"print(' '.join(os.environ[v] for v in {BLAS_VARS!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout.split()
    assert out == [user or "1", "1", "1"]
