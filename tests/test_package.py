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


def _python(code, **blas):
    """Run code in a fresh interpreter with only the given BLAS variables
    set and the package on its path."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(blas)
    src = str(Path(obrealize.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("user", [None, "2"])
def test_import_pins_blas_threads_unless_set(user):
    """Importing the package sets one BLAS thread before numpy loads; a
    value the caller set wins."""
    code = ("import sys, os, obrealize; "
            "assert 'numpy' in sys.modules; "
            f"print(' '.join(os.environ[v] for v in {BLAS_VARS!r}))")
    run = _python(code, **({} if user is None else {"OPENBLAS_NUM_THREADS": user}))
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == [user or "1", "1", "1"]


@pytest.mark.parametrize("order, blas, warns", [
    ("obrealize, numpy", {}, False),
    ("numpy, obrealize", {}, True),
    ("numpy, obrealize", {"OPENBLAS_NUM_THREADS": "2"}, False),
    ("numpy, obrealize", {"OMP_NUM_THREADS": "1"}, False),
])
def test_import_warns_when_blas_pin_comes_too_late(order, blas, warns):
    """Imported after numpy with no BLAS variable set, the package cannot
    pin BLAS and says so; a variable the caller set is their choice."""
    run = _python("import warnings; warnings.simplefilter('error', RuntimeWarning); "
                  f"import {order}", **blas)
    assert run.returncode == (1 if warns else 0), run.stderr
    assert ("RuntimeWarning" in run.stderr
            and "OPENBLAS_NUM_THREADS=1" in run.stderr) is warns
