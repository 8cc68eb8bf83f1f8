"""The package's public lists name only what exists."""
import ast
import importlib
import pkgutil
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
