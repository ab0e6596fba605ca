"""Every name a contextdep module exports in __all__ resolves, and every
name a module imports is used."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import contextdep

MODULES = sorted(m.name for m in pkgutil.iter_modules(contextdep.__path__, "contextdep."))
ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "contextdep").glob("*.py"))


def test_every_module_is_listed():
    assert "contextdep.counts" in MODULES and len(MODULES) >= 10


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert exported, f"{name} has no __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names {missing}"


def test_every_loader_is_fuzzed():
    # A loader reads files from outside the program, so each one exported
    # has a valid file and a mutation run in test_file_fuzz.
    from test_file_fuzz import KINDS

    loaders = set()
    for name in MODULES:
        module = importlib.import_module(name)
        loaders |= {getattr(module, attr) for attr in module.__all__ if attr.startswith("load_")}
    fuzzed = {loader for loader, _, _ in KINDS.values()}
    assert len(loaders) >= 6
    assert loaders <= fuzzed, sorted(f.__qualname__ for f in loaders - fuzzed)


def test_sources_parse_at_the_declared_python_floor():
    # The interpreter running the tests may be newer than requires-python;
    # parsing with the floor's grammar catches syntax the floor lacks.
    floor = re.search(r'^requires-python = ">=3\.(\d+)"$',
                      (ROOT / "pyproject.toml").read_text(), re.M)
    assert floor, "pyproject.toml declares no requires-python floor"
    assert len(SOURCES) == len(MODULES) + 1  # and __init__.py
    for path in SOURCES:
        ast.parse(path.read_text(encoding="utf-8"), str(path),
                  feature_version=(3, int(floor.group(1))))


def test_every_import_is_used():
    # A name a module imports and never reads is left over from code that
    # moved; __init__.py imports only to re-export, so it is not checked.
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update({(a.asname or a.name).split(".")[0]: node.lineno
                                 for a in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update({a.asname or a.name: node.lineno for a in node.names})
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = sorted(f"{path.name}:{line} {name}" for name, line in imported.items()
                        if name not in used)
        assert not unused, unused
