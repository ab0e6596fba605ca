"""Every name a contextdep module exports in __all__ resolves."""

import importlib
import pkgutil

import pytest

import contextdep

MODULES = sorted(m.name for m in pkgutil.iter_modules(contextdep.__path__, "contextdep."))


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
