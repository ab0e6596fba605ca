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
