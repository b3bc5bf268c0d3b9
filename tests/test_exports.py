"""Every name a ressm module exports through ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import ressm

MODULES = ["ressm"] + [f"ressm.{m.name}" for m in pkgutil.iter_modules(ressm.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__"), f"{name} has no __all__"
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"
    assert len(set(module.__all__)) == len(module.__all__), f"{name}.__all__ repeats a name"
