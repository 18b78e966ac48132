"""Every name a freqlens module exports in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import freqlens

MODULES = sorted(f"freqlens.{m.name}" for m in pkgutil.iter_modules(freqlens.__path__))


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"
