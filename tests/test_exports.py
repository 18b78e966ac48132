"""Every name a freqlens module exports in ``__all__`` exists and is used outside the tests."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import freqlens

MODULES = sorted(f"freqlens.{m.name}" for m in pkgutil.iter_modules(freqlens.__path__))


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"


# Reference implementations kept for checking gradients, not for a program path.
REFERENCE_ONLY = {"check_gradients", "finite_difference"}
ROOT = Path(__file__).resolve().parents[1]


def _references(path: Path, strings: bool) -> set[str]:
    """Names a file reads: loaded names, attributes, imports (and string constants)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)  # perfbench names its trace targets as strings
    return found


@pytest.mark.parametrize("module_name", MODULES)
def test_every_export_is_reached_outside_tests(module_name):
    # src strings are skipped so that an ``__all__`` entry does not count
    # as a use of its own name
    src = ROOT / "src" / "freqlens"
    used = set().union(
        *(_references(p, strings=False) for p in src.glob("*.py")),
        *(_references(p, strings=True) for p in (ROOT / "perfbench").rglob("*.py")),
        _references(ROOT / "tests" / "test_acceptance.py", strings=True),
    )
    module = importlib.import_module(module_name)
    unused = sorted(set(getattr(module, "__all__", ())) - used - REFERENCE_ONLY)
    assert not unused, f"{module_name}.__all__ names reached only from tests: {unused}"


def test_package_init_binds_no_names():
    # each name is imported from the module that defines it: one path to each
    (statement,) = ast.parse((ROOT / "src" / "freqlens" / "__init__.py").read_text()).body
    assert isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant)
