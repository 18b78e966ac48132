"""The benchmark's traced run finds every function it wraps.

``perfbench/tracing.py`` wraps freqlens functions by name, and a name it
cannot find makes its per-layer metric read 0.  Renaming or removing a
traced function must therefore fail here, not only in the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _targets()


@pytest.mark.parametrize("module_name,path,span", TARGETS, ids=[span for *_, span in TARGETS])
def test_trace_target_resolves(module_name, path, span):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part, None)
        assert owner is not None, f"{span}: {module_name}.{path} does not exist"
    assert callable(owner)
