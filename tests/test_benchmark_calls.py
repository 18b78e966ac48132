"""The benchmark's workloads still run against the program.

``perfbench/workloads.py`` calls freqlens as the benchmark times it, e.g.
``save_checkpoint(..., seed=)``, ``train(model, train, val, config)`` and
``faithfulness_test(..., max_samples=)``.  A change that breaks one of
those calls must fail here, not only as a failed benchmark run: every
workload runs its set-up, one operation and its check at a tiny size.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # the module's dataclasses look themselves up there
    spec.loader.exec_module(module)
    return module


workloads = _workloads()

# the sizes of the benchmark's own smoke test
TINY = workloads.Scale(
    forecast_model=dict(L=16, H=4, C=1, d=4, N=4, K=2),
    explain_model=dict(L=16, H=4, C=3, d=4, N=6, K=3),
    series_length=200,
    explain_length=80,
    faithfulness_windows=4,
    axiom_windows=2,
    request_pool=2,
)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_setup_op_and_check(name, tmp_path):
    workload = workloads.WORKLOADS[name](TINY, tmp_path)
    try:
        workload.setup(3)
        assert workload.check(workload.op(0)) is None
    finally:
        workload.cleanup()
