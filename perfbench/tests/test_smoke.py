"""Smoke tests of the benchmark: every workload at a tiny size, the CLI, and a checkout without sources.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
from workloads import WORKLOADS, Scale  # noqa: E402

SPEC = bench.load_spec(ROOT)
TINY = Scale(
    forecast_model=dict(L=16, H=4, C=1, d=4, N=4, K=2),
    explain_model=dict(L=16, H=4, C=3, d=4, N=6, K=3),
    series_length=200,
    explain_length=80,
    faithfulness_windows=4,
    axiom_windows=2,
    request_pool=2,
)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_with_its_unit_and_no_failures(name, trace, tmp_path):
    result = bench.run(name, seed=3, seconds=0.05, trace=bool(trace), spec=SPEC, workdir=tmp_path,
                       scale=TINY, say=lambda *_: None)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {w["name"]: w["unit"] for w in wanted}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if not trace:
        assert result["metrics"]["success_rate"]["value"] == 1.0


def test_missing_target_is_listed_not_raised(monkeypatch):
    import tracing

    gone = [("freqlens.model", "FreqLens.gone", "model.gone"), ("freqlens.training", "Gone.step", "training.Gone.step")]
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + gone)
    installed = tracing.Installed(tracing.Tracer())
    assert installed.missing == ["freqlens.model.FreqLens.gone", "freqlens.training.Gone.step"]
    assert len(installed.swaps) == len(tracing.TARGETS) - len(gone)


def test_cli_prints_result_as_last_line():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_b1", "--seed", "1", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {w["name"] for w in SPEC["end_to_end"]}


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
