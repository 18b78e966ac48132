"""Artifacts are replaced whole or not at all."""

import numpy as np
import pytest

from freqlens import atomic, cli
from freqlens.atomic import atomic_write
from freqlens.data import save_csv, synth_series
from freqlens.interpret import build_discovery_report, export_spectrum_csv
from freqlens.model import FreqLens, ModelConfig, save_checkpoint
from freqlens.training import EpochRecord, TrainLog


def test_completed_write_replaces_the_file(tmp_path):
    path = tmp_path / "report.json"
    path.write_text("old\n")
    with atomic_write(path) as fh:
        fh.write("new\n")
    assert path.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


@pytest.mark.parametrize("old", [b"old bytes", None], ids=["existing", "absent"])
def test_writer_raising_mid_write_leaves_old_file_and_no_temp(tmp_path, old):
    path = tmp_path / "model.ckpt"
    if old is not None:
        path.write_bytes(old)
    with pytest.raises(RuntimeError, match="mid-write"):
        with atomic_write(path, binary=True) as fh:
            fh.write(b"partial")
            fh.flush()
            raise RuntimeError("aborted mid-write")
    assert (path.read_bytes() if path.exists() else None) == old
    assert [p.name for p in tmp_path.iterdir()] == ([] if old is None else ["model.ckpt"])


def _log():
    record = EpochRecord(0, 1.0, 0.5, 0.25, 1.75, 0.9, 1.0, 1e-3, [0.1, 0.2])
    return TrainLog([record])


def _spectrum(path):
    model = FreqLens(ModelConfig(L=8, H=2, C=1, d=2, N=2, K=1))
    (found,) = build_discovery_report([(0, model)], [24.0], 0.15, np.zeros((1, 8, 1))).seeds
    export_spectrum_csv(path, found)


WRITERS = {
    "checkpoint": lambda p: save_checkpoint(FreqLens(ModelConfig(L=8, H=2, C=1, d=2, N=2, K=1)), p),
    "trainlog": lambda p: _log().save(p),
    "losscurves_csv": lambda p: _log().save_csv(p),
    "spectrum_csv": _spectrum,
    "series_csv": lambda p: save_csv(synth_series([(4.0, 1.0, 0.0)], length=8), p),
    "json_report": lambda p: cli._dump_json(p, {"k": 1}),
}


@pytest.mark.parametrize("name", WRITERS)
def test_every_artifact_writer_is_atomic(tmp_path, monkeypatch, name):
    # failing the final rename leaves the old artifact: nothing was written in place
    path = tmp_path / "artifact"
    path.write_bytes(b"old")

    def failing_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(atomic.os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename failed"):
        WRITERS[name](path)
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]
    monkeypatch.undo()
    WRITERS[name](path)
    assert path.read_bytes() != b"old"
