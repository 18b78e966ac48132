"""End-to-end command-line tests (in-process, tiny configs)."""

import csv
import json
import math
import os
import re
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

import freqlens
from freqlens import cli, training
from freqlens.cli import (
    CONFIG_REFERENCE,
    ConfigError,
    RunConfig,
    _LIST_ELEMENTS,
    _NONEABLE,
    _load_windows,
    load_config,
    main,
)
from freqlens.interpret import periods_from_frequencies, selection_counts
from freqlens.data import SeriesTable, SplitSpec, fit_apply_zscore, load_csv, make_windows, save_csv
from freqlens.model import FreqLens, ModelConfig, load_checkpoint, save_checkpoint
from freqlens.training import LossWeights, TrainConfig, evaluate_mse


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A synthesized dataset, a config file, and one trained run."""
    root = tmp_path_factory.mktemp("cli")
    config = {
        "dataset": str(root / "synthetic.csv"),
        "synth_periods": [24.0, 12.0],
        "synth_amplitudes": [1.0, 0.5],
        "synth_phases": [0.0, 0.0],
        "synth_noise_std": 0.1,
        "synth_length": 600,
        "input_length": 24,
        "horizon": 8,
        "hidden_width": 8,
        "num_bases": 8,
        "top_k": 4,
        "epochs": 2,
        "batch_size": 32,
        "seeds": [1, 2],
        "known_periods": [24 * 3600.0, 12 * 3600.0],
        "out_dir": str(root / "run"),
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["synth", "--config", str(cfg_path), "--out", str(root)]) == 0
    assert main(["train", "--config", str(cfg_path)]) == 0
    return {"root": root, "config": str(cfg_path), "run": str(root / "run"), "raw": config}


@pytest.fixture(scope="module")
def metrics_file(workspace):
    """The trained run's test-split metrics, written by ``evaluate`` here so no test order is assumed."""
    assert main(["evaluate", "--config", workspace["config"], "--run", workspace["run"]]) == 0
    return str(workspace["root"] / "run" / "metrics-test.json")


class TestConfig:
    def test_defaults_cover_every_key(self):
        cfg = load_config(None)
        assert set(cfg.values) == set(CONFIG_REFERENCE)

    def test_defaults_equal_the_dataclass_defaults(self):
        cfg = load_config(None)
        assert cfg.build(ModelConfig, C=ModelConfig().C, seed=ModelConfig().seed) == ModelConfig()
        assert cfg.build(TrainConfig, seed=TrainConfig().seed) == TrainConfig()
        assert cfg.build(LossWeights) == LossWeights()
        assert cfg.build(SplitSpec) == SplitSpec()
        assert RunConfig(dict(cfg.values, split_mode="months")).build(SplitSpec) == SplitSpec(mode="months")

    def test_each_mapped_key_sets_its_own_field(self, tmp_path):
        # every value is distinct and none is a default, so two swapped keys show
        periods = [float(p) for p in range(30, 53)]
        expected = {
            "split_mode": (SplitSpec, "mode", "months"),
            "split_train": (SplitSpec, "train", 0.55),
            "split_val": (SplitSpec, "val", 0.15),
            "split_test": (SplitSpec, "test", 0.3),
            "split_months": (SplitSpec, "months", [6, 2, 3]),
            "input_length": (ModelConfig, "L", 20),
            "horizon": (ModelConfig, "H", 21),
            "hidden_width": (ModelConfig, "d", 22),
            "num_bases": (ModelConfig, "N", 23),
            "top_k": (ModelConfig, "K", 5),
            "prior_periods": (ModelConfig, "prior_periods", periods),
            "force_alpha": (ModelConfig, "force_alpha", 0.25),
            "gumbel_tau_start": (TrainConfig, "tau_start", 2.5),
            "gumbel_tau_end": (TrainConfig, "tau_end", 0.05),
            "epochs": (TrainConfig, "epochs", 7),
            "base_lr": (TrainConfig, "base_lr", 0.004),
            "freq_lr_multiplier": (TrainConfig, "freq_lr_multiplier", 3.0),
            "batch_size": (TrainConfig, "batch_size", 9),
            "patience": (TrainConfig, "patience", 11),
            "lambda_div": (LossWeights, "lambda_div", 0.02),
            "lambda_recon": (LossWeights, "lambda_recon", 0.7),
        }
        assert set(expected) == {key for key, (_, _, target) in CONFIG_REFERENCE.items() if target}
        path = tmp_path / "c.json"
        path.write_text(json.dumps({key: value for key, (_, _, value) in expected.items()}))
        cfg = load_config(str(path))
        built = {
            ModelConfig: cfg.build(ModelConfig, C=3, seed=4),
            TrainConfig: cfg.build(TrainConfig, seed=4),
            LossWeights: cfg.build(LossWeights),
            SplitSpec: cfg.build(SplitSpec),
        }
        for key, (cls, name, value) in expected.items():
            assert CONFIG_REFERENCE[key][0] != value, key
            field_value = getattr(built[cls], name)
            assert field_value == (tuple(value) if isinstance(value, list) else value), key

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"lamda_div": 0.1}))
        with pytest.raises(ConfigError, match="unknown config keys"):
            load_config(str(path))

    def test_type_mismatch_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"epochs": "fifty"}))
        with pytest.raises(ConfigError, match="expects int"):
            load_config(str(path))

    def test_int_promotes_to_float(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"base_lr": 1}))
        assert load_config(str(path)).base_lr == 1.0

    def test_removed_lambda_variance_key_rejected(self, tmp_path):
        # the knob attached to no loss term and is gone; old configs fail loudly
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"lambda_variance": 0.1}))
        with pytest.raises(ConfigError, match="unknown config keys.*lambda_variance"):
            load_config(str(path))
        assert main(["verify-axioms", "--config", str(path)]) == 1

    def test_removed_lambda_sparse_key_rejected(self, tmp_path):
        # the sparsity term sum|softmax| was constant and is gone with its weight
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"lambda_sparse": 0.01}))
        with pytest.raises(ConfigError, match="unknown config keys.*lambda_sparse"):
            load_config(str(path))
        assert main(["verify-axioms", "--config", str(path)]) == 1

    def test_missing_file_is_config_error(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/config.json")


class TestSynth:
    def test_writes_expected_rows(self, workspace):
        path = workspace["root"] / "synthetic.csv"
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + 600

    def test_deterministic_bytes(self, workspace, tmp_path):
        cfg = dict(workspace["raw"], out_dir=str(tmp_path / "a"))
        p1 = tmp_path / "c1.json"
        p1.write_text(json.dumps(cfg))
        assert main(["synth", "--config", str(p1)]) == 0
        cfg2 = dict(workspace["raw"], out_dir=str(tmp_path / "b"))
        p2 = tmp_path / "c2.json"
        p2.write_text(json.dumps(cfg2))
        assert main(["synth", "--config", str(p2)]) == 0
        a = (tmp_path / "a" / "synthetic.csv").read_bytes()
        b = (tmp_path / "b" / "synthetic.csv").read_bytes()
        assert a == b

    def test_nyquist_period_rejected(self, tmp_path):
        cfg = {"synth_periods": [1.0], "synth_amplitudes": [1.0], "synth_phases": [0.0],
               "out_dir": str(tmp_path)}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["synth", "--config", str(path)]) == 1

    @pytest.mark.parametrize(
        "key,value,bad",
        [
            ("synth_periods", [math.nan, 12.0], "nan"),
            ("synth_amplitudes", [1.0, math.inf], "inf"),
            ("synth_phases", [-math.inf, 0.0], "-inf"),
            ("synth_trend_slope", math.nan, "nan"),
            ("synth_noise_std", math.inf, "inf"),
        ],
    )
    def test_non_finite_synth_value_is_one_line(self, tmp_path, capsys, key, value, bad):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({key: value, "out_dir": str(tmp_path / "out")}))
        capsys.readouterr()
        assert main(["synth", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: config key {key!r} needs finite numbers, got {bad}\n"
        assert not (tmp_path / "out").exists()


class TestTrain:
    def test_one_checkpoint_and_log_per_seed(self, workspace):
        run = workspace["root"] / "run"
        for seed in (1, 2):
            assert (run / f"checkpoint-{seed}.ckpt").exists()
            assert (run / f"trainlog-{seed}.jsonl").exists()
            assert (run / f"losscurves-{seed}.csv").exists()

    def test_epoch_count_matches_config(self, workspace):
        log = (workspace["root"] / "run" / "trainlog-1.jsonl").read_text().strip().splitlines()
        assert len(log) == 2

    def test_rerun_is_bit_identical(self, workspace, tmp_path):
        cfg = dict(workspace["raw"], out_dir=str(tmp_path / "r1"), seeds=[1])
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(path)]) == 0
        cfg["out_dir"] = str(tmp_path / "r2")
        path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(path)]) == 0
        ck1 = (tmp_path / "r1" / "checkpoint-1.ckpt").read_bytes()
        ck2 = (tmp_path / "r2" / "checkpoint-1.ckpt").read_bytes()
        assert ck1 == ck2
        log1 = (tmp_path / "r1" / "trainlog-1.jsonl").read_bytes()
        log2 = (tmp_path / "r2" / "trainlog-1.jsonl").read_bytes()
        assert log1 == log2

    @pytest.mark.parametrize(
        "key,value",
        [("gumbel_tau_start", 0.0), ("gumbel_tau_end", 0.0), ("base_lr", -1e-3), ("freq_lr_multiplier", -5.0)],
    )
    def test_bad_training_value_exits_before_any_epoch(self, workspace, tmp_path, monkeypatch, capsys, key, value):
        epochs = []
        real_schedules = training.schedules
        monkeypatch.setattr(training, "schedules", lambda *a: epochs.append(a[0]) or real_schedules(*a))
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dict(workspace["raw"], out_dir=str(tmp_path / "out"), **{key: value})))
        capsys.readouterr()
        assert main(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert epochs == []
        assert list((tmp_path / "out").glob("*")) == []

    def test_seed_flag_overrides_list(self, workspace, tmp_path):
        cfg = dict(workspace["raw"], out_dir=str(tmp_path / "solo"))
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(path), "--seed", "7"]) == 0
        files = sorted(p.name for p in (tmp_path / "solo").glob("checkpoint-*.ckpt"))
        assert files == ["checkpoint-7.ckpt"]


def _run_with_a_repeated_seed(workspace, tmp_path) -> Path:
    """A run directory whose seed-1 checkpoint appears twice, beside the seed-2 one."""
    run = tmp_path / "run"
    run.mkdir()
    for name in ("checkpoint-1.ckpt", "checkpoint-2.ckpt"):
        (run / name).write_bytes((Path(workspace["run"]) / name).read_bytes())
    (run / "checkpoint-1-copy.ckpt").write_bytes((run / "checkpoint-1.ckpt").read_bytes())
    return run


def _assert_repeated_seed_refused(run, argv, capsys):
    before = sorted(p.name for p in run.iterdir())
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert re.fullmatch(r"error: checkpoint-1-copy\.ckpt and checkpoint-1\.ckpt in \S+ both hold seed 1\n",
                        captured.err)
    assert sorted(p.name for p in run.iterdir()) == before


class TestEvaluate:
    def test_repeated_seed_is_a_usage_error_and_writes_nothing(self, workspace, tmp_path, capsys):
        run = _run_with_a_repeated_seed(workspace, tmp_path)
        _assert_repeated_seed_refused(run, ["evaluate", "--config", workspace["config"], "--run", str(run)], capsys)

    def test_metrics_file_written(self, workspace):
        assert main(["evaluate", "--config", workspace["config"], "--run", workspace["run"]]) == 0
        payload = json.loads((workspace["root"] / "run" / "metrics-test.json").read_text())
        assert payload["split"] == "test"
        assert set(payload["per_seed"]) == {"1", "2"}
        for entry in payload["per_seed"].values():
            assert entry["rmse"] == pytest.approx(np.sqrt(entry["mse"]), rel=1e-9)

    def test_shape_mismatch_is_config_error(self, workspace, tmp_path):
        cfg = dict(workspace["raw"], input_length=32)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["evaluate", "--config", str(path), "--run", workspace["run"]]) == 1

    def test_best_logged_val_mse_equals_evaluation(self, tmp_path):
        # 7 channels and L = 96, where the batch size of an evaluation pass
        # shows in the last bit of y_res: training must score validation in
        # the batches that evaluate_mse and `evaluate --split val` use
        t = np.arange(1000.0)[:, None]
        rng = np.random.default_rng(0)
        values = np.cos(2 * np.pi * t / np.arange(5.0, 40.0, 5.0)) + 0.1 * rng.normal(size=(1000, 7))
        save_csv(SeriesTable(values, 3600.0, [f"c{i}" for i in range(7)]), tmp_path / "seven.csv")
        raw = {
            "dataset": str(tmp_path / "seven.csv"),
            "split_train": 0.6,
            "split_val": 0.2195,  # 219 rows = 100 windows of 96 + 24 steps
            "split_test": 0.1805,
            "input_length": 96,
            "horizon": 24,
            "hidden_width": 16,
            "num_bases": 8,
            "top_k": 4,
            "epochs": 2,
            "base_lr": 0.003,
            "seeds": [2],
            "out_dir": str(tmp_path / "run"),
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert main(["evaluate", "--config", str(cfg_path), "--run", raw["out_dir"], "--split", "val"]) == 0

        run = tmp_path / "run"
        records = [json.loads(line) for line in (run / "trainlog-2.jsonl").read_text().splitlines()]
        best_logged = min(r["val_mse"] for r in records)
        reported = json.loads((run / "metrics-val.json").read_text())["per_seed"]["2"]
        assert reported["n_windows"] == 100
        model, _ = load_checkpoint(run / "checkpoint-2.ckpt")
        split = load_config(str(cfg_path)).build(SplitSpec)
        normalized, _ = fit_apply_zscore(load_csv(raw["dataset"]), split)
        val = make_windows(normalized, 96, 24, split)["val"]
        assert evaluate_mse(model, (val.inputs, val.targets)) == best_logged
        assert reported["mse"] == best_logged


class TestCompare:
    def test_run_against_itself_is_not_significant(self, metrics_file, capsys):
        metrics = metrics_file
        assert main(["compare", "--a", metrics, "--b", metrics]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["p_value"] == 1.0
        assert payload["t_stat"] == 0.0
        assert payload["n"] == 2

    def test_reports_seed_count(self, metrics_file, capsys):
        metrics = metrics_file
        main(["compare", "--a", metrics, "--b", metrics, "--metric", "mae"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["seeds"] == [1, 2]
        assert payload["metric"] == "mae"

    @pytest.mark.parametrize("content,message", [
        ({"split": "test"}, "no 'per_seed'"),
        ([1, 2], "no 'per_seed'"),
        ({"per_seed": {"1": {"mae": 0.1}, "2": {"mae": 0.2}}}, "no numeric 'mse'"),
        # a NaN or infinite metric used to reach the t-test, which named neither file nor seed
        ({"per_seed": {"1": {"mse": 0.1}, "2": {"mse": math.nan}}}, "seed 2 has no finite 'mse'"),
        ({"per_seed": {"1": {"mse": math.inf}, "2": {"mse": 0.2}}}, "seed 1 has no finite 'mse'"),
        ({"per_seed": {"1": {"mse": 0.1}, "2": {"mse": 10**400}}}, "seed 2 has no finite 'mse'"),
    ], ids=["no_per_seed", "json_list", "no_metric", "nan_metric", "infinite_metric", "int_beyond_float64"])
    def test_malformed_metrics_file_is_one_line_error(self, tmp_path, capsys, content, message):
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(content))
        assert main(["compare", "--a", str(path), "--b", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("kind", ["directory", "not_json"])
    def test_unreadable_metrics_file_is_one_line_error(self, tmp_path, capsys, kind):
        path = tmp_path
        if kind == "not_json":
            path = tmp_path / "metrics.json"
            path.write_text("not json")
        assert main(["compare", "--a", str(path), "--b", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read metrics file") and err.count("\n") == 1


class TestDiscover:
    def test_repeated_seed_is_a_usage_error_and_writes_nothing(self, workspace, tmp_path, capsys):
        run = _run_with_a_repeated_seed(workspace, tmp_path)
        out = tmp_path / "out"
        argv = ["discover", "--config", workspace["config"], "--run", str(run), "--out", str(out)]
        _assert_repeated_seed_refused(run, argv, capsys)
        assert not out.exists()

    def test_report_and_spectra_written(self, workspace):
        assert main(["discover", "--config", workspace["config"], "--run", workspace["run"]]) == 0
        run = workspace["root"] / "run"
        report = json.loads((run / "discovery.json").read_text())
        assert len(report["seeds"]) == 2
        assert len(report["summary"]) == 2
        assert (run / "spectrum-1.csv").exists()
        assert (run / "alpha.json").exists()
        test_inputs = _load_windows(load_config(workspace["config"]), "test")["test"].inputs
        for seed_report in report["seeds"]:
            # each basis's (period, selection count) pair, from the checkpoint itself
            model, _ = load_checkpoint(run / f"checkpoint-{seed_report['seed']}.ckpt")
            periods = periods_from_frequencies(model.bank.frequencies().data)
            counts = selection_counts(model, test_inputs)
            expected = sorted(zip(periods.tolist(), counts.tolist()))
            assert list(zip(seed_report["periods_steps"], seed_report["selection_counts"])) == expected
            with open(run / f"spectrum-{seed_report['seed']}.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert [(float(r["period_steps"]), int(r["selection_count"])) for r in rows] == expected
            assert all(float(r["period_steps"]) == periods[int(r["basis_index"])] for r in rows)

    def test_checkpoint_saved_without_seed_reads_its_config_seed(self, workspace, tmp_path, capsys):
        model, _ = load_checkpoint(Path(workspace["run"]) / "checkpoint-2.ckpt")
        save_checkpoint(model, tmp_path / "checkpoint-unseeded.ckpt")  # manifest seed: null
        assert main(["discover", "--config", workspace["config"], "--run", str(tmp_path), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        assert [s["seed"] for s in json.loads((tmp_path / "discovery.json").read_text())["seeds"]] == [2]
        assert (tmp_path / "spectrum-2.csv").exists()

    def test_needs_known_periods(self, workspace, tmp_path):
        cfg = dict(workspace["raw"], known_periods=[])
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["discover", "--config", str(path), "--run", workspace["run"]]) == 1


class TestBadConfigValues:
    """A bad value fails where it is read: one ``error:`` line, exit 1, nothing written."""

    @pytest.mark.parametrize(
        "command,change,message",
        [
            ("discover", {"known_periods": [-86400]}, "config key 'known_periods' needs positive periods in seconds, got -86400"),
            ("discover", {"known_periods": [0]}, "config key 'known_periods' needs positive periods in seconds, got 0"),
            ("discover", {"known_periods": [86400, math.nan]}, "config key 'known_periods' needs finite numbers, got nan"),
            ("discover", {"step_duration": 0}, "step_duration must be a positive number of seconds, got 0.0"),
            ("train", {"step_duration": 0, "split_mode": "months"}, "step_duration must be a positive number of seconds, got 0.0"),
            ("synth", {"step_duration": -3600}, "step_duration must be a positive number of seconds, got -3600.0"),
            ("verify-axioms", {"seeds": []}, "config key 'seeds' must list at least one seed"),
            ("train", {"seeds": []}, "config key 'seeds' must list at least one seed"),
            ("train", {"lambda_div": math.nan}, "config key 'lambda_div' needs finite numbers, got nan"),
            ("train", {"split_train": math.nan}, "config key 'split_train' needs finite numbers, got nan"),
            ("train", {"split_mode": "months", "split_months": [math.nan, 1, 1]}, "config key 'split_months' needs finite numbers, got nan"),
            ("train", {"seeds": [1.5]}, "config key 'seeds' expects a list of whole numbers, got 1.5 at index 0"),
            ("train", {"seeds": [1.5, 1.5]}, "config key 'seeds' expects a list of whole numbers, got 1.5 at index 0"),
            ("train", {"seeds": [3, 4, 3]}, "config key 'seeds' lists seed 3 more than once"),
            ("verify-axioms", {"seeds": [3, 3]}, "config key 'seeds' lists seed 3 more than once"),
            ("train", {"seeds": [2, -1]}, "config key 'seeds' needs nonnegative seeds, got -1"),
            ("discover", {"delta": -1}, "config key 'delta' must lie strictly between 0 and 1, got -1.0"),
            ("discover", {"delta": 0}, "config key 'delta' must lie strictly between 0 and 1, got 0.0"),
            ("discover", {"delta": 1.0}, "config key 'delta' must lie strictly between 0 and 1, got 1.0"),
            ("discover", {"delta": math.nan}, "config key 'delta' needs finite numbers, got nan"),
            # JSON integers have no size limit, and float() of one beyond float64's range overflows
            ("synth", {"base_lr": 10**400}, "config key 'base_lr' is too large for a float64: an integer of 401 digits"),
            ("train", {"split_train": -(10**400)}, "config key 'split_train' is too large for a float64: an integer of 401 digits"),
            ("discover", {"known_periods": [86400, 10**400]}, "config key 'known_periods' is too large for a float64 at index 1: an integer of 401 digits"),
            ("synth", {"synth_periods": [24.0, 10**309]}, "config key 'synth_periods' is too large for a float64 at index 1: an integer of 310 digits"),
            # sizes, counts and seeds reach NumPy (and file names) as int64
            ("train", {"seeds": [10**300]}, "config key 'seeds' is too large for an int64 at index 0: an integer of 301 digits"),
            ("train", {"seeds": [1, 1e300]}, "config key 'seeds' is too large for an int64 at index 1: an integer of 301 digits"),
            ("synth", {"faithfulness_k": [1, 2**63]}, "config key 'faithfulness_k' is too large for an int64 at index 1: an integer of 19 digits"),
            ("synth", {"synth_length": 10**400}, "config key 'synth_length' is too large for an int64: an integer of 401 digits"),
            ("train", {"epochs": 10**400}, "config key 'epochs' is too large for an int64: an integer of 401 digits"),
            ("synth", {"synth_seed": -(2**63) - 1}, "config key 'synth_seed' is too large for an int64: an integer of 19 digits"),
            # train builds every seed's configs before it makes out_dir
            ("train", {"top_k": 0}, "need 1 <= K <= N, got K=0, N=8"),
            ("train", {"epochs": 0}, "epochs must be >= 1"),
            ("train", {"lambda_recon": -1.0}, "lambda_recon must be nonnegative, got -1.0"),
            ("faithfulness", {"faithfulness_k": []}, "removal sizes must be a nonempty list of nonnegative sizes, got []"),
        ],
        ids=[
            "negative_known_period", "zero_known_period", "nan_known_period", "zero_step_duration",
            "zero_step_duration_months", "negative_step_duration_synth", "no_seeds_verify_axioms", "no_seeds_train",
            "nan_lambda_div", "nan_split_train", "nan_split_months", "fractional_seed", "repeated_fractional_seed",
            "duplicate_seed_train", "duplicate_seed_verify_axioms", "negative_seed", "negative_delta", "zero_delta",
            "delta_one", "nan_delta", "huge_base_lr", "huge_negative_split_train", "huge_known_period",
            "huge_synth_period", "huge_seed", "huge_float_seed", "huge_faithfulness_k", "huge_synth_length",
            "huge_epochs", "huge_negative_synth_seed", "zero_top_k", "zero_epochs", "negative_lambda_recon",
            "no_faithfulness_k",
        ],
    )
    def test_one_line_exit_1(self, workspace, tmp_path, capsys, recwarn, command, change, message):
        args = {
            "discover": ["--run", workspace["run"]],
            "faithfulness": ["--checkpoint", str(Path(workspace["run"]) / "checkpoint-1.ckpt")],
        }.get(command, [])
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dict(workspace["raw"], out_dir=str(tmp_path / "out"), **change)))
        capsys.readouterr()
        assert main([command, "--config", str(path), *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1, err
        assert [str(w.message) for w in recwarn] == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key,text,bad",
        [
            # JSON reads 1e400 as inf: each of these once trained, or failed mid-run as a numeric failure
            ("base_lr", "1e400", "inf"),
            ("gumbel_tau_start", "1e400", "inf"),
            ("lambda_div", "-1e400", "-inf"),
            ("lambda_recon", "NaN", "nan"),
            ("force_alpha", "Infinity", "inf"),
            ("prior_periods", "[1e400, 12]", "inf"),
        ],
    )
    def test_non_finite_number_fails_at_load(self, workspace, tmp_path, capsys, recwarn, key, text, bad):
        raw = json.dumps(dict(workspace["raw"], out_dir=str(tmp_path / "out"), num_bases=2, top_k=2))
        path = tmp_path / "c.json"
        path.write_text(raw[:-1] + f', "{key}": {text}}}')
        message = f"config key {key!r} needs finite numbers, got {bad}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(str(path))
        capsys.readouterr()
        assert main(["train", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert [str(w.message) for w in recwarn] == []
        assert not (tmp_path / "out").exists()


class TestListElements:
    """Every list-valued key checks each element when the config loads: one line naming the key."""

    @pytest.mark.parametrize(
        "key,value,index,kind",
        [
            ("synth_periods", ["a", 12.0], 0, "number"),
            ("synth_amplitudes", [1.0, None], 1, "number"),
            ("synth_phases", [0.0, True], 1, "number"),
            ("known_periods", [86400, "a"], 1, "number"),
            ("faithfulness_k", [1, 2.5], 1, "whole number"),
            ("split_months", [12, "4", 4], 1, "number"),
            ("columns", ["value", 3], 1, "string"),
            ("prior_periods", [24.0, [12.0]], 1, "number"),
            ("seeds", [1, math.inf], 1, "whole number"),
        ],
    )
    def test_bad_element_is_one_line(self, tmp_path, capsys, key, value, index, kind):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({key: value, "out_dir": str(tmp_path / "out")}))
        capsys.readouterr()
        assert main(["synth", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: config key {key!r} expects a list of {kind}s, got {value[index]!r} at index {index}\n"
        assert not (tmp_path / "out").exists()

    def test_every_list_key_has_an_element_kind(self):
        list_keys = {key for key, (default, _, _) in CONFIG_REFERENCE.items()
                     if isinstance(default, list) or _NONEABLE.get(key) is list}
        assert set(_LIST_ELEMENTS) == list_keys

    def test_whole_number_floats_become_ints(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seeds": [7.0, 8], "faithfulness_k": [2.0]}))
        cfg = load_config(str(path))
        assert cfg.seeds == [7, 8] and all(type(s) is int for s in cfg.seeds)
        assert cfg.faithfulness_k == [2] and type(cfg.faithfulness_k[0]) is int

    def test_int64_bounds_are_accepted(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seeds": [2**63 - 1], "epochs": 2**63 - 1, "synth_seed": -(2**63)}))
        cfg = load_config(str(path))
        assert (cfg.seeds, cfg.epochs, cfg.synth_seed) == ([2**63 - 1], 2**63 - 1, -(2**63))

    def test_valid_lists_are_unchanged(self, tmp_path):
        values = {"synth_periods": [24, 12.5], "known_periods": [86400], "columns": ["a", "b"],
                  "prior_periods": [24.0, 12.0], "split_months": [12, 4.0, 4]}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(values))
        cfg = load_config(str(path))
        for key, value in values.items():
            assert cfg.values[key] == value and [type(v) for v in cfg.values[key]] == [type(v) for v in value]


class TestAttribute:
    def test_contributions_sum_to_frequency_prediction(self, workspace):
        ckpt = str(workspace["root"] / "run" / "checkpoint-1.ckpt")
        assert main(
            ["attribute", "--config", workspace["config"], "--checkpoint", ckpt, "--index", "3"]
        ) == 0
        payload = json.loads((workspace["root"] / "run" / "attribution-3.json").read_text())
        contributions = np.asarray(payload["contributions"])
        assert contributions.shape[0] == 4  # exactly K blocks
        total = contributions.sum(axis=0)
        np.testing.assert_allclose(total, np.asarray(payload["y_freq"]), atol=1e-9)
        assert payload["completeness_residual"] < 1e-9

    def test_out_of_range_index(self, workspace):
        ckpt = str(workspace["root"] / "run" / "checkpoint-1.ckpt")
        assert main(
            ["attribute", "--config", workspace["config"], "--checkpoint", ckpt, "--index", "99999"]
        ) == 1


class TestFaithfulness:
    def test_correlation_reported_as_one(self, workspace, tmp_path):
        ckpt = str(workspace["root"] / "run" / "checkpoint-2.ckpt")
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dict(workspace["raw"], faithfulness_k=[2])))
        assert main(["faithfulness", "--config", str(path), "--checkpoint", ckpt]) == 0
        payload = json.loads((workspace["root"] / "run" / "faithfulness.json").read_text())
        (result,) = payload["results"]
        assert result["k"] == 2
        assert abs(result["attribution_impact_correlation"] - 1.0) < 1e-9


class TestVerifyAxioms:
    def test_random_model_passes(self, workspace, capsys):
        assert main(["verify-axioms", "--config", workspace["config"], "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5
        assert "FAIL" not in out

    @pytest.mark.parametrize(
        "change",
        [{"split_train": 0.0, "split_val": 0.5, "split_test": 0.5}, {"input_length": 500}],
        ids=["empty_train_split", "window_beyond_the_split"],
    )
    def test_random_model_reads_only_the_channel_count(self, workspace, tmp_path, capsys, change):
        # the check runs on random windows, so no split of the dataset needs to hold one
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dict(workspace["raw"], **change)))
        capsys.readouterr()
        assert main(["verify-axioms", "--config", str(path), "--seed", "5"]) == 0
        assert capsys.readouterr().out.count("PASS") == 5

    def test_random_model_has_the_dataset_channel_count(self, tmp_path, monkeypatch):
        data = tmp_path / "three.csv"
        save_csv(SeriesTable(np.random.default_rng(0).normal(size=(64, 3)), 3600.0, ["a", "b", "c"]), data)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"dataset": str(data), "input_length": 16, "horizon": 4, "hidden_width": 4,
                                    "num_bases": 4, "top_k": 2}))
        channels = []
        monkeypatch.setattr(cli, "verify_axioms", lambda model: channels.append(model.config.C) or {})
        assert main(["verify-axioms", "--config", str(path)]) == 0
        assert channels == [3]

    def test_checkpoint_passes(self, workspace):
        ckpt = str(workspace["root"] / "run" / "checkpoint-1.ckpt")
        assert main(["verify-axioms", "--config", workspace["config"], "--checkpoint", ckpt]) == 0

    def test_single_selected_frequency_passes(self, tmp_path):
        # K=1 leaves one head, so the symmetry check cannot compare two of the model's heads
        path = tmp_path / "k1.json"
        path.write_text(json.dumps({"input_length": 16, "horizon": 4, "hidden_width": 4, "num_bases": 4, "top_k": 1}))
        env = dict(os.environ, PYTHONPATH=str(Path(freqlens.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "freqlens.cli", "verify-axioms", "--config", str(path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout.count("PASS") == 5


# each command's flags, and the arguments that satisfy its required ones
COMMAND_FLAGS = {
    "synth": ({"--config", "--out"}, []),
    "train": ({"--config", "--out", "--seed"}, []),
    "evaluate": ({"--config", "--run", "--split"}, ["--run", "r"]),
    "compare": ({"--a", "--b", "--metric"}, ["--a", "a.json", "--b", "b.json"]),
    "discover": ({"--config", "--out", "--run"}, ["--run", "r"]),
    "attribute": ({"--config", "--out", "--checkpoint", "--index", "--split"}, ["--checkpoint", "c", "--index", "0"]),
    "faithfulness": ({"--config", "--out", "--checkpoint"}, ["--checkpoint", "c"]),
    "verify-axioms": ({"--config", "--seed", "--checkpoint"}, []),
}

# flags that earlier versions accepted and then ignored, or that repeated a config key
REMOVED_FLAGS = [
    ("synth", "--seed"),
    ("evaluate", "--out"),
    ("evaluate", "--seed"),
    ("compare", "--config"),
    ("compare", "--out"),
    ("compare", "--seed"),
    ("discover", "--seed"),
    ("discover", "--delta"),
    ("attribute", "--seed"),
    ("faithfulness", "--seed"),
    ("faithfulness", "--topk"),
    ("verify-axioms", "--out"),
]


class TestUsageErrors:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_help_lists_only_the_flags_the_command_reads(self, command, capsys):
        assert main([command, "--help"]) == 0
        assert set(re.findall(r"--[a-z]+", capsys.readouterr().out)) - {"--help"} == COMMAND_FLAGS[command][0]

    @pytest.mark.parametrize("command,flag", REMOVED_FLAGS, ids=[f"{c}{f}" for c, f in REMOVED_FLAGS])
    def test_removed_flag_is_a_one_line_usage_error(self, command, flag, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert main([command, *COMMAND_FLAGS[command][1], flag, "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and list(tmp_path.iterdir()) == []
        assert captured.err == f"error: freqlens: unrecognized arguments: {flag} 1\n"

    def test_missing_required_flag_is_one_line(self, capsys):
        assert main(["attribute", "--checkpoint", "c"]) == 1
        assert capsys.readouterr().err == "error: freqlens attribute: the following arguments are required: --index\n"

    @pytest.mark.parametrize("order", ["seed_first", "checkpoint_first"])
    def test_verify_axioms_seed_with_checkpoint_is_one_line(self, order, tmp_path, monkeypatch, capsys):
        # --seed picks the random model that --checkpoint replaces, so giving both is an error
        monkeypatch.chdir(tmp_path)
        flags = [["--seed", "5"], ["--checkpoint", "c.ckpt"]]
        first, second = flags if order == "seed_first" else flags[::-1]
        capsys.readouterr()
        assert main(["verify-axioms", *first, *second]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and list(tmp_path.iterdir()) == []
        assert captured.err == (
            f"error: freqlens verify-axioms: argument {second[0]}: not allowed with argument {first[0]}\n"
        )

    @pytest.mark.parametrize("command", ["train", "verify-axioms"])
    def test_seed_flag_beyond_int64_is_one_line(self, command, workspace, tmp_path, capsys):
        # a seed names the checkpoint and log files, so an unbounded one could not be written
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dict(workspace["raw"], out_dir=str(tmp_path / "out"))))
        capsys.readouterr()
        assert main([command, "--config", str(path), "--seed", "9" * 300]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not (tmp_path / "out").exists()
        assert captured.err == (
            f"error: freqlens {command}: argument --seed: too large for an int64: an integer of 300 digits\n"
        )

    @pytest.mark.parametrize("command", ["train", "verify-axioms"])
    def test_negative_seed_flag_is_one_line(self, command, workspace, tmp_path, capsys):
        # the flag takes the seed rule of the config's seeds, before anything is written
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dict(workspace["raw"], out_dir=str(tmp_path / "out"))))
        capsys.readouterr()
        assert main([command, "--config", str(path), "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not (tmp_path / "out").exists()
        assert captured.err == "error: flag --seed needs nonnegative seeds, got -1\n"

    @pytest.mark.parametrize(
        "key,value",
        [
            ("freq_mode", "fixed-prior"),  # the periods alone select the fixed-prior bank
            ("epsilon_div", 1e-6),  # the gap barrier's shift is the constant DIVERSITY_EPSILON
        ],
    )
    def test_removed_key_is_a_one_line_usage_error(self, tmp_path, capsys, key, value):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({key: value, "out_dir": str(tmp_path / "out")}))
        capsys.readouterr()
        assert main(["train", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: unknown config keys: [{key!r}]") and captured.err.count("\n") == 1
        assert captured.out == "" and not (tmp_path / "out").exists()

    def test_missing_required_flag(self):
        assert main(["evaluate"]) == 1

    def test_train_without_dataset(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"out_dir": str(tmp_path)}))
        assert main(["train", "--config", str(path)]) == 1


class TestNumericFailures:
    def test_nan_gradient_exits_3_with_one_line(self, workspace, tmp_path, monkeypatch, capsys):
        real_backward = training.backward

        def nan_backward(loss):
            return {k: np.full_like(g, np.nan) for k, g in real_backward(loss).items()}

        monkeypatch.setattr(training, "backward", nan_backward)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dict(workspace["raw"], out_dir=str(tmp_path / "nan"), seeds=[1])))
        capsys.readouterr()
        assert main(["train", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "non-finite gradient" in err
        assert "Traceback" not in err


def _infinite_csv_cell(tmp_path, monkeypatch, raw):
    data = tmp_path / "inf.csv"
    data.write_text("value\n1.0\n2.0\ninf\n3.0\n")
    return ["train"], dict(raw, dataset=str(data))


def _biased_head(tmp_path, monkeypatch, raw):
    # a head with a bias gives a nonzero contribution at a zero coefficient
    real = FreqLens.head_contribution
    monkeypatch.setattr(FreqLens, "head_contribution", lambda self, c_sel: real(self, c_sel) + 1e-3)
    return ["verify-axioms"], raw


def _non_finite_head_weight(tmp_path, monkeypatch, raw):
    # every check reads a NaN deviation and fails, Shapley equivalence included
    model = FreqLens(ModelConfig(L=16, H=4, C=1, d=4, N=4, K=2))
    model.head_w2.data[0, 0, 0] = np.nan
    save_checkpoint(model, tmp_path / "nan.ckpt")
    return ["verify-axioms", "--checkpoint", str(tmp_path / "nan.ckpt")], raw


def _infinite_head_weight(tmp_path, monkeypatch, raw):
    # inf * 0 and inf - inf make NaNs inside the checks: they fail without a NumPy warning
    model = FreqLens(ModelConfig(L=16, H=4, C=1, d=4, N=4, K=2))
    model.head_w2.data[0, 0, 0] = np.inf
    save_checkpoint(model, tmp_path / "inf.ckpt")
    return ["verify-axioms", "--checkpoint", str(tmp_path / "inf.ckpt")], raw


def _non_finite_loss(tmp_path, monkeypatch, raw):
    real = training.total_loss

    def inf_loss(*args):
        loss, comps = real(*args)
        return loss, dict(comps, total=math.inf)

    monkeypatch.setattr(training, "total_loss", inf_loss)
    return ["train"], raw


def _empty_val_split(tmp_path, monkeypatch, raw):
    return ["train"], dict(raw, split_train=0.8, split_val=0.0, split_test=0.2)


def _out_dir_below_a_file(tmp_path, monkeypatch, raw):
    (tmp_path / "file").write_text("")
    return ["synth"], dict(raw, out_dir=str(tmp_path / "file" / "out"))


def _out_of_memory(tmp_path, monkeypatch, raw):
    def huge(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,) and data type float64")

    monkeypatch.setattr(cli, "synth_series", huge)
    return ["synth"], raw


def _evaluate_empty_val_split(tmp_path, monkeypatch, raw):
    # the split is checked before the run directory is read
    _, raw = _empty_val_split(tmp_path, monkeypatch, raw)
    return ["evaluate", "--run", str(tmp_path), "--split", "val"], raw


class TestFailureExitCodes:
    """Each failure class exits with its documented code and one stderr line, no traceback."""

    @pytest.mark.parametrize(
        "forge,code,message",
        [
            (_infinite_csv_cell, 1, "infinite cell 'inf' at row 4, column 'value'"),
            (_biased_head, 2, "verification failure: null_frequency"),
            (
                _non_finite_head_weight,
                2,
                "verification failure: completeness, faithfulness, null_frequency, symmetry, shapley_equivalence",
            ),
            (
                _infinite_head_weight,
                2,
                "verification failure: completeness, faithfulness, null_frequency, symmetry, shapley_equivalence",
            ),
            (_non_finite_loss, 3, "numeric failure: non-finite loss at epoch 0, batch 0"),
            (_empty_val_split, 1, "error: the 'val' split is empty"),
            (_evaluate_empty_val_split, 1, "error: the 'val' split is empty"),
            (_out_dir_below_a_file, 1, "Not a directory"),
            (_out_of_memory, 1, "error: Unable to allocate 7.28 TiB"),
        ],
        ids=[
            "infinite_csv_cell", "biased_head", "non_finite_head_weight", "infinite_head_weight",
            "non_finite_loss", "empty_val_split", "evaluate_empty_val_split", "out_dir_below_a_file",
            "out_of_memory",
        ],
    )
    def test_exit_code_and_one_line(self, workspace, tmp_path, monkeypatch, capsys, recwarn, forge, code, message):
        raw = dict(workspace["raw"], out_dir=str(tmp_path / "out"), seeds=[1])
        command, raw = forge(tmp_path, monkeypatch, raw)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        capsys.readouterr()
        assert main([*command, "--config", str(path)]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err, err
        assert "Traceback" not in err
        # pytest records warnings instead of printing them; outside pytest each would add stderr lines
        assert [str(w.message) for w in recwarn] == []

    @pytest.mark.parametrize("field,value", [("input_length", 32), ("horizon", 12)], ids=["L", "H"])
    @pytest.mark.parametrize("command", ["evaluate", "discover", "attribute", "faithfulness"])
    def test_checkpoint_shape_mismatch_names_the_checkpoint(self, workspace, tmp_path, capsys, command, field, value):
        ckpt = str(Path(workspace["run"]) / "checkpoint-1.ckpt")
        args = {
            "evaluate": ["--run", workspace["run"]],
            "discover": ["--run", workspace["run"]],
            "attribute": ["--checkpoint", ckpt, "--index", "0"],
            "faithfulness": ["--checkpoint", ckpt],
        }[command]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dict(workspace["raw"], out_dir=str(tmp_path / "out"), **{field: value})))
        capsys.readouterr()
        assert main([command, "--config", str(path), *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: checkpoint {ckpt} has shape") and err.count("\n") == 1, err
        assert list((tmp_path / "out").glob("*")) == []


def _rewrite_checkpoint(src: Path, dst: Path, drop=(), replace=None) -> None:
    """Copy a checkpoint zip, dropping members and replacing others' bytes."""
    replace = replace or {}
    with zipfile.ZipFile(src) as zin, zipfile.ZipFile(dst, "w") as zout:
        for name in zin.namelist():
            if name not in drop:
                zout.writestr(name, replace.get(name, zin.read(name)))


def _not_a_zip(tmp_path, good):
    path = tmp_path / "garbage.ckpt"
    path.write_bytes(b"this is not a zip archive")
    return path


def _a_directory(tmp_path, good):
    path = tmp_path / "a-directory.ckpt"
    path.mkdir()
    return path


def _missing_array(tmp_path, good):
    path = tmp_path / "missing-array.ckpt"
    _rewrite_checkpoint(good, path, drop={"arrays/fusion_logit.npy"})
    return path


def _bad_manifest_json(tmp_path, good):
    path = tmp_path / "bad-manifest.ckpt"
    _rewrite_checkpoint(good, path, replace={"manifest.json": b"{not json"})
    return path


def _version_1_manifest(tmp_path, good):
    path = tmp_path / "version-1.ckpt"
    with zipfile.ZipFile(good) as zf:
        manifest = json.loads(zf.read("manifest.json"))
    manifest["format_version"] = 1
    _rewrite_checkpoint(good, path, replace={"manifest.json": json.dumps(manifest).encode()})
    return path


def _version_3_manifest(tmp_path, good):
    # version 3 stored freq_mode in the model config; prior_periods alone now selects the bank
    path = tmp_path / "version-3.ckpt"
    with zipfile.ZipFile(good) as zf:
        manifest = json.loads(zf.read("manifest.json"))
    manifest["format_version"] = 3
    manifest["config"].update(freq_mode="learnable")
    _rewrite_checkpoint(good, path, replace={"manifest.json": json.dumps(manifest).encode()})
    return path


def _version_2_manifest(tmp_path, good):
    # version 2 stored the two Gumbel temperatures in the model config
    path = tmp_path / "version-2.ckpt"
    with zipfile.ZipFile(good) as zf:
        manifest = json.loads(zf.read("manifest.json"))
    manifest["format_version"] = 2
    manifest["config"].update(gumbel_tau_start=1.0, gumbel_tau_end=0.1)
    _rewrite_checkpoint(good, path, replace={"manifest.json": json.dumps(manifest).encode()})
    return path


def _forged_seed(label, value, in_config=False):
    """A maker of a checkpoint whose manifest seed (or, with ``in_config``, config seed) is ``value``."""

    def make_bad(tmp_path, good):
        path = tmp_path / "forged-seed.ckpt"
        with zipfile.ZipFile(good) as zf:
            manifest = json.loads(zf.read("manifest.json"))
        (manifest["config"] if in_config else manifest)["seed"] = value
        _rewrite_checkpoint(good, path, replace={"manifest.json": json.dumps(manifest).encode()})
        return path

    make_bad.__name__ = f"_{'config' if in_config else 'manifest'}_seed_{label}"
    return make_bad


class TestCheckpointFailures:
    """A bad --checkpoint is a usage error: exit 1 and one line on stderr, no traceback."""

    @staticmethod
    def bad_checkpoint(tmp_path, make_bad):
        good = tmp_path / "good.ckpt"
        save_checkpoint(FreqLens(ModelConfig(L=16, H=4, C=1, d=4, N=4, K=2)), good)
        return make_bad(tmp_path, good)

    @staticmethod
    def assert_one_line_naming(stderr, bad):
        assert "Traceback" not in stderr
        assert stderr.count("\n") == 1 and str(bad) in stderr, stderr

    @pytest.mark.parametrize(
        "make_bad",
        [
            _a_directory, _missing_array, _bad_manifest_json,
            _version_1_manifest, _version_2_manifest, _version_3_manifest,
            # a seed seeds NumPy and names a run's files: a nonnegative int64, never a bool
            _forged_seed("string", "abc"), _forged_seed("float", 1.5), _forged_seed("negative", -3),
            _forged_seed("bool", True), _forged_seed("path", "../x"), _forged_seed("huge", 2**63),
            _forged_seed("bool", True, in_config=True), _forged_seed("huge", 2**70, in_config=True),
        ],
        ids=lambda f: f.__name__,
    )
    def test_bad_checkpoint_exits_1_without_traceback(self, tmp_path, capsys, make_bad):
        bad = self.bad_checkpoint(tmp_path, make_bad)
        capsys.readouterr()
        assert main(["verify-axioms", "--checkpoint", str(bad)]) == 1
        self.assert_one_line_naming(capsys.readouterr().err, bad)

    def test_bad_checkpoint_exits_1_without_traceback_from_the_interpreter(self, tmp_path):
        # the in-process rows above cannot see what the interpreter prints on exit
        bad = self.bad_checkpoint(tmp_path, _not_a_zip)
        env = dict(os.environ, PYTHONPATH=str(Path(freqlens.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "freqlens.cli", "verify-axioms", "--checkpoint", str(bad)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1, proc.stderr
        self.assert_one_line_naming(proc.stderr, bad)

    @pytest.mark.parametrize("command", ["evaluate", "discover", "faithfulness"])
    def test_forged_seed_writes_nothing(self, workspace, tmp_path, capsys, command):
        run = tmp_path / "run"
        run.mkdir()
        bad = _forged_seed("path", "../x")(run, Path(workspace["run"]) / "checkpoint-1.ckpt")
        bad = bad.rename(run / "checkpoint-1.ckpt")
        args = ["--checkpoint", str(bad)] if command == "faithfulness" else ["--run", str(run)]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dict(workspace["raw"], out_dir=str(tmp_path / "out"))))
        capsys.readouterr()
        assert main([command, "--config", str(path), *args]) == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot load checkpoint {bad}: seed must be a nonnegative int64, got '../x'\n"
        assert list(run.iterdir()) == [bad] and not (tmp_path / "out").exists()
