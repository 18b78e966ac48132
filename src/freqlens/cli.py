"""Command-line entry point for reproducible runs.

Commands: synth, train, evaluate, compare, discover, attribute,
faithfulness, verify-axioms.  Every command is a pure function of the
config file, the input files, and the seed: identical inputs produce
identical outputs.  Each command takes only the flags it reads, and no
flag repeats a value that a config key sets.

The config file is a flat JSON object; every key has a documented
default (see CONFIG_REFERENCE) and unknown keys are hard errors so a
typo cannot silently fall back to a default.  A key that sets a field of
ModelConfig, TrainConfig, LossWeights or SplitSpec names that field and
takes its default from it.

Exit codes: 0 success, 1 usage or config error, 2 verification
failure, 3 numeric failure.  Every failure prints one line on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .atomic import atomic_write
from .data import SeriesTable, SplitSpec, WindowSet, fit_apply_zscore, load_csv, make_windows, save_csv, synth_series
from .interpret import alpha_report, build_discovery_report, export_spectrum_csv, faithfulness_test, verify_axioms
from .model import FreqLens, ModelConfig, load_checkpoint, save_checkpoint
from .stats import compute_metrics, paired_ttest
from .training import LossWeights, NonFiniteGradientError, TrainConfig, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2
EXIT_NUMERIC = 3


class ConfigError(Exception):
    pass


def _field(cls, name: str, help_text: str) -> tuple:
    """Reference entry of a key that sets field ``name`` of dataclass ``cls``, with the field's default.

    JSON has no tuples, so a tuple default reads as a list.
    """
    default = next(f.default for f in fields(cls) if f.name == name)
    return (list(default) if isinstance(default, tuple) else default), help_text, (cls, name)


# key -> (default, help, (dataclass, field) the key sets or None);
# None defaults carry their expected type in _NONEABLE
CONFIG_REFERENCE = {
    "dataset": (None, "path to the input CSV (header row, optional timestamp column)", None),
    "step_duration": (3600.0, "physical seconds per time step", None),
    "timestamp_column": ("date", "header name of the excluded timestamp column", None),
    "columns": (None, "optional list of channel names to keep, in order", None),
    "split_mode": _field(SplitSpec, "mode", "chronological split flavor: 'ratio' or 'months'"),
    "split_train": _field(SplitSpec, "train", "train fraction (ratio mode)"),
    "split_val": _field(SplitSpec, "val", "validation fraction (ratio mode)"),
    "split_test": _field(SplitSpec, "test", "test fraction (ratio mode)"),
    "split_months": _field(SplitSpec, "months", "train/val/test month counts (months mode, 30-day months)"),
    "synth_periods": ([24.0, 12.0], "cosine periods in steps for the synthetic generator", None),
    "synth_amplitudes": ([1.0, 0.5], "cosine amplitudes, one per period", None),
    "synth_phases": ([0.0, 0.0], "cosine phases in radians, one per period", None),
    "synth_trend_slope": (0.0, "linear trend added per step", None),
    "synth_noise_std": (0.1, "standard deviation of additive Gaussian noise", None),
    "synth_length": (2000, "number of generated steps", None),
    "synth_seed": (0, "seed of the synthetic noise", None),
    "input_length": _field(ModelConfig, "L", "input window length L in steps"),
    "horizon": _field(ModelConfig, "H", "forecast horizon H in steps"),
    "hidden_width": _field(ModelConfig, "d", "hidden width d"),
    "num_bases": _field(ModelConfig, "N", "number of frequency bases N"),
    "top_k": _field(ModelConfig, "K", "selected frequencies K per sample"),
    "prior_periods": _field(
        ModelConfig, "prior_periods", "periods in steps of a fixed bank, one per basis (null: learnable bank)"
    ),
    "gumbel_tau_start": _field(TrainConfig, "tau_start", "training selection temperature at the first epoch"),
    "gumbel_tau_end": _field(TrainConfig, "tau_end", "training selection temperature at the final epoch"),
    "force_alpha": _field(
        ModelConfig, "force_alpha", "pin the fusion gate to this value (1.0 = frequency path only)"
    ),
    "epochs": _field(TrainConfig, "epochs", "training epochs"),
    "base_lr": _field(TrainConfig, "base_lr", "base learning rate (cosine-annealed)"),
    "freq_lr_multiplier": _field(
        TrainConfig, "freq_lr_multiplier", "learning-rate multiplier for frequency parameters"
    ),
    "batch_size": _field(TrainConfig, "batch_size", "training batch size"),
    "patience": _field(TrainConfig, "patience", "early-stopping patience in epochs"),
    "lambda_div": _field(LossWeights, "lambda_div", "weight of the frequency-gap barrier"),
    "lambda_recon": _field(LossWeights, "lambda_recon", "weight of the hidden reconstruction error"),
    "known_periods": ([], "known physical periods in seconds, for discovery matching", None),
    "delta": (0.15, "relative-error threshold for a period match", None),
    "faithfulness_k": ([1, 2, 4, 8], "top-k removal sizes for the faithfulness test", None),
    "out_dir": ("runs", "artifact output directory", None),
    "seeds": ([42, 123, 456], "seed list; each seed trains one model", None),
}

_NONEABLE = {"dataset": str, "columns": list, "prior_periods": list, "force_alpha": float}
_INT64 = range(np.iinfo(np.int64).min, np.iinfo(np.int64).max + 1)  # sizes, counts and seeds reach NumPy as int64

# what every element of a list-valued key must be; the command that reads
# a list checks the element values (ranges, counts, duplicates)
_LIST_ELEMENTS = {
    "columns": "string",
    "split_months": "number",
    "synth_periods": "number",
    "synth_amplitudes": "number",
    "synth_phases": "number",
    "prior_periods": "number",
    "known_periods": "number",
    "faithfulness_k": "whole number",
    "seeds": "whole number",
}


@dataclass
class RunConfig:
    values: dict

    def __getattr__(self, key):
        try:
            return self.values[key]
        except KeyError:
            raise AttributeError(key) from None

    def build(self, cls, **given):
        """``cls`` with each field that a config key sets taken from that key, plus ``given``.

        JSON lists become tuples; an empty list of a key that may be null
        is null.
        """
        for key, (_, _, target) in CONFIG_REFERENCE.items():
            if target and target[0] is cls:
                value = self.values[key]
                if isinstance(value, list):
                    value = tuple(value) if value or key not in _NONEABLE else None
                given[target[1]] = value
        return cls(**given)


def load_config(path: str | None) -> RunConfig:
    raw = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a flat JSON object")
    unknown = sorted(set(raw) - set(CONFIG_REFERENCE))
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown} (see the config reference)")
    values = {}
    for key, (default, _, _) in CONFIG_REFERENCE.items():
        value = raw.get(key, default)
        values[key] = _check_type(key, value, default)
    return RunConfig(values)


def _check_type(key, value, default):
    if value is None:
        if key in _NONEABLE or default is None:
            return None
        raise ConfigError(f"config key {key!r} must not be null")
    expected = _NONEABLE[key] if key in _NONEABLE else type(default)
    if expected is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(_finite(key, value))
    if not isinstance(value, expected) or isinstance(value, bool) is not (expected is bool):
        raise ConfigError(f"config key {key!r} expects {expected.__name__}, got {value!r}")
    if expected is int:
        return _int64_sized(key, value)
    return _check_elements(key, value) if expected is list else value


def _too_large(value: int, kind: str, where: str = "") -> str:
    return f"too large for {kind}{where}: an integer of {len(str(abs(value)))} digits"


def _finite(key, value, where=""):
    """``value``, unless it is no finite float64 (JSON reads ``1e400`` as inf; its integers have no size limit)."""
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(f"config key {key!r} is {_too_large(value, 'a float64', where)}") from None
    if not math.isfinite(number):
        raise ConfigError(f"config key {key!r} needs finite numbers, got {number!r}")
    return value


def _int64_sized(key, value, where=""):
    if value not in _INT64:
        raise ConfigError(f"config key {key!r} is {_too_large(value, 'an int64', where)}")
    return value


def int64(text: str) -> int:
    """An integer flag value within int64's range, bounded as a config integer is."""
    value = int(text)
    if value not in _INT64:
        raise argparse.ArgumentTypeError(_too_large(value, "an int64"))
    return value


def _check_elements(key, values: list) -> list:
    """``values`` with each element checked against its key's kind; whole numbers become ints."""
    kind = _LIST_ELEMENTS[key]
    checked = []
    for i, v in enumerate(values):
        if kind == "string":
            ok = isinstance(v, str)
        elif kind == "number":
            ok = isinstance(v, (int, float)) and not isinstance(v, bool)
            v = _finite(key, v, f" at index {i}") if ok else v
        else:
            ok = (isinstance(v, int) and not isinstance(v, bool)) or (isinstance(v, float) and v.is_integer())
            v = _int64_sized(key, int(v), f" at index {i}") if ok else v
        if not ok:
            raise ConfigError(f"config key {key!r} expects a list of {kind}s, got {v!r} at index {i}")
        checked.append(v)
    return checked


def config_reference_text() -> str:
    lines = ["configuration keys (flat JSON object):"]
    for key, (default, help_text, _) in CONFIG_REFERENCE.items():
        lines.append(f"  {key:20s} default={default!r}: {help_text}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _load_table(cfg: RunConfig) -> SeriesTable:
    """The configured dataset as read from its CSV."""
    if cfg.dataset is None:
        raise ConfigError("this command needs a 'dataset' path in the config")
    return load_csv(
        cfg.dataset,
        timestamp_column=cfg.timestamp_column,
        columns=cfg.columns,
        step_duration=cfg.step_duration,
    )


def _load_windows(cfg: RunConfig, *needed: str) -> dict[str, WindowSet]:
    """Windows of every nonempty split; each split named in ``needed`` must have rows."""
    table = _load_table(cfg)
    split = cfg.build(SplitSpec)
    normalized, _ = fit_apply_zscore(table, split)
    windows = make_windows(normalized, cfg.input_length, cfg.horizon, split)
    for name in needed:
        if name not in windows:
            raise ConfigError(f"the {name!r} split is empty: the configured split assigns it no rows")
    return windows


def _out_dir(cfg: RunConfig, args) -> Path:
    out = Path(args.out or cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_model(cfg: RunConfig, path, channels: int) -> tuple[FreqLens, int]:
    """Model and seed of checkpoint ``path``, whose (L, H, C) must match the configured data."""
    model, seed = load_checkpoint(path)
    shape = (model.config.L, model.config.H, model.config.C)
    if shape != (cfg.input_length, cfg.horizon, channels):
        raise ConfigError(
            f"checkpoint {path} has shape (L={shape[0]}, H={shape[1]}, C={shape[2]}), but the configured "
            f"data has (L={cfg.input_length}, H={cfg.horizon}, C={channels})"
        )
    return model, seed


def _seeds(cfg: RunConfig, flag: int | None) -> list[int]:
    """The seeds a command runs: the ``--seed`` flag if given, else config key 'seeds'.

    Either way there is at least one, each nonnegative and listed once
    (a seed names its files), checked before anything is written.
    """
    name, seeds = ("flag --seed", [flag]) if flag is not None else ("config key 'seeds'", cfg.seeds)
    if not seeds:
        raise ConfigError(f"{name} must list at least one seed")
    negative = [s for s in seeds if s < 0]
    if negative:
        raise ConfigError(f"{name} needs nonnegative seeds, got {negative[0]}")
    repeated = sorted({s for s in seeds if seeds.count(s) > 1})
    if repeated:
        raise ConfigError(f"{name} lists seed {repeated[0]} more than once")
    return seeds


def _load_run(cfg: RunConfig, run_dir: Path, channels: int) -> list[tuple[int, FreqLens]]:
    """(seed, model) of every checkpoint-*.ckpt in ``run_dir``, in file-name order.

    A seed names a run's files, so two checkpoints of one seed are a
    usage error, raised before anything is written.
    """
    paths = sorted(run_dir.glob("checkpoint-*.ckpt"))
    if not paths:
        raise ConfigError(f"no checkpoint-*.ckpt files in {run_dir}")
    seeded, first_path = [], {}
    for path in paths:
        model, seed = _load_model(cfg, path, channels)
        if seed in first_path:
            raise ConfigError(f"{first_path[seed].name} and {path.name} in {run_dir} both hold seed {seed}")
        first_path[seed] = path
        seeded.append((seed, model))
    return seeded


def _dump_json(path: Path, payload) -> None:
    with atomic_write(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_synth(cfg: RunConfig, args) -> int:
    """write a synthetic series as CSV"""
    periods = cfg.synth_periods
    amplitudes = cfg.synth_amplitudes or [1.0] * len(periods)
    phases = cfg.synth_phases or [0.0] * len(periods)
    if not (len(periods) == len(amplitudes) == len(phases)):
        raise ConfigError("synth_periods, synth_amplitudes, and synth_phases must have equal lengths")
    table = synth_series(
        list(zip(periods, amplitudes, phases)),
        trend_slope=cfg.synth_trend_slope,
        noise_std=cfg.synth_noise_std,
        length=cfg.synth_length,
        seed=cfg.synth_seed,
        step_duration=cfg.step_duration,
    )
    out = _out_dir(cfg, args) / "synthetic.csv"
    save_csv(table, out)
    print(f"wrote {out}: {table.n_steps} steps x {table.n_channels} channel(s), periods {periods}")
    return EXIT_OK


def cmd_train(cfg: RunConfig, args) -> int:
    """train one model per seed"""
    seeds = _seeds(cfg, args.seed)
    windows = _load_windows(cfg, "train", "val")
    channels = windows["train"].inputs.shape[2]
    # every config is built, and so checked, before the output directory is made
    runs = [
        (seed, cfg.build(ModelConfig, C=channels, seed=seed), cfg.build(TrainConfig, seed=seed)) for seed in seeds
    ]
    weights = cfg.build(LossWeights)
    out = _out_dir(cfg, args)
    for seed, model_config, train_config in runs:
        trained, log = train(FreqLens(model_config), windows["train"], windows["val"], train_config, weights)
        save_checkpoint(trained, out / f"checkpoint-{seed}.ckpt", seed=seed)
        log.save(out / f"trainlog-{seed}.jsonl")
        log.save_csv(out / f"losscurves-{seed}.csv")
        best = min(r.val_mse for r in log.records)
        print(f"seed {seed}: {len(log.records)} epochs, best validation MSE {best:.6f}")
    return EXIT_OK


def cmd_evaluate(cfg: RunConfig, args) -> int:
    """metrics of each checkpoint on a split"""
    windows = _load_windows(cfg, args.split)
    dataset = windows[args.split]
    run_dir = Path(args.run)
    per_seed = {}
    for seed, model in _load_run(cfg, run_dir, dataset.inputs.shape[2]):
        y_hat = np.concatenate([out.y_hat.data for out in model.forward_batches(dataset.inputs)])
        metrics = compute_metrics(y_hat, dataset.targets)
        per_seed[str(seed)] = {
            "mse": metrics.mse,
            "mae": metrics.mae,
            "rmse": metrics.rmse,
            "n_windows": int(dataset.inputs.shape[0]),
        }
        print(f"seed {seed} [{args.split}]: mse={metrics.mse:.6f} mae={metrics.mae:.6f} rmse={metrics.rmse:.6f}")
    payload = {"split": args.split, "per_seed": per_seed}
    _dump_json(run_dir / f"metrics-{args.split}.json", payload)
    return EXIT_OK


def cmd_compare(args) -> int:
    """paired t-test between two runs' per-seed metrics"""

    def read_metrics(path):
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: not JSON
            reason = exc.strerror if isinstance(exc, OSError) else exc
            raise ConfigError(f"cannot read metrics file {path}: {reason}") from exc
        per_seed = payload.get("per_seed") if isinstance(payload, dict) else None
        if not isinstance(per_seed, dict):
            raise ConfigError(f"{path} is not a metrics file: it has no 'per_seed' object")
        return per_seed

    def metric_values(path, per_seed):
        values = []
        for s in shared:
            value = per_seed[s].get(args.metric) if isinstance(per_seed[s], dict) else None
            if not isinstance(value, (int, float)):
                raise ConfigError(f"{path}: seed {s} has no numeric {args.metric!r}")
            if not abs(value) <= sys.float_info.max:  # NaN, an infinity or an int beyond float64
                raise ConfigError(f"{path}: seed {s} has no finite {args.metric!r}")
            values.append(value)
        return values

    a, b = read_metrics(args.a), read_metrics(args.b)
    shared = sorted(set(a) & set(b), key=int)
    if len(shared) < 2:
        raise ConfigError("compare needs at least two shared seeds between the two runs")
    result = paired_ttest(metric_values(args.a, a), metric_values(args.b, b))
    payload = {"metric": args.metric, "seeds": [int(s) for s in shared], **asdict(result)}
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_discover(cfg: RunConfig, args) -> int:
    """match learned periods against known cycles"""
    test_inputs = _load_windows(cfg, "test")["test"].inputs
    run_dir = Path(args.run)
    if not cfg.known_periods:
        raise ConfigError("discover needs a nonempty 'known_periods' list (physical seconds)")
    if not 0 < cfg.delta < 1:
        raise ConfigError(f"config key 'delta' must lie strictly between 0 and 1, got {cfg.delta!r}")
    for period in cfg.known_periods:
        if period <= 0:
            raise ConfigError(f"config key 'known_periods' needs positive periods in seconds, got {period!r}")
    known_steps = [p / cfg.step_duration for p in cfg.known_periods]
    seeded = _load_run(cfg, run_dir, test_inputs.shape[2])
    report = build_discovery_report(seeded, known_steps, delta=cfg.delta, test_inputs=test_inputs)
    out = _out_dir(cfg, args)
    _dump_json(out / "discovery.json", asdict(report))
    for found in report.seeds:
        export_spectrum_csv(out / f"spectrum-{found.seed}.csv", found)
    gates = alpha_report([m for _, m in seeded])
    _dump_json(out / "alpha.json", asdict(gates))
    for summary in report.summary:
        physical = summary.known_period * cfg.step_duration
        mean = "none" if summary.mean_learned is None else f"{summary.mean_learned:.3f}"
        print(
            f"known period {summary.known_period:g} steps ({physical:g}s): "
            f"matched by {summary.n_matched}/{len(report.seeds)} seeds, mean learned {mean}"
        )
    return EXIT_OK


def cmd_attribute(cfg: RunConfig, args) -> int:
    """export per-frequency attributions of one window"""
    windows = _load_windows(cfg, args.split)
    dataset = windows[args.split]
    if not 0 <= args.index < dataset.inputs.shape[0]:
        raise ConfigError(
            f"sample index {args.index} out of range for {dataset.inputs.shape[0]} {args.split} windows"
        )
    model, seed = _load_model(cfg, args.checkpoint, dataset.inputs.shape[2])
    x = dataset.inputs[args.index : args.index + 1]
    out = model.forward(x, training=False)
    report = model.attribute(out)
    completeness = float(np.abs(report.contributions.sum(axis=1) - report.y_freq).max())
    payload = {
        "seed": seed,
        "split": args.split,
        "sample_index": args.index,
        "alpha": report.alpha,
        "selected_bases": report.selected[0].tolist(),
        "frequencies": report.frequencies[0].tolist(),
        "periods_steps": report.periods_steps[0].tolist(),
        "periods_physical": (report.periods_steps[0] * cfg.step_duration).tolist(),
        "attribution_magnitudes": report.magnitudes[0].tolist(),
        "contributions": report.contributions[0].tolist(),
        "y_freq": report.y_freq[0].tolist(),
        "y_res": report.y_res[0].tolist(),
        "completeness_residual": completeness,
    }
    out_path = _out_dir(cfg, args) / f"attribution-{args.index}.json"
    _dump_json(out_path, payload)
    print(
        f"wrote {out_path}: {len(payload['selected_bases'])} contributions, "
        f"alpha={report.alpha:.4f}, completeness residual {completeness:.2e}"
    )
    return EXIT_OK


def cmd_faithfulness(cfg: RunConfig, args) -> int:
    """perturbation test of attribution faithfulness on the first 64 test windows"""
    test_inputs = _load_windows(cfg, "test")["test"].inputs
    model, seed = _load_model(cfg, args.checkpoint, test_inputs.shape[2])
    results = faithfulness_test(model, test_inputs, list(cfg.faithfulness_k))
    payload = {"seed": seed, "results": [asdict(r) for r in results]}
    out_path = _out_dir(cfg, args) / "faithfulness.json"
    _dump_json(out_path, payload)
    for r in results:
        print(
            f"k={r.k} over {r.n_samples} windows: mean |change|={r.mean_abs_change:.3e} "
            f"(frequency path {r.mean_abs_change_freq_path:.3e}), "
            f"attribution/impact correlation {r.attribution_impact_correlation:.9f}"
        )
    return EXIT_OK


def cmd_verify_axioms(cfg: RunConfig, args) -> int:
    """check the attribution axioms and the Shapley oracle"""
    if args.checkpoint is not None:
        model, _ = load_checkpoint(args.checkpoint)
    else:
        seed = _seeds(cfg, args.seed)[0]
        channels = 1 if cfg.dataset is None else _load_table(cfg).n_channels
        model = FreqLens(cfg.build(ModelConfig, C=channels, seed=seed))
    checks = verify_axioms(model)
    failed = [name for name, check in checks.items() if not check.passed]
    for name, check in checks.items():
        status = "PASS" if check.passed else "FAIL"
        print(f"{name}: {status} (max deviation {check.max_deviation:.3e})")
    if failed:
        print(f"verification failure: {', '.join(failed)}", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Parser whose usage errors surface as one ``error:`` line from ``main``, not a usage block."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per command, each with only the flags that command reads."""
    parser = _Parser(
        prog="freqlens",
        description="interpretable forecasting with learnable frequency bases",
        epilog=config_reference_text(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = {
        "config": dict(help="path to the flat JSON config"),
        "out": dict(help="output directory (default: config out_dir)"),
        "run": dict(required=True, help="run directory holding checkpoint-*.ckpt"),
        "checkpoint": dict(required=True, help="path to a checkpoint file"),
        "split": dict(default="test", choices=("train", "val", "test")),
    }

    def command(name, func, *flags):
        """Subcommand ``name``, helped by ``func``'s docstring, that calls ``func`` (given the config if it takes one)."""
        p = sub.add_parser(name, help=func.__doc__)
        for flag in flags:
            p.add_argument(f"--{flag}", **shared[flag])
        if "config" in flags:
            p.set_defaults(func=lambda args: func(load_config(args.config), args))
        else:
            p.set_defaults(func=func)
        return p

    command("synth", cmd_synth, "config", "out")

    p = command("train", cmd_train, "config", "out")
    p.add_argument("--seed", type=int64, help="single seed overriding the config list")

    command("evaluate", cmd_evaluate, "config", "run", "split")

    p = command("compare", cmd_compare)
    p.add_argument("--a", required=True, help="metrics JSON of run A (from evaluate)")
    p.add_argument("--b", required=True, help="metrics JSON of run B")
    p.add_argument("--metric", default="mse", choices=("mse", "mae", "rmse"))

    command("discover", cmd_discover, "config", "out", "run")

    p = command("attribute", cmd_attribute, "config", "out", "checkpoint", "split")
    p.add_argument("--index", type=int, required=True, help="window index within the split")

    command("faithfulness", cmd_faithfulness, "config", "out", "checkpoint")

    p = command("verify-axioms", cmd_verify_axioms, "config")
    model_source = p.add_mutually_exclusive_group()
    model_source.add_argument("--seed", type=int64, help="seed of the random model checked without --checkpoint "
                              "(default: the first config seed)")
    model_source.add_argument("--checkpoint", help="checkpoint to check instead of a random model")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NonFiniteGradientError, RuntimeError) as exc:
        # before the ValueError branch: the gradient error is a ValueError subclass
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # NumPy's names the allocation it could not make
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
