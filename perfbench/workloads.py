"""The benchmark's workloads: inputs made from a seed, one operation, its checks.

Every workload builds its inputs and model from the seed alone, so the
same seed gives the same inputs.  ``op(i)`` is the call that is timed;
``check(result)`` returns a message when an output is wrong, else None.

- ``train``: one ``training.train`` call from a freshly seeded model at
  the acceptance config.  The only workload that runs backward, the loss
  and the optimizer.
- ``serve_b1``, ``serve_b32``, ``serve_b256``: one request of B test
  windows, ``forward(training=False)`` + ``attribute`` + ``compute_metrics``
  on a model and test split that went through the checkpoint and CSV
  round trips in set-up.  At B=1 per-op Python and tape overhead
  dominates; at B=256 the projection einsums do.
- ``faithfulness``: one ``interpret.faithfulness_test`` call over 64
  windows at the paper-default config (K=8, C=7), dominated by the
  per-sample ``masked_forward`` loop.
- ``axioms``: one ``interpret.verify_axioms`` call over 8 windows at the
  paper-default config, dominated by ``masked_forward`` and the 2^K
  Shapley oracle.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from freqlens import data as fl_data
from freqlens import interpret as fl_interpret
from freqlens import model as fl_model
from freqlens import stats as fl_stats
from freqlens import training as fl_training

TOL = 1e-9
K_LIST = (1, 2, 4, 8)
EPOCHS = 1  # epoch budget of one train call
BATCH_SIZE = 32


@dataclass
class Scale:
    """Input sizes.  The defaults are what the benchmark measures; tests shrink them."""

    # acceptance config of the forecasting workloads (train, serve_*)
    forecast_model: dict = field(default_factory=lambda: dict(L=96, H=24, C=1, d=32, N=16, K=4))
    # paper-default ModelConfig (L=96, H=96, C=7, d=64, N=32, K=8) for faithfulness and axioms
    explain_model: dict = field(default_factory=dict)
    series_length: int = 2000
    explain_length: int = 600
    faithfulness_windows: int = 64
    axiom_windows: int = 8
    request_pool: int = 32


def two_cosine_table(seed: int, length: int) -> fl_data.SeriesTable:
    """cos(2 pi t/24) + 0.5 cos(2 pi t/12) + N(0, 0.1), phases drawn from the seed."""
    phases = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, size=2)
    return fl_data.synth_series(
        [(24.0, 1.0, float(phases[0])), (12.0, 0.5, float(phases[1]))],
        noise_std=0.1,
        length=length,
        seed=seed,
    )


def seeded_channels_table(seed: int, length: int, channels: int) -> fl_data.SeriesTable:
    """One two-cosine ``synth_series`` per channel, periods and phases drawn from the seed."""
    rng = np.random.default_rng(seed)
    columns = []
    for _ in range(channels):
        components = [
            (float(rng.uniform(4.0, 200.0)), float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.0, 2.0 * np.pi)))
            for _ in range(2)
        ]
        noise_seed = int(rng.integers(2**31))
        columns.append(fl_data.synth_series(components, noise_std=0.1, length=length, seed=noise_seed).values[:, 0])
    return fl_data.SeriesTable(np.stack(columns, axis=1), 3600.0, [f"ch{c}" for c in range(channels)])


FORECAST_SPLIT = dict(train=0.7, val=0.1, test=0.2)


class Workload:
    """Base: ``setup`` builds everything, ``op`` is timed, ``check`` validates."""

    windows_per_op = 1

    def __init__(self, scale: Scale, workdir: Path):
        self.scale = scale
        self.workdir = workdir

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def check(self, result) -> str | None:
        raise NotImplementedError

    def detail(self) -> dict:
        """Numbers worth printing that are not metrics."""
        return {}

    def cleanup(self) -> None:
        pass


def _first_forward(model: fl_model.FreqLens, x: np.ndarray) -> None:
    # the first request is part of set-up, so work moved into a lazy first call shows in setup_s
    model.forward(x[:1], training=False)


class Train(Workload):
    def setup(self, seed):
        split = fl_data.SplitSpec(**FORECAST_SPLIT)
        normalized, _ = fl_data.fit_apply_zscore(two_cosine_table(seed, self.scale.series_length), split)
        cfg = self.scale.forecast_model
        self.windows = fl_data.make_windows(normalized, cfg["L"], cfg["H"], split)
        self.config = fl_model.ModelConfig(**cfg, seed=seed)
        # patience equals the budget, so early stopping never shortens a call
        self.train_config = fl_training.TrainConfig(
            epochs=EPOCHS, patience=EPOCHS, batch_size=BATCH_SIZE, seed=seed
        )
        self.windows_per_op = EPOCHS * (
            self.windows["train"].n_windows + self.windows["val"].n_windows
        )
        self.reference_log = None
        self.best_val_mse = []
        _first_forward(fl_model.FreqLens(self.config), self.windows["val"].inputs)

    def op(self, i):
        model = fl_model.FreqLens(self.config)
        return fl_training.train(model, self.windows["train"], self.windows["val"], self.train_config)

    def check(self, result):
        _, log = result
        if len(log.records) != EPOCHS:
            return f"train stopped after {len(log.records)} of {EPOCHS} epochs"
        for r in log.records:
            values = {k: v for k, v in asdict(r).items() if isinstance(v, float)}
            if not all(math.isfinite(v) for v in values.values()):
                return f"non-finite loss in epoch {r.epoch}: {values}"
        text = log.to_jsonl()
        if self.reference_log is None:
            self.reference_log = text
        elif text != self.reference_log:
            return "two same-seed train calls gave different logs"
        self.best_val_mse.append(min(r.val_mse for r in log.records))
        return None

    def detail(self):
        return {"train_val_mse": self.best_val_mse[-1] if self.best_val_mse else None}


class Serve(Workload):
    def __init__(self, scale, workdir, batch: int):
        super().__init__(scale, workdir)
        self.windows_per_op = batch
        tag = f"{os.getpid()}-b{batch}"
        self.csv_path = workdir / f"series-{tag}.csv"
        self.checkpoint_path = workdir / f"model-{tag}.ckpt"

    def setup(self, seed):
        # the test split and the model reach the requests through files, as `freqlens evaluate` reads them
        fl_data.save_csv(two_cosine_table(seed, self.scale.series_length), self.csv_path)
        table = fl_data.load_csv(self.csv_path)
        split = fl_data.SplitSpec(**FORECAST_SPLIT)
        normalized, _ = fl_data.fit_apply_zscore(table, split)
        cfg = self.scale.forecast_model
        test = fl_data.make_windows(normalized, cfg["L"], cfg["H"], split)["test"]
        fl_model.save_checkpoint(fl_model.FreqLens(fl_model.ModelConfig(**cfg, seed=seed)), self.checkpoint_path, seed=seed)
        self.model, _ = fl_model.load_checkpoint(self.checkpoint_path)
        rng = np.random.default_rng([seed, self.windows_per_op])
        picks = rng.integers(0, test.n_windows, size=(self.scale.request_pool, self.windows_per_op))
        self.requests = [(test.inputs[p], test.targets[p]) for p in picks]
        _first_forward(self.model, test.inputs)

    def op(self, i):
        x, y = self.requests[i % len(self.requests)]
        out = self.model.forward(x, training=False)
        report = self.model.attribute(out)
        metrics = fl_stats.compute_metrics(out.y_hat.data, y)
        return out, report, metrics

    def check(self, result):
        out, report, metrics = result
        alpha = float(out.alpha.data)
        fused = alpha * out.y_freq.data + (1.0 - alpha) * out.y_res.data
        dev = float(np.abs(out.y_hat.data - fused).max())
        if not dev <= TOL:
            return f"y_hat differs from alpha*y_freq + (1-alpha)*y_res by {dev}"
        dev = float(np.abs(report.contributions.sum(axis=1) - report.y_freq).max())
        if not dev <= TOL:
            return f"contributions differ from y_freq by {dev}"
        if not math.isfinite(metrics.mse):
            return f"non-finite mse {metrics.mse}"
        return None

    def cleanup(self):
        self.csv_path.unlink(missing_ok=True)
        self.checkpoint_path.unlink(missing_ok=True)


class _Explain(Workload):
    """Random paper-default model on seven-channel windows; the axioms hold for any weights."""

    def _windows(self) -> int:
        raise NotImplementedError

    def setup(self, seed):
        cfg = self.scale.explain_model
        self.model = fl_model.FreqLens(fl_model.ModelConfig(**cfg, seed=seed))
        c = self.model.config
        split = fl_data.SplitSpec(train=1.0, val=0.0, test=0.0)
        normalized, _ = fl_data.fit_apply_zscore(seeded_channels_table(seed, self.scale.explain_length, c.C), split)
        windows = fl_data.make_windows(normalized, c.L, c.H, split)["train"]
        self.windows_per_op = self._windows()
        rng = np.random.default_rng(seed)
        picks = rng.integers(0, windows.n_windows, size=(self.scale.request_pool, self.windows_per_op))
        self.requests = [windows.inputs[p] for p in picks]
        _first_forward(self.model, windows.inputs)


class Faithfulness(_Explain):
    def _windows(self):
        return self.scale.faithfulness_windows

    def op(self, i):
        x = self.requests[i % len(self.requests)]
        return fl_interpret.faithfulness_test(self.model, x, K_LIST, max_samples=x.shape[0])

    def check(self, result):
        expected = sorted({min(k, self.model.config.K) for k in K_LIST})
        if [r.k for r in result] != expected:
            return f"faithfulness returned k={[r.k for r in result]}, expected {expected}"
        for r in result:
            if not abs(r.attribution_impact_correlation - 1.0) <= TOL:
                return f"k={r.k}: attribution/impact correlation {r.attribution_impact_correlation}"
            if r.n_samples != self.windows_per_op or not math.isfinite(r.mean_abs_change):
                return f"k={r.k}: bad result {r}"
        return None


class Axioms(_Explain):
    def _windows(self):
        return self.scale.axiom_windows

    def op(self, i):
        return fl_interpret.verify_axioms(self.model, self.requests[i % len(self.requests)], tol=TOL)

    def check(self, result):
        expected = {"completeness", "faithfulness", "null_frequency", "symmetry", "shapley_equivalence"}
        if not expected <= set(result):
            return f"verify_axioms returned checks {sorted(result)}"
        failed = {name: c.max_deviation for name, c in result.items() if not c.passed}
        return f"axiom checks failed: {failed}" if failed else None


WORKLOADS = {
    "train": Train,
    "serve_b1": lambda scale, workdir: Serve(scale, workdir, 1),
    "serve_b32": lambda scale, workdir: Serve(scale, workdir, 32),
    "serve_b256": lambda scale, workdir: Serve(scale, workdir, 256),
    "faithfulness": Faithfulness,
    "axioms": Axioms,
}
