"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Run ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  The training-based criteria share fixtures: the
two-cosine synthetic runs serve frequency discovery, the diversity
gap check, the forecast floor, faithfulness, and the fixed-prior
comparison; the trended variant serves the residual-path ablation.
"""

import json
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from freqlens.autodiff import Tensor, backward, finite_difference
from freqlens.cli import main as cli_main
from freqlens.data import SplitSpec, fit_apply_zscore, make_windows, synth_series
from freqlens.interpret import (
    fft_peak_detection,
    match_known_periods,
    per_frequency_impacts,
    verify_axioms,
)
from freqlens.model import FreqLens, ModelConfig
from freqlens.stats import paired_ttest, student_t_two_sided_p
from freqlens.training import LossWeights, TrainConfig, evaluate_mse, total_loss, train

SEEDS = (42, 123, 456)


def verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}{suffix}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared experiment fixtures
# ---------------------------------------------------------------------------

def two_cosine_windows(seed: int, trend: float = 0.0):
    """cos(2 pi t/24) + 0.5 cos(2 pi t/12) + N(0, 0.1), z-scored 70/10/20."""
    table = synth_series(
        [(24.0, 1.0, 0.0), (12.0, 0.5, 0.0)],
        trend_slope=trend,
        noise_std=0.1,
        length=2000,
        seed=seed,
    )
    split = SplitSpec(train=0.7, val=0.1, test=0.2)
    normalized, _ = fit_apply_zscore(table, split)
    return make_windows(normalized, L=96, H=24, split=split)


def discovery_train_config(seed: int) -> TrainConfig:
    # 12 epochs x 41 batches = 492 optimizer steps
    return TrainConfig(
        epochs=12, patience=100, seed=seed, base_lr=3e-3, batch_size=32, freq_lr_multiplier=5 / 3
    )


DISCOVERY_WEIGHTS = LossWeights(lambda_div=0.01, lambda_recon=1.0)


@dataclass
class Run:
    seed: int
    model: FreqLens
    test_mse: float
    test_inputs: np.ndarray
    test_target_var: float


def train_two_cosine(seed: int, trend: float = 0.0, force_alpha=None, fixed_prior: bool = False) -> Run:
    windows = two_cosine_windows(seed, trend)
    if fixed_prior:
        config = ModelConfig(L=96, H=24, C=1, d=32, N=2, K=2, seed=seed, prior_periods=(24.0, 12.0))
    else:
        config = ModelConfig(L=96, H=24, C=1, d=32, N=16, K=4, seed=seed, force_alpha=force_alpha)
    model = FreqLens(config)
    model, _ = train(model, windows["train"], windows["val"], discovery_train_config(seed), DISCOVERY_WEIGHTS)
    test = windows["test"]
    mse = evaluate_mse(model, (test.inputs, test.targets))
    return Run(seed, model, mse, test.inputs, float(test.targets.var()))


@pytest.fixture(scope="module")
def discovery_runs():
    start = time.monotonic()
    runs = [train_two_cosine(seed) for seed in SEEDS]
    return runs, time.monotonic() - start


@pytest.fixture(scope="module")
def trend_runs():
    full = [train_two_cosine(seed, trend=0.01) for seed in SEEDS]
    freq_only = [train_two_cosine(seed, trend=0.01, force_alpha=1.0) for seed in SEEDS]
    return full, freq_only


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_axiom_suite():
    start = time.monotonic()
    rng = np.random.default_rng(1)
    worst = {"completeness": 0.0, "faithfulness": 0.0, "null_frequency": 0.0,
             "symmetry": 0.0, "shapley_equivalence": 0.0}
    ok = True
    for trial in range(100):
        config = ModelConfig(L=16, H=8, C=2, d=8, N=8, K=4, seed=int(rng.integers(0, 2**31)))
        model = FreqLens(config)
        checks = verify_axioms(model, rng.normal(size=(2, 16, 2)), tol=1e-9)
        for name, check in checks.items():
            worst[name] = max(worst[name], check.max_deviation)
            ok = ok and check.passed
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    verdict(1, "axiom suite on 100 random-weight models", ok,
            f"worst deviations {({k: f'{v:.1e}' for k, v in worst.items()})}, {elapsed:.1f}s")


def test_criterion_02_gradient_correctness():
    start = time.monotonic()
    config = ModelConfig(L=8, H=4, C=1, d=4, N=4, K=2, seed=3)
    model = FreqLens(config)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 8, 1))
    y = rng.normal(size=(2, 4, 1))
    weights = LossWeights()

    def loss_value() -> float:
        out = model.forward(x, training=False)
        loss, _ = total_loss(model, out, y, weights)
        return float(loss.data)

    out = model.forward(x, training=False)
    loss, _ = total_loss(model, out, y, weights)
    grads = backward(loss)
    names = [name for name, _ in model.parameters()]
    params = [p for _, p in model.parameters()]
    numeric = finite_difference(loss_value, params, eps=1e-5)
    worst = 0.0
    worst_name = ""
    for name, p, fd in zip(names, params, numeric):
        analytic = grads.get(p.node_id, np.zeros_like(p.data))
        rel = np.abs(analytic - fd) / np.maximum(1.0, np.abs(analytic))
        if rel.max() > worst:
            worst, worst_name = float(rel.max()), name
    elapsed = time.monotonic() - start
    n_params = sum(p.size for p in params)
    ok = worst < 1e-3 and elapsed < 30.0
    verdict(2, "full-loss gradient vs central differences", ok,
            f"{n_params} parameters, worst {worst:.2e} at {worst_name}, {elapsed:.1f}s")


def test_criterion_03_synthetic_frequency_discovery(discovery_runs):
    runs, elapsed = discovery_runs
    matched_seeds = 0
    details = []
    for run in runs:
        periods = 1.0 / run.model.bank.frequencies().data
        m24 = match_known_periods(periods, [24.0], delta=0.05)[0]
        m12 = match_known_periods(periods, [12.0], delta=0.05)[0]
        if m24.matched and m12.matched:
            matched_seeds += 1
        details.append(f"seed {run.seed}: {m24.learned_period:.2f}/{m12.learned_period:.2f}")
    ok = matched_seeds >= 2 and elapsed < 300.0
    verdict(3, "synthetic frequency discovery (24 and 12 steps within 5%)", ok,
            f"{matched_seeds}/3 seeds, {'; '.join(details)}, {elapsed:.0f}s")


def test_criterion_04_fft_baseline_parity():
    start = time.monotonic()
    # noiseless two-cosine signal over whole cycles of both periods
    t = np.arange(1992)  # 83 * 24 = 166 * 12
    x = np.cos(2 * np.pi * t / 24) + 0.5 * np.cos(2 * np.pi * t / 12)
    periods = fft_peak_detection(x, top_k=2)
    elapsed = time.monotonic() - start
    ok = sorted(periods) == [12.0, 24.0] and elapsed < 1.0
    verdict(4, "FFT baseline recovers {24, 12} exactly", ok, f"got {sorted(periods)}, {elapsed:.2f}s")


def test_criterion_05_diversity_regularization(discovery_runs):
    """The trained log-gaps clear ln(1.01), and the gap barrier is ratio-invariant.

    This reads the spacing the recipe learns, not what the barrier adds:
    trained with ``lambda_div = 0`` its minimum log-gaps (0.179-0.182)
    clear ln(1.01) as well.  The barrier's own test is
    ``tests/test_training.py::TestCollapsePrevention``, on a series that
    collapses without it.
    """
    runs, _ = discovery_runs
    min_gaps = []
    for run in runs:
        freqs = np.sort(run.model.bank.frequencies().data)
        min_gaps.append(float(np.min(np.diff(np.log(freqs)))))
    gaps_ok = all(g > math.log(1.01) for g in min_gaps)

    from freqlens.training import diversity_loss

    a = diversity_loss(Tensor([0.01, 0.02])).item()
    b = diversity_loss(Tensor([0.1, 0.2])).item()
    invariance_ok = abs(a - b) < 1e-12
    ok = gaps_ok and invariance_ok
    verdict(5, "diversity keeps log-gaps above ln(1.01); ratio invariance", ok,
            f"min gaps {[f'{g:.3f}' for g in min_gaps]}, invariance dev {abs(a - b):.1e}; "
            "the barrier's own test is tests/test_training.py::TestCollapsePrevention")


def test_criterion_06_residual_path_necessity(trend_runs):
    full, freq_only = trend_runs
    ratios = [fo.test_mse / fu.test_mse for fu, fo in zip(full, freq_only)]
    ok = all(r >= 2.0 for r in ratios)
    verdict(6, "residual path halves trended-test MSE (all seeds)", ok,
            "ratios " + ", ".join(f"{r:.1f}x" for r in ratios))


def test_criterion_07_forecast_quality_floor(discovery_runs):
    runs, _ = discovery_runs
    ok = all(run.test_mse < 0.1 * run.test_target_var for run in runs)
    detail = ", ".join(f"seed {r.seed}: {r.test_mse:.4f} vs 0.1*{r.test_target_var:.3f}" for r in runs)
    verdict(7, "test MSE beats the mean predictor 10x (all seeds)", ok, detail)


def test_criterion_08_faithfulness_exactness(discovery_runs):
    runs, _ = discovery_runs
    run = runs[0]
    mags, impacts, alpha = per_frequency_impacts(run.model, run.test_inputs, max_samples=16)
    exact_dev = float(np.abs(impacts - alpha * mags).max())
    distinct = np.unique(np.round(mags, 12)).size > 1
    corr = float(np.corrcoef(mags.ravel(), impacts.ravel())[0, 1]) if distinct else 1.0
    ok = exact_dev < 1e-9 and abs(corr - 1.0) < 1e-9
    verdict(8, "removal impact equals gate*attribution; correlation 1", ok,
            f"max dev {exact_dev:.1e}, correlation {corr:.12f}")


def test_criterion_09_statistics_module():
    def t_density(x, dof):
        coef = math.gamma((dof + 1) / 2) / (math.sqrt(dof * math.pi) * math.gamma(dof / 2))
        return coef * (1.0 + x * x / dof) ** (-(dof + 1) / 2)

    def quadrature_p(t, dof, n=40_001):
        if t == 0:
            return 1.0
        xs = np.linspace(0.0, abs(t), n)
        fx = np.array([t_density(x, dof) for x in xs])
        h = xs[1] - xs[0]
        integral = h / 3.0 * (fx[0] + fx[-1] + 4 * fx[1:-1:2].sum() + 2 * fx[2:-2:2].sum())
        return 1.0 - 2.0 * integral

    worst = 0.0
    for dof in (2, 4, 9):
        for t in (0.0, 0.4, 1.1, 2.3, 3.8):
            worst = max(worst, abs(student_t_two_sided_p(t, dof) - quadrature_p(t, dof)))
    identical = paired_ttest([0.3, 0.7, 1.1], [0.3, 0.7, 1.1])
    ok = worst < 1e-6 and identical.p_value == 1.0 and identical.t_stat == 0.0
    verdict(9, "t-test p-values match quadrature; identical input p=1", ok,
            f"worst quadrature gap {worst:.1e}")


def test_criterion_10_determinism(tmp_path):
    config = {
        "dataset": str(tmp_path / "synthetic.csv"),
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
        "seeds": [9],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert cli_main(["synth", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    outputs = []
    for run_dir in ("run1", "run2"):
        assert cli_main(["train", "--config", str(cfg_path), "--out", str(tmp_path / run_dir)]) == 0
        outputs.append(
            (
                (tmp_path / run_dir / "checkpoint-9.ckpt").read_bytes(),
                (tmp_path / run_dir / "trainlog-9.jsonl").read_bytes(),
            )
        )
    ok = outputs[0][0] == outputs[1][0] and outputs[0][1] == outputs[1][1]
    verdict(10, "repeated training is bit-identical (checkpoint and log)", ok,
            f"checkpoint {len(outputs[0][0])} bytes, log {len(outputs[0][1])} bytes")


def test_criterion_11_parameter_count_audit():
    model = FreqLens(ModelConfig())  # L=96, H=96, C=7, d=64, N=32, K=8
    counts = model.parameter_counts()
    expected = {
        "input_proj": 448,
        "frequency_bank": 64,
        "heads": 376_832,
        "residual": 86_016,
        "fusion": 1,
    }
    ok = all(counts[k] == v for k, v in expected.items())
    # the scorer is the shared 64->32->1 MLP (2,080 weights) plus one
    # offset per basis; the offsets account for the extra 32 parameters
    ok = ok and counts["scorer"] == 2_112 and counts["scorer"] - 32 == 2_080
    verdict(11, "parameter counts at defaults", ok,
            ", ".join(f"{k}={counts[k]}" for k in list(expected) + ["scorer"]))


def test_criterion_12_fixed_prior_mode(discovery_runs):
    runs, _ = discovery_runs
    wins = 0
    details = []
    for run in runs:
        prior = train_two_cosine(run.seed, fixed_prior=True)
        if prior.test_mse <= run.test_mse:
            wins += 1
        details.append(f"seed {run.seed}: {prior.test_mse:.4f} vs {run.test_mse:.4f}")
    ok = wins >= 2
    verdict(12, "fixed-prior {24, 12} matches or beats learnable (2 of 3 seeds)", ok,
            f"{wins}/3 wins, {'; '.join(details)}")
