"""Loss, optimizer, schedule, and training-loop tests."""

import json
import math
import re
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from freqlens import model as model_module
from freqlens import training as training_module
from freqlens.autodiff import Tensor, backward, check_gradients, finite_difference
from freqlens.model import FreqLens, ModelConfig
from freqlens.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    DIVERSITY_EPSILON,
    Adam,
    EpochRecord,
    LossWeights,
    TrainConfig,
    TrainLog,
    diversity_loss,
    evaluate_mse,
    orthogonality_loss,
    schedules,
    total_loss,
    train,
)
from freqlens.data import SplitSpec, fit_apply_zscore, make_windows, synth_series


def tiny_model(**overrides):
    base = dict(L=8, H=4, C=1, d=4, N=4, K=2, seed=0)
    base.update(overrides)
    return FreqLens(ModelConfig(**base))


def windows_from_synth(components, T=400, L=48, H=8, seed=0, noise=0.05, trend=0.0):
    table = synth_series(components, trend_slope=trend, noise_std=noise, length=T, seed=seed)
    split = SplitSpec(train=0.7, val=0.1, test=0.2)
    normalized, _ = fit_apply_zscore(table, split)
    return make_windows(normalized, L, H, split)


def count_builds(monkeypatch) -> list:
    """A list that grows by one on each ``build_bases`` call the model makes."""
    calls = []
    real = model_module.build_bases

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(model_module, "build_bases", counting)
    return calls


def assert_loss_gradients_match_finite_differences(model, x, y):
    def loss_of():
        out = model.forward(x)
        return total_loss(model, out, y, LossWeights())[0]

    params = [p for _, p in model.parameters()]
    grads = backward(loss_of())
    numeric = finite_difference(lambda: loss_of().item(), params, eps=1e-6)
    for (name, p), fd in zip(model.parameters(), numeric):
        analytic = grads.get(p.node_id, np.zeros_like(p.data))
        np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-8, err_msg=name)


class TestDiversityLoss:
    def test_direct_evaluation(self):
        loss = diversity_loss(Tensor([0.01, 0.1]))
        expected = -math.log(math.log(10.0) + DIVERSITY_EPSILON)
        assert loss.item() == pytest.approx(expected, abs=1e-12)
        assert loss.item() == pytest.approx(-0.834032, abs=1e-6)

    def test_ratio_invariance(self):
        a = diversity_loss(Tensor([0.01, 0.02])).item()
        b = diversity_loss(Tensor([0.1, 0.2])).item()
        assert abs(a - b) < 1e-12

    def test_duplicate_frequencies_hit_the_barrier(self):
        loss = diversity_loss(Tensor([0.1, 0.1]))
        assert loss.item() == pytest.approx(-math.log(DIVERSITY_EPSILON), rel=1e-12)
        assert loss.item() == pytest.approx(13.8155, abs=1e-4)

    def test_unsorted_input_is_sorted_internally(self):
        a = diversity_loss(Tensor([0.3, 0.01, 0.07])).item()
        b = diversity_loss(Tensor([0.01, 0.07, 0.3])).item()
        assert a == b

    def test_needs_two_frequencies(self):
        with pytest.raises(ValueError, match="two"):
            diversity_loss(Tensor([0.1]))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            diversity_loss(Tensor([0.1, -0.2]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="positive"):
            diversity_loss(Tensor([0.1, float("nan")]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        point = Tensor(rng.uniform(0.01, 0.49, size=4))
        err = check_gradients(lambda t: diversity_loss(t), point, eps=1e-7)
        assert err < 1e-4

    def test_interior_frequency_moving_to_log_midpoint_decreases_loss(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            lo, hi = np.sort(rng.uniform(0.005, 0.49, size=2))
            if hi / lo < 1.05:
                continue
            mid = math.sqrt(lo * hi)  # log midpoint
            off = math.exp(0.6 * math.log(lo) + 0.4 * math.log(hi))  # interior, off-center
            at_mid = diversity_loss(Tensor([lo, mid, hi])).item()
            at_off = diversity_loss(Tensor([lo, off, hi])).item()
            assert at_mid < at_off


class TestOrthogonalityLoss:
    def test_orthogonal_rows_zero(self):
        loss = orthogonality_loss(Tensor(np.eye(3) * 2.5))
        assert loss.item() == pytest.approx(0.0, abs=1e-15)

    def test_identical_rows(self):
        loss = orthogonality_loss(Tensor([[1.0, 2.0], [1.0, 2.0]]))
        assert loss.item() == pytest.approx(0.5, rel=1e-12)

    def test_single_row_zero(self):
        assert orthogonality_loss(Tensor([[3.0, 4.0]])).item() == pytest.approx(0.0, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        point = Tensor(rng.normal(size=(3, 4)))
        assert check_gradients(lambda t: orthogonality_loss(t), point) < 1e-4


class TestTotalLoss:
    def test_all_lambdas_zero_reduces_to_mse(self):
        model = tiny_model()
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 8, 1))
        y = rng.normal(size=(2, 4, 1))
        out = model.forward(x)
        weights = LossWeights(lambda_div=0, lambda_recon=0)
        loss, comps = total_loss(model, out, y, weights)
        mse = float(((out.y_hat.data - y) ** 2).mean())
        assert loss.item() == pytest.approx(mse, rel=1e-15)
        assert comps["pred"] == pytest.approx(mse, rel=1e-15)

    def test_perfect_prediction_leaves_only_regularizers(self):
        model = tiny_model(N=1, K=1)
        x = np.random.default_rng(5).normal(size=(2, 8, 1))
        out = model.forward(x)
        y = np.array(out.y_hat.data)  # exact target
        weights = LossWeights()
        loss, comps = total_loss(model, out, y, weights)
        assert comps["pred"] == 0.0
        assert comps["div"] == 0.0  # single basis: no gaps
        expected = weights.lambda_recon * comps["recon"]
        assert loss.item() == pytest.approx(expected, rel=1e-12)

    def test_fixed_prior_uses_orthogonality(self):
        cfg = ModelConfig(L=8, H=4, C=1, d=4, N=2, K=2, prior_periods=(4, 8))
        model = FreqLens(cfg)
        x = np.random.default_rng(6).normal(size=(2, 8, 1))
        out = model.forward(x)
        _, comps = total_loss(model, out, np.zeros((2, 4, 1)), LossWeights())
        features = out.input_coefficients.data.mean(axis=0) @ model.input_proj.data
        expected = orthogonality_loss(Tensor(features)).item()
        assert comps["div"] == pytest.approx(expected, rel=1e-12)

    def test_recon_term_matches_numpy(self):
        # C=3: the Gram form of the loss mixes channels through W W^T
        for channels in (1, 3):
            model = tiny_model(C=channels)
            x = np.random.default_rng(7).normal(size=(3, 8, channels))
            out = model.forward(x)
            _, comps = total_loss(model, out, np.zeros((3, 4, channels)), LossWeights())
            psi_bar, c = out.bases.data, out.input_coefficients.data @ model.input_proj.data
            hidden = x @ model.input_proj.data
            expected = float(np.mean((psi_bar.T @ c - hidden) ** 2))
            assert comps["recon"] == pytest.approx(expected, rel=1e-12)

    def test_gradients_match_finite_differences_multichannel(self):
        # the reconstruction term mixes channels through W W^T; criterion 02 covers C=1 only
        model = tiny_model(C=3, d=5, seed=4)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 8, 3))
        y = rng.normal(size=(2, 4, 3))
        assert_loss_gradients_match_finite_differences(model, x, y)

    @pytest.mark.parametrize("batch,channels", [(1, 1), (5, 1), (1, 3), (5, 3)])
    def test_gradients_match_finite_differences_at_edge_batches(self, batch, channels):
        # B = 1, and B = 5 as in the last batch of 37 windows at batch size 32:
        # the batch-folded weight gradients at their smallest and ragged shapes
        model = tiny_model(C=channels, d=5, seed=5)
        rng = np.random.default_rng(9)
        x = rng.normal(size=(batch, 8, channels))
        y = rng.normal(size=(batch, 4, channels))
        assert_loss_gradients_match_finite_differences(model, x, y)


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = Adam([("p", p)])
        before = p.data.copy()
        for _ in range(5):
            opt.step({}, lr=1e-3)
        np.testing.assert_array_equal(p.data, before)

    def test_first_step_closed_form(self):
        # constant unit gradient: bias-corrected m/sqrt(v) = 1, update = -lr
        p = Tensor(np.array(0.0), requires_grad=True)
        opt = Adam([("p", p)])
        opt.step({p.node_id: np.array(1.0)}, lr=1e-3)
        assert p.data == pytest.approx(-1e-3, rel=1e-6)

    def test_frequency_group_gets_5x_step(self):
        a = Tensor(np.array(0.0), requires_grad=True)
        b = Tensor(np.array(0.0), requires_grad=True)
        opt = Adam(
            [("bank.theta", a), ("other", b)],
            freq_param_names=frozenset({"bank.theta"}),
            freq_lr_multiplier=5.0,
        )
        for _ in range(3):
            opt.step({a.node_id: np.array(1.0), b.node_id: np.array(1.0)}, lr=1e-3)
        assert float(a.data) == pytest.approx(5.0 * float(b.data), rel=1e-12)

    def test_nan_gradient_names_parameter(self):
        p = Tensor(np.array(0.0), requires_grad=True)
        opt = Adam([("scorer.w1", p)])
        with pytest.raises(ValueError, match="scorer.w1"):
            opt.step({p.node_id: np.array(float("nan"))}, lr=1e-3)

    def test_nan_gradient_on_last_parameter_changes_nothing(self):
        a = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        b = Tensor(np.array(3.0), requires_grad=True)
        opt = Adam([("first", a), ("last", b)])
        opt.step({a.node_id: np.array([0.5, 0.5]), b.node_id: np.array(1.0)}, lr=1e-3)
        data = {"first": a.data.copy(), "last": b.data.copy()}
        m, v = opt.m.copy(), opt.v.copy()  # packed moments, one vector each
        t = opt.t
        bad = {a.node_id: np.array([0.5, 0.5]), b.node_id: np.array(float("nan"))}
        with pytest.raises(ValueError, match="'last'"):
            opt.step(bad, lr=1e-3)
        assert opt.t == t
        for name, p in (("first", a), ("last", b)):
            np.testing.assert_array_equal(p.data, data[name])
        np.testing.assert_array_equal(opt.m, m)
        np.testing.assert_array_equal(opt.v, v)

    def test_matches_per_tensor_reference_bytewise(self):
        shapes = {"bank.theta": (5,), "w": (3, 4), "bias": (4,), "fusion_logit": ()}
        rng = np.random.default_rng(21)
        init = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        packed = {name: Tensor(value.copy(), requires_grad=True) for name, value in init.items()}
        plain = {name: Tensor(value.copy(), requires_grad=True) for name, value in init.items()}
        freq = frozenset({"bank.theta"})
        opt = Adam(packed.items(), freq_param_names=freq, freq_lr_multiplier=5 / 3)
        ref = PerTensorAdam(plain.items(), freq_param_names=freq, freq_lr_multiplier=5 / 3)
        for step in range(20):
            draws = {name: rng.normal(size=shape) * 10.0 ** rng.integers(-3, 3) for name, shape in shapes.items()}
            if step % 3 == 0:
                del draws["bias"]  # a missing gradient counts as zero
            lr = 1e-3 * (1.0 + math.cos(math.pi * step / 19))
            opt.step({packed[n].node_id: g for n, g in draws.items()}, lr)
            ref.step({plain[n].node_id: g for n, g in draws.items()}, lr)
            for (name, p), sl in zip(opt.params, opt.slices):
                assert p.data.tobytes() == plain[name].data.tobytes(), (step, name)
                assert opt.m[sl].tobytes() == ref.m[name].tobytes(), (step, name)
                assert opt.v[sl].tobytes() == ref.v[name].tobytes(), (step, name)

    def test_step_allocates_no_parameter_sized_temporary(self):
        # the update runs in two scratch vectors the optimizer owns; what a
        # step still allocates is the finiteness check's bool mask (1 byte a
        # parameter) and small objects, far below one float64 vector
        model = FreqLens(ModelConfig(L=96, H=24, C=1, d=32, N=16, K=4, seed=0))
        opt = Adam(model.parameters(), FreqLens.frequency_parameter_names())
        rng = np.random.default_rng(0)
        grads = {p.node_id: rng.normal(size=p.shape) for _, p in model.parameters()}
        opt.step(grads, lr=1e-3)  # warm-up
        tracemalloc.start()
        try:
            opt.step(grads, lr=1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * opt.flat.size, peak

    def test_rebound_parameter_is_refused(self):
        a = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        b = Tensor(np.array(3.0), requires_grad=True)
        opt = Adam([("first", a), ("last", b)])
        b.data = np.array(4.0)  # no longer a view of the packed vector
        with pytest.raises(ValueError, match="'last'") as info:
            opt.step({a.node_id: np.array([0.5, 0.5]), b.node_id: np.array(1.0)}, lr=1e-3)
        assert "rebound" in str(info.value)
        assert opt.t == 0
        np.testing.assert_array_equal(a.data, [1.0, -2.0])

    def test_load_state_dict_writes_into_packed_views(self):
        model = tiny_model()
        opt = Adam(model.parameters())
        state = model.state_dict()
        views = [p.data for _, p in model.parameters()]
        opt.step({p.node_id: np.ones(p.shape) for _, p in model.parameters()}, lr=1e-2)
        assert model.state_dict()["heads.w1"].tobytes() != state["heads.w1"].tobytes()
        model.load_state_dict(state)
        for (name, p), view in zip(model.parameters(), views):
            assert p.data is view, name
            assert p.data.tobytes() == state[name].tobytes(), name
        opt.step({}, lr=1e-3)  # the restored parameters are still the packed ones

    def test_load_state_dict_checks_every_shape_before_writing(self):
        model = tiny_model()
        before = model.state_dict()
        bad = {name: value + 1.0 for name, value in before.items()}
        bad["residual.w2"] = np.zeros((1, 1))
        with pytest.raises(ValueError, match="residual.w2"):
            model.load_state_dict(bad)
        for name, value in model.state_dict().items():
            assert value.tobytes() == before[name].tobytes(), name


class PerTensorAdam:
    """The per-tensor Adam update the packed optimizer replaced, kept as an oracle."""

    def __init__(self, named_params, freq_param_names=frozenset(), freq_lr_multiplier=5.0):
        self.params = list(named_params)
        self.freq_param_names = freq_param_names
        self.freq_lr_multiplier = freq_lr_multiplier
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.params}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params}

    def step(self, grads, lr):
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        for name, p in self.params:
            g = grads.get(p.node_id)
            g = np.zeros_like(p.data) if g is None else g
            m = self.m[name] = ADAM_BETA1 * self.m[name] + (1.0 - ADAM_BETA1) * g
            v = self.v[name] = ADAM_BETA2 * self.v[name] + (1.0 - ADAM_BETA2) * (g * g)
            step_lr = lr * self.freq_lr_multiplier if name in self.freq_param_names else lr
            p.data = p.data - step_lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


class TestSchedules:
    def test_first_epoch(self):
        lr, tau = schedules(0, 50, TrainConfig())
        assert lr == pytest.approx(1e-3)
        assert tau == pytest.approx(1.0)

    def test_final_epoch(self):
        lr, tau = schedules(49, 50, TrainConfig())
        assert lr == pytest.approx(0.0, abs=1e-18)
        assert tau == pytest.approx(0.1)

    def test_midpoint_half_lr(self):
        lr, _ = schedules(2, 5, TrainConfig())
        assert lr == pytest.approx(0.5e-3)

    def test_single_epoch_run_uses_start_values(self):
        lr, tau = schedules(0, 1, TrainConfig())
        assert (lr, tau) == (1e-3, 1.0)

    def test_epoch_range_validated(self):
        with pytest.raises(ValueError):
            schedules(5, 5, TrainConfig())


class TestTrainConfigValidation:
    """Values that would break training late or silently are rejected when the config is built."""

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("tau_start", 0.0, "tau_start must be positive"),
            ("tau_start", -1.0, "tau_start must be positive"),
            ("tau_end", 0.0, "tau_end must be positive"),
            ("tau_end", math.nan, "tau_end must be positive"),
            ("base_lr", -1e-3, "base_lr must be nonnegative"),
            ("freq_lr_multiplier", -5.0, "freq_lr_multiplier must be nonnegative"),
        ],
    )
    def test_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**{field: value})

    def test_zero_learning_rates_accepted(self):
        assert TrainConfig(base_lr=0.0, freq_lr_multiplier=0.0).base_lr == 0.0

    @pytest.mark.parametrize("seed", [True, -1, 1.5, 2**70], ids=["bool", "negative", "float", "huge"])
    def test_seed_must_be_a_nonnegative_int64(self, seed):
        # the rule ModelConfig and checkpoints apply, so train never reaches SeedSequence with it
        with pytest.raises(ValueError, match=re.escape(f"seed must be a nonnegative int64, got {seed!r}")):
            TrainConfig(seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**63 - 1, np.int64(7)])
    def test_int64_seeds_accepted(self, seed):
        assert TrainConfig(seed=seed).seed == seed


@pytest.mark.parametrize("value", [True, 2.0], ids=["bool", "float"])
@pytest.mark.parametrize(
    "cls,field",
    [(ModelConfig, name) for name in ("L", "H", "C", "d", "N", "K")]
    + [(TrainConfig, name) for name in ("epochs", "batch_size", "patience")],
)
def test_sizes_and_counts_must_be_integers(cls, field, value):
    # a float or bool once constructed, then failed in FreqLens or train, or (epochs=True) trained one epoch
    with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer, got {value!r}")):
        cls(**{field: value})


class TestLossWeightsValidation:
    @pytest.mark.parametrize("field", ["lambda_div", "lambda_recon"])
    @pytest.mark.parametrize("value", [-1e-3, math.nan], ids=["negative", "nan"])
    def test_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be nonnegative"):
            LossWeights(**{field: value})

    def test_zero_weights_accepted(self):
        assert LossWeights(lambda_div=0.0, lambda_recon=0.0).lambda_div == 0.0


class TestTrainLoop:
    def make_data(self, seed=0):
        windows = windows_from_synth([(24, 1.0, 0.0)], T=300, L=24, H=4, seed=seed)
        return windows["train"], windows["val"]

    def test_deterministic_given_seed(self):
        tr, va = self.make_data()
        cfg = TrainConfig(epochs=3, seed=11, batch_size=16)
        runs = []
        for _ in range(2):
            model = FreqLens(ModelConfig(L=24, H=4, C=1, d=8, N=4, K=2, seed=11))
            trained, log = train(model, tr, va, cfg)
            runs.append((trained.state_dict(), log.to_jsonl()))
        assert runs[0][1] == runs[1][1]
        for name in runs[0][0]:
            np.testing.assert_array_equal(runs[0][0][name], runs[1][0][name])

    def test_one_record_per_epoch(self):
        tr, va = self.make_data()
        model = FreqLens(ModelConfig(L=24, H=4, C=1, d=8, N=4, K=2, seed=0))
        _, log = train(model, tr, va, TrainConfig(epochs=4, seed=0, batch_size=32))
        assert [r.epoch for r in log.records] == [0, 1, 2, 3]

    def test_single_epoch_yields_single_record(self):
        tr, va = self.make_data()
        model = FreqLens(ModelConfig(L=24, H=4, C=1, d=8, N=4, K=2, seed=0))
        _, log = train(model, tr, va, TrainConfig(epochs=1, seed=0))
        assert len(log.records) == 1

    def test_training_reduces_loss(self):
        tr, va = self.make_data()
        model = FreqLens(ModelConfig(L=24, H=4, C=1, d=8, N=8, K=4, seed=1))
        _, log = train(model, tr, va, TrainConfig(epochs=8, seed=1, base_lr=3e-3))
        assert log.records[-1].loss_pred < log.records[0].loss_pred

    def test_best_checkpoint_never_worse_than_any_logged_epoch(self):
        tr, va = self.make_data(seed=3)
        model = FreqLens(ModelConfig(L=24, H=4, C=1, d=8, N=4, K=2, seed=3))
        trained, log = train(model, tr, va, TrainConfig(epochs=6, seed=3, base_lr=5e-3))
        restored = evaluate_mse(trained, (va.inputs, va.targets))
        best_logged = min(r.val_mse for r in log.records)
        assert restored == best_logged

    def test_patience_one_with_worsening_validation_stops_after_two_epochs(self):
        # validation targets are anti-correlated with training targets, so
        # every step that helps training hurts validation monotonically
        rng = np.random.default_rng(9)
        x_tr = rng.normal(size=(64, 8, 1))
        y_tr = np.full((64, 4, 1), 5.0)
        x_va = rng.normal(size=(16, 8, 1))
        y_va = np.full((16, 4, 1), -5.0)
        model = tiny_model(seed=9)
        cfg = TrainConfig(epochs=10, patience=1, seed=9, base_lr=5e-3)
        trained, log = train(model, (x_tr, y_tr), (x_va, y_va), cfg)
        assert len(log.records) == 2
        restored = evaluate_mse(trained, (x_va, y_va))
        assert restored == log.records[0].val_mse
        # the best snapshot is written into the optimizer's packed vector, not rebound
        packed = {id(p.data.base) for _, p in trained.parameters()}
        assert len(packed) == 1 and trained.head_w1.data.base is not None

    def test_nonfinite_loss_aborts_with_diagnostics(self):
        tr, va = self.make_data()
        model = FreqLens(ModelConfig(L=24, H=4, C=1, d=8, N=4, K=2, seed=5))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError, match="non-finite loss at epoch"):
                train(model, tr, va, TrainConfig(epochs=3, seed=5, base_lr=1e150))

    def test_frequencies_move_during_training(self):
        tr, va = self.make_data()
        model = FreqLens(ModelConfig(L=24, H=4, C=1, d=8, N=8, K=4, seed=6))
        before = model.bank.frequencies().data.copy()
        train(model, tr, va, TrainConfig(epochs=3, seed=6))
        after = model.bank.frequencies().data
        assert np.max(np.abs(after - before)) > 1e-6

    def test_fixed_prior_frequencies_do_not_move(self):
        tr, va = self.make_data()
        cfg = ModelConfig(L=24, H=4, C=1, d=8, N=2, K=2, prior_periods=(24, 12))
        model = FreqLens(cfg)
        train(model, tr, va, TrainConfig(epochs=3, seed=7))
        np.testing.assert_array_equal(model.bank.frequencies().data, [1 / 24, 1 / 12])

    def test_fixed_prior_run_builds_the_bases_once(self, monkeypatch):
        # the bank never moves, so every step and every validation pass reuses the first pair
        tr, va = self.make_data()
        model = FreqLens(ModelConfig(L=24, H=4, C=1, d=8, N=2, K=2, prior_periods=(24, 12)))
        calls = count_builds(monkeypatch)
        train(model, tr, va, TrainConfig(epochs=3, seed=7))
        assert len(calls) == 1

    def test_zero_lr_final_epoch_builds_no_bases(self, monkeypatch):
        # the cosine schedule ends at lr = 0, so the last epoch leaves the bank's bytes as they were
        tr, va = self.make_data()
        model = FreqLens(ModelConfig(L=24, H=4, C=1, d=8, N=4, K=2, seed=6))
        calls, starts = count_builds(monkeypatch), []
        real = training_module.schedules

        def recording(*args):
            starts.append(len(calls))
            return real(*args)

        monkeypatch.setattr(training_module, "schedules", recording)
        _, log = train(model, tr, va, TrainConfig(epochs=3, seed=6))
        assert log.records[-1].lr == 0.0 and len(starts) == 3
        assert starts[2] - starts[1] > 0  # a moving bank is rebuilt
        assert len(calls) == starts[2]

    @pytest.mark.parametrize(
        "overrides,frozen",
        [
            (dict(N=2, K=2, prior_periods=(24, 12)), ("bank.theta", "bank.phase")),
            (dict(force_alpha=0.3), ("fusion_logit",)),
        ],
        ids=["fixed_prior", "force_alpha"],
    )
    def test_frozen_parameters_keep_their_bytes(self, overrides, frozen):
        # the optimizer packs every parameter; one the loss never reaches
        # gets no gradient, so its Adam update is exactly 0.0
        tr, va = self.make_data()
        model = FreqLens(ModelConfig(**{**dict(L=24, H=4, C=1, d=8, N=4, K=2, seed=8), **overrides}))
        before = model.state_dict()
        trained, _ = train(model, tr, va, TrainConfig(epochs=3, seed=8, base_lr=5e-3))
        after = trained.state_dict()
        for name in frozen:
            assert after[name].tobytes() == before[name].tobytes(), name
        assert after["heads.w1"].tobytes() != before["heads.w1"].tobytes()


class TestTrainLogSerialization:
    def test_jsonl_roundtrip(self, tmp_path):
        log = TrainLog(
            [
                EpochRecord(0, 1.0, 0.1, 0.2, 1.31, 0.9, 1.0, 1e-3, [0.1, 0.2]),
                EpochRecord(1, 0.8, 0.1, 0.2, 1.11, 0.7, 0.9, 9e-4, [0.11, 0.21]),
            ]
        )
        path = tmp_path / "log.jsonl"
        log.save(path)
        lines = path.read_text().splitlines()
        assert [json.loads(line) for line in lines] == [asdict(r) for r in log.records]


class TestCollapsePrevention:
    """The gap barrier keeps learned frequencies apart on collapse-prone data.

    One dominant period attracts several bases; ~200 aggressive steps
    without the barrier drive at least one pair of frequencies within
    1% of each other in some seed, while the barrier holds every
    pairwise log-gap above ln(1.01) in all seeds.
    """

    def run_seed(self, seed, lambda_div):
        # 13 epochs x 16 batches = 208 steps
        windows = windows_from_synth([(24, 1.0, 0.0)], T=800, L=48, H=8, seed=seed, noise=0.02)
        model = FreqLens(ModelConfig(L=48, H=8, C=1, d=8, N=8, K=4, seed=seed))
        cfg = TrainConfig(epochs=13, patience=100, seed=seed, base_lr=0.08, batch_size=32)
        weights = LossWeights(lambda_div=lambda_div)
        train(model, windows["train"], windows["val"], cfg, weights)
        return np.sort(model.bank.frequencies().data)

    @pytest.mark.slow
    def test_barrier_prevents_collapse_across_seeds(self):
        seeds = [0, 1, 2]
        collapsed_without = 0
        for seed in seeds:
            freqs = self.run_seed(seed, lambda_div=0.0)
            rel_gap = np.min(np.diff(freqs) / freqs[:-1])
            if rel_gap < 0.01:
                collapsed_without += 1
        assert collapsed_without >= 1, "expected collapse in at least one unregularized run"
        for seed in seeds:
            freqs = self.run_seed(seed, lambda_div=0.01)
            min_log_gap = float(np.min(np.diff(np.log(freqs))))
            assert min_log_gap > math.log(1.01)
