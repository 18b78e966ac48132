"""Model tests: frequency bank, bases, projection, selection, axioms."""

import io
import json
import math
import re
import sys
import threading
import warnings
import zipfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freqlens import autodiff as ad
from freqlens import model as model_module
from freqlens.autodiff import Tensor, backward, finite_difference
from freqlens.model import (
    FreqLens,
    FrequencyBank,
    ModelConfig,
    build_bases,
    init_frequency_bank,
    load_checkpoint,
    project,
    save_checkpoint,
)
from freqlens.training import Adam, LossWeights, total_loss
from test_fused import reconstruct


def small_config(**overrides):
    base = dict(L=16, H=8, C=2, d=8, N=8, K=4, seed=0)
    base.update(overrides)
    return ModelConfig(**base)


def random_inputs(config, batch=3, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(batch, config.L, config.C))


def held_contributions(out):
    """A writable copy of a forward's contributions in their memory layout, for ``masked_forward``."""
    return np.array(out.contributions.data, order="K")


@st.composite
def encoder_dims(draw):
    n = draw(st.integers(1, 8))
    return dict(
        L=draw(st.integers(2, 12)),
        C=draw(st.integers(1, 4)),
        d=draw(st.integers(1, 6)),
        N=n,
        K=draw(st.integers(1, n)),
        B=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2**31 - 1)),
    )


class TestFrequencyMapping:
    def test_theta_zero(self):
        cfg = ModelConfig(L=96, N=2, K=1, C=1)
        bank = init_frequency_bank(cfg)
        bank.theta.data[:] = 0.0
        f = bank.frequencies().data
        expected = 1.0 / 960 + (0.5 - 1.0 / 960) * 0.5
        np.testing.assert_allclose(f, expected, rtol=1e-12)

    def test_saturation_limits(self):
        cfg = ModelConfig(L=96, N=2, K=1, C=1)
        bank = init_frequency_bank(cfg)
        bank.theta.data[:] = [-100.0, 100.0]
        f = bank.frequencies().data
        assert f[0] == pytest.approx(1.0 / 960, rel=1e-9)
        assert f[1] == pytest.approx(0.5, rel=1e-9)

    def test_bounds_strict_for_extreme_theta(self):
        # 10,000 random raw parameters in [-50, 50] stay strictly inside
        cfg = ModelConfig(L=96, N=10_000, K=1, C=1)
        bank = init_frequency_bank(cfg)
        rng = np.random.default_rng(3)
        bank.theta.data[:] = rng.uniform(-50, 50, size=10_000)
        f = bank.frequencies().data
        assert np.all(f > bank.f_min)
        assert np.all(f < bank.f_max)

    def test_differentiable_in_theta(self):
        cfg = ModelConfig(L=96, N=4, K=2, C=1)
        bank = init_frequency_bank(cfg)
        bank.theta.data[:] = [-3.0, -0.5, 0.5, 3.0]
        loss = bank.frequencies().sum()
        grads = backward(loss)
        g = grads[bank.theta.node_id]
        assert np.all(g > 0)  # strictly increasing mapping


class TestBankInit:
    def test_roundtrip_two_bases(self):
        cfg = ModelConfig(L=96, N=2, K=1, C=1)
        bank = init_frequency_bank(cfg)
        f = bank.frequencies().data
        np.testing.assert_allclose(f, [1.0 / 96, 0.5], rtol=0, atol=1e-12)

    def test_log_uniform_midpoint(self):
        cfg = ModelConfig(L=96, N=3, K=1, C=1)
        bank = init_frequency_bank(cfg)
        f = bank.frequencies().data
        assert f[1] == pytest.approx(math.sqrt((1.0 / 96) * 0.5), rel=1e-9)

    def test_phases_start_at_zero(self):
        bank = init_frequency_bank(small_config())
        np.testing.assert_array_equal(bank.phase.data, 0.0)

    def test_fixed_prior_exact(self):
        cfg = ModelConfig(L=96, N=3, K=2, C=1, prior_periods=(12, 24, 168))
        bank = init_frequency_bank(cfg)
        np.testing.assert_array_equal(bank.frequencies().data, [1 / 12, 1 / 24, 1 / 168])
        assert not bank.theta.requires_grad
        assert not bank.phase.requires_grad

    def test_fixed_prior_rejects_sub_nyquist_period(self):
        with pytest.raises(ValueError, match="Nyquist"):
            init_frequency_bank(ModelConfig(L=96, N=2, K=1, C=1, prior_periods=(24, 2)))

    @pytest.mark.parametrize("periods", [(24.0,), (24.0, 12.0, 6.0)], ids=["too_few", "too_many"])
    def test_prior_periods_need_one_period_per_basis(self, periods):
        with pytest.raises(ValueError, match="one period per basis: N=2, got"):
            ModelConfig(L=96, N=2, K=1, C=1, prior_periods=periods)

    def test_prior_periods_become_a_float_tuple(self):
        # the JSON list of a checkpoint manifest needs no conversion of its own
        cfg = ModelConfig(L=96, N=2, K=1, C=1, prior_periods=[24, 12])
        assert cfg.prior_periods == (24.0, 12.0)
        assert type(cfg.prior_periods) is tuple and all(type(p) is float for p in cfg.prior_periods)


class TestBases:
    def test_quarter_frequency_values(self):
        psi_bar = build_bases(Tensor([0.25]), Tensor([0.0]), L=4)
        np.testing.assert_allclose(psi_bar.data[0], np.array([1.0, 0.0, -1.0, 0.0]) / math.sqrt(2.0), atol=1e-12)

    def test_phase_pi_flips_sign_at_origin(self):
        # cos(a + pi) = -cos(a): the row norm is that of the phase-0 row
        psi_bar = build_bases(Tensor([0.11]), Tensor([math.pi]), L=6)
        norm = np.linalg.norm(np.cos(2.0 * math.pi * 0.11 * np.arange(6)))
        assert psi_bar.data[0, 0] == pytest.approx(-1.0 / norm)

    def test_rows_have_unit_norm(self):
        cfg = small_config()
        bank = init_frequency_bank(cfg)
        psi_bar = build_bases(bank.frequencies(), bank.phase, cfg.L)
        norms = np.linalg.norm(psi_bar.data, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_degenerate_row_floored_with_warning(self):
        # phase pi/2 with a near-zero frequency makes every sample ~sin(0) = 0
        with pytest.warns(UserWarning, match="norm"):
            psi_bar = build_bases(Tensor([1e-300]), Tensor([math.pi / 2]), L=4)
        assert np.all(np.isfinite(psi_bar.data))


class TestProjection:
    def test_self_projection_recovers_basis(self):
        psi_bar = build_bases(Tensor([3.0 / 16]), Tensor([0.4]), L=16)
        hidden = Tensor(psi_bar.data[0][None, :, None])  # B=1, d=1 copy of the basis
        c = project(hidden, psi_bar)
        recon = reconstruct(c, psi_bar)
        assert c.data[0, 0, 0] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(recon.data, hidden.data, atol=1e-12)

    def test_orthogonal_signal_has_zero_coefficient(self):
        # constant hidden vs an integer-cycle zero-mean cosine
        psi_bar = build_bases(Tensor([1.0 / 16]), Tensor([0.0]), L=16)
        hidden = Tensor(np.ones((1, 16, 1)))
        c = project(hidden, psi_bar)
        assert abs(c.data[0, 0, 0]) < 1e-12

    def test_single_basis_reconstruction_is_its_component(self):
        psi_bar = build_bases(Tensor([0.2]), Tensor([0.1]), L=12)
        rng = np.random.default_rng(5)
        hidden = Tensor(rng.normal(size=(2, 12, 3)))
        c = project(hidden, psi_bar)
        recon = reconstruct(c, psi_bar)
        component = c.data[:, 0, None, :] * psi_bar.data[0][None, :, None]
        np.testing.assert_array_equal(recon.data, component)

    def test_orthogonal_span_reconstructs_exactly(self):
        # integer-cycle cosines are mutually orthogonal over a full window
        freqs = Tensor([1.0 / 8, 2.0 / 8, 3.0 / 8])
        psi_bar = build_bases(freqs, Tensor(np.zeros(3)), L=8)
        rng = np.random.default_rng(6)
        coef = rng.normal(size=(3, 1))
        hidden = Tensor((psi_bar.data.T @ coef)[None, :, :])  # lies in the span
        recon = reconstruct(project(hidden, psi_bar), psi_bar)
        np.testing.assert_allclose(recon.data, hidden.data, atol=1e-9)

    def test_project_then_reconstruct_gradients(self):
        # the psi_bar gradient sums over the batch, so B > 1 exercises it
        rng = np.random.default_rng(7)
        hidden = Tensor(rng.normal(size=(3, 6, 2)), requires_grad=True)
        psi_bar = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        target = rng.normal(size=(3, 6, 2))

        def loss_of(h, p):
            return ad.square(reconstruct(project(h, p), p) - Tensor(target)).sum()

        grads = backward(loss_of(hidden, psi_bar))
        fd = finite_difference(
            lambda: loss_of(Tensor(hidden.data), Tensor(psi_bar.data)).item(), [hidden, psi_bar]
        )
        np.testing.assert_allclose(grads[hidden.node_id], fd[0], rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(grads[psi_bar.node_id], fd[1], rtol=1e-6, atol=1e-8)

    def test_evaluation_passes_never_reconstruct(self, monkeypatch):
        # the model holds no reconstruction: only the training loss measures it
        assert not hasattr(model_module, "reconstruct")
        shapes = []
        make = ad.node

        def recording(out_data, parents, backward_fn):
            shapes.append(out_data.shape)
            return make(out_data, parents, backward_fn)

        monkeypatch.setattr(ad, "node", recording)
        cfg = small_config(seed=8)
        model = FreqLens(cfg)
        x = random_inputs(cfg, 2, seed=8)
        out = model.forward(x, training=False)
        model.frequency_pass(x)
        model.attribute(out)
        assert (2, cfg.N, cfg.C) in shapes  # the recorder saw the input coefficients
        assert (2, cfg.L, cfg.C) not in shapes

    @settings(max_examples=40, deadline=None)
    @example(dims=dict(L=5, C=3, d=4, N=1, K=1, B=1, seed=1))
    @example(dims=dict(L=7, C=3, d=2, N=4, K=4, B=2, seed=2))
    @given(dims=encoder_dims())
    def test_coefficients_equal_projected_hidden_features(self, dims):
        # the heads read (psi_bar @ x)[selected] @ input_proj, the selected
        # rows of psi_bar @ (x @ input_proj) up to rounding
        dims = dict(dims)
        b = dims.pop("B")
        model = FreqLens(ModelConfig(H=2, **dims))
        x = np.random.default_rng(dims["seed"]).normal(size=(b, dims["L"], dims["C"]))
        out = model.forward(x)
        expected = (out.bases.data @ (x @ model.input_proj.data))[np.arange(b)[:, None], out.selected]
        got = model._head_inputs(out.input_coefficients, out.selected)
        assert got.shape == (b, dims["K"], dims["d"])
        np.testing.assert_allclose(got.data, expected, rtol=0, atol=1e-12)

    def test_no_pass_builds_hidden_features(self, monkeypatch):
        # L, N, K, C and d all differ, so neither the [B, L, d] hidden
        # features nor the [B, N, d] coefficients can be mistaken for another
        # array; a learnable and a fixed-prior frequency bank are both checked
        b = 3
        seen = []  # every node value and every gradient a rule returns
        make = ad.node

        def recording(out_data, parents, backward_fn):
            def rule(g):
                grads = backward_fn(g)
                seen.extend(pg.shape for pg in grads if pg is not None)
                return grads

            seen.append(out_data.shape)
            return make(out_data, parents, rule)

        monkeypatch.setattr(ad, "node", recording)
        for prior in (None, (8.0, 4.0, 5.0, 3.0, 6.0)):
            cfg = small_config(L=10, C=2, d=6, N=5, K=4, seed=9, prior_periods=prior)
            model = FreqLens(cfg)
            x = random_inputs(cfg, b, seed=9)
            y = np.zeros((b, cfg.H, cfg.C))

            def training_step(model=model, x=x, y=y):
                out = model.forward(x, training=True, tau=0.5, rng=np.random.default_rng(9))
                backward(total_loss(model, out, y, LossWeights())[0])

            passes = {
                "evaluation forward": lambda: model.forward(x, training=False),
                "frequency_pass": lambda: model.frequency_pass(x),
                "training step": training_step,
            }
            for name, run in passes.items():
                seen.clear()
                run()
                where = (name, prior)
                assert (b, cfg.N, cfg.C) in seen, where  # the recorder saw the input coefficients
                assert (b, cfg.K, cfg.d) in seen, where  # and the selected rows at the hidden width
                assert (b, cfg.N, cfg.d) not in seen, where
                assert (b, cfg.L, cfg.d) not in seen, where


class TestSelection:
    @staticmethod
    def forged_offsets_model(offsets, K):
        # zero coefficients make the raw scores equal the per-basis offsets
        model = FreqLens(small_config(N=len(offsets), K=K, d=2))
        model.scorer_bias.data[:] = offsets
        return model

    def test_low_temperature_is_argmax(self):
        # offsets 100 apart dwarf the Gumbel noise (at most ~28 in magnitude)
        model = self.forged_offsets_model([300.0, 100.0, 200.0], K=1)
        c = Tensor(np.zeros((1, 3, 2)))
        selected, weights = model.score_and_select(c, True, tau=1e-4, rng=np.random.default_rng(0))
        assert selected.tolist() == [[0]]
        np.testing.assert_allclose(weights.data, [[1.0, 0.0, 0.0]], atol=1e-12)

    def test_evaluation_selects_exact_topk_under_softmax_underflow(self):
        # a cold softmax of these scores underflows to [1, 0, 0] and would tie bases 1 and 2
        model = self.forged_offsets_model([200.0, 0.0, 100.0], K=2)
        selected, weights = model.score_and_select(Tensor(np.zeros((2, 3, 2))), False)
        assert selected.tolist() == [[0, 2], [0, 2]]
        assert weights is None
        out = model.forward(np.zeros((2, model.config.L, model.config.C)))
        assert out.selected.tolist() == [[0, 2], [0, 2]]

    def test_training_selects_exact_topk_of_noisy_scores(self):
        model = self.forged_offsets_model([200.0, 0.0, 100.0], K=2)
        c = Tensor(np.zeros((4, 3, 2)))
        selected, _ = model.score_and_select(c, True, tau=0.1, rng=np.random.default_rng(5))
        noisy = model.scorer_bias.data + model_module._gumbel_noise(np.random.default_rng(5), (4, 3))
        np.testing.assert_array_equal(selected, np.argsort(-noisy, axis=1, kind="stable")[:, :2])
        assert selected.tolist() == [[0, 2]] * 4

    def test_k_equals_n_selects_everything(self):
        cfg = small_config(N=4, K=4)
        model = FreqLens(cfg)
        out = model.forward(random_inputs(cfg, 2))
        assert sorted(out.selected[0].tolist()) == [0, 1, 2, 3]

    def test_weights_sum_to_one(self):
        cfg = small_config()
        model = FreqLens(cfg)
        xc = model.forward(random_inputs(cfg, 4)).input_coefficients
        _, weights = model.score_and_select(xc, True, tau=0.7, rng=np.random.default_rng(3))
        np.testing.assert_allclose(weights.data.sum(axis=1), 1.0, atol=1e-12)

    def test_evaluation_selects_exact_topk_of_scores(self):
        cfg = small_config()
        model = FreqLens(cfg)
        x = random_inputs(cfg, 5, seed=11)
        out = model.forward(x)
        # raw scores recomputed independently from the same input coefficients
        c = out.input_coefficients.data @ model.input_proj.data
        h = np.maximum(c @ model.scorer_w1.data, 0.0)
        scores = (h @ model.scorer_w2.data)[:, :, 0] + model.scorer_bias.data
        for b in range(5):
            top = set(np.argsort(-scores[b], kind="stable")[: cfg.K].tolist())
            assert set(out.selected[b].tolist()) == top

    @settings(max_examples=40, deadline=None)
    @example(dims=dict(L=12, C=1, d=32, N=16, K=4, B=8, seed=3))  # the acceptance widths
    @example(dims=dict(L=5, C=3, d=1, N=1, K=1, B=1, seed=4))
    @given(dims=encoder_dims())
    def test_scores_equal_the_unfolded_scorer(self, dims):
        # the scorer folds input_proj into its first layer: relu(xc @ (W @ w1)) @ w2
        # is relu((xc @ W) @ w1) @ w2 up to rounding
        dims = dict(dims)
        b = dims.pop("B")
        model = FreqLens(ModelConfig(H=2, **dims))
        rng = np.random.default_rng(dims["seed"])
        model.scorer_bias.data[:] = rng.normal(size=dims["N"])
        x = rng.normal(size=(b, dims["L"], dims["C"]))
        out = model.forward(x)
        xc, w, w1, w2 = (a.data for a in (out.input_coefficients, model.input_proj, model.scorer_w1, model.scorer_w2))
        bias = model.scorer_bias.data
        want = (np.maximum((xc @ w) @ w1, 0.0) @ w2)[..., 0] + bias
        size = (np.abs(xc) @ np.abs(w) @ np.abs(w1) @ np.abs(w2))[..., 0] + np.abs(bias)  # the terms' magnitude
        scores = []
        make = model_module.selection_weights

        def recording(s, noise, tau):  # a training pass hands its scores to the selection weights
            scores.append(s.data)
            return make(s, noise, tau)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(model_module, "selection_weights", recording)
            model.forward(x, training=True, tau=1.0, rng=np.random.default_rng(0))
        assert np.all(np.abs(scores[0] - want) <= 1e-12 * size)
        # evaluation ranks the scores as the unfolded scorer does, wherever no two are within rounding
        order = np.argsort(-want, axis=1, kind="stable")
        ranked = np.take_along_axis(want, order, axis=1)[:, : dims["K"] + 1]
        gaps = -np.diff(ranked, axis=1)
        apart = (gaps > 1e-9 * size.max(axis=1, keepdims=True)).all(axis=1)
        np.testing.assert_array_equal(out.selected[apart], order[apart, : dims["K"]])

    def test_training_selection_needs_rng(self):
        cfg = small_config()
        model = FreqLens(cfg)
        with pytest.raises(ValueError, match="rng"):
            model.forward(random_inputs(cfg), training=True, tau=0.5)

    def test_training_selection_needs_tau(self):
        cfg = small_config()
        model = FreqLens(cfg)
        with pytest.raises(ValueError, match="tau"):
            model.forward(random_inputs(cfg), training=True, rng=np.random.default_rng(0))

    def test_temperature_must_be_positive(self):
        cfg = small_config()
        model = FreqLens(cfg)
        with pytest.raises(ValueError, match="temperature"):
            model.forward(random_inputs(cfg), training=True, tau=0.0, rng=np.random.default_rng(0))


class TestHeads:
    def test_zero_coefficient_gives_zero_bit_exact(self):
        model = FreqLens(small_config(seed=9))
        out = model.head_contribution(Tensor(np.zeros((3, 4, 8))))
        assert np.all(out.data == 0.0)

    @pytest.mark.parametrize("scale", [0.5, 2.0])
    def test_positive_homogeneity(self, scale):
        model = FreqLens(small_config(seed=10))
        rng = np.random.default_rng(1)
        c_sel = rng.normal(size=(2, 4, 8))
        base = model.head_contribution(Tensor(c_sel)).data
        scaled = model.head_contribution(Tensor(scale * c_sel)).data
        np.testing.assert_allclose(scaled, scale * base, rtol=1e-12)

    def test_identical_heads_identical_outputs(self):
        model = FreqLens(small_config(seed=11))
        model.head_w1.data[1] = model.head_w1.data[0]
        model.head_w2.data[1] = model.head_w2.data[0]
        c_f = np.random.default_rng(2).normal(size=(4, 1, 8))
        out = model.head_contribution(Tensor(np.repeat(c_f, 4, axis=1))).data
        np.testing.assert_array_equal(out[:, 0], out[:, 1])

    def test_stacked_init_matches_per_head_draws(self):
        # one [K, ...] draw reads the stream that K per-head draws read
        cfg = small_config(seed=12)
        model = FreqLens(cfg)
        rng = np.random.default_rng(cfg.seed)
        for fan_in, fan_out in ((cfg.C, cfg.d), (cfg.d, 32), (32, 1)):
            model_module._xavier(rng, fan_in, fan_out)
        w1 = [model_module._xavier(rng, cfg.d, cfg.d) for _ in range(cfg.K)]
        w2 = [model_module._xavier(rng, cfg.d, cfg.H * cfg.C) for _ in range(cfg.K)]
        np.testing.assert_array_equal(model.head_w1.data, np.stack(w1))
        np.testing.assert_array_equal(model.head_w2.data, np.stack(w2))

    @pytest.mark.parametrize("training", [False, True])
    def test_tape_length_does_not_depend_on_k(self, training):
        created = set()
        for k in (1, 4, 8):
            cfg = small_config(K=k)
            model = FreqLens(cfg)
            start = Tensor(0.0).node_id
            model.forward(random_inputs(cfg), training=training, tau=0.5, rng=np.random.default_rng(0))
            created.add(Tensor(0.0).node_id - start)
        assert len(created) == 1


class TestForward:
    def test_zero_logit_gate_averages_paths(self):
        cfg = small_config()
        model = FreqLens(cfg)
        assert model.fusion_logit.data == 0.0
        out = model.forward(random_inputs(cfg))
        assert out.alpha.item() == 0.5
        np.testing.assert_allclose(
            out.y_hat.data, 0.5 * (out.y_freq.data + out.y_res.data), atol=1e-15
        )

    def test_zero_input_propagates_to_zero_prediction(self):
        cfg = small_config()
        model = FreqLens(cfg)
        out = model.forward(np.zeros((2, cfg.L, cfg.C)))
        assert np.all(out.input_coefficients.data == 0.0)
        assert np.all(out.y_freq.data == 0.0)
        assert np.all(out.y_hat.data == 0.0)

    @pytest.mark.parametrize("training", [False, True])
    def test_completeness_in_both_modes(self, training):
        cfg = small_config()
        model = FreqLens(cfg)
        rng = np.random.default_rng(0)
        out = model.forward(random_inputs(cfg, 4), training=training, rng=rng, tau=0.7)
        total = out.contributions.data.sum(axis=1)
        assert np.max(np.abs(total - out.y_freq.data)) < 1e-9

    def test_forced_alpha_uses_frequency_path_only(self):
        cfg = small_config(force_alpha=1.0)
        model = FreqLens(cfg)
        out = model.forward(random_inputs(cfg))
        np.testing.assert_array_equal(out.y_hat.data, out.y_freq.data)

    def test_shape_mismatch_rejected(self):
        cfg = small_config()
        model = FreqLens(cfg)
        with pytest.raises(ValueError, match="expected input"):
            model.forward(np.zeros((2, cfg.L + 1, cfg.C)))
        # the attribution passes' one window check names their pass
        with pytest.raises(ValueError, match=re.escape(f"frequency_pass: expected input [B, {cfg.L}, {cfg.C}]")):
            model.frequency_pass(np.zeros((2, cfg.L, cfg.C + 1)))

    def test_training_gradient_reaches_scorer(self):
        # the straight-through weight routes prediction gradient into selection
        cfg = small_config()
        model = FreqLens(cfg)
        rng = np.random.default_rng(4)
        out = model.forward(random_inputs(cfg, 4), training=True, rng=rng, tau=0.8)
        loss = (out.y_hat * out.y_hat).mean()
        grads = backward(loss)
        g = grads.get(model.scorer_w1.node_id)
        assert g is not None and np.any(g != 0.0)

    def test_eval_mode_has_no_scorer_gradient_path(self):
        cfg = small_config()
        model = FreqLens(cfg)
        out = model.forward(random_inputs(cfg, 4))
        loss = (out.y_hat * out.y_hat).mean()
        grads = backward(loss)
        g = grads.get(model.scorer_w1.node_id)
        assert g is None or np.max(np.abs(g)) < 1e-12


def fresh_copy(model):
    twin = FreqLens(model.config)
    twin.load_state_dict(model.state_dict())
    return twin


def assert_same_eval(model, x):
    """Evaluation of ``model`` equals, bit for bit, a fresh model with the same state."""
    got, want = model.forward(x), fresh_copy(model).forward(x)
    for field in ("y_hat", "y_freq", "y_res", "contributions", "input_coefficients", "bases", "frequencies"):
        assert getattr(got, field).data.tobytes() == getattr(want, field).data.tobytes(), field
    np.testing.assert_array_equal(got.selected, want.selected)


class TestEvalBasesReuse:
    """Every pass reuses the bases while theta and phase keep their bytes."""

    @pytest.mark.parametrize("name", ["theta", "phase"])
    @pytest.mark.parametrize("write", ["in_place", "rebind"])
    def test_parameter_write_is_seen(self, name, write):
        cfg = small_config()
        model = FreqLens(cfg)
        x = random_inputs(cfg)
        model.forward(x)
        param = getattr(model.bank, name)
        if write == "in_place":
            param.data[1] += 0.25
        else:
            param.data = param.data + 0.25
        assert_same_eval(model, x)

    def test_load_state_dict_is_seen(self):
        cfg = small_config()
        model = FreqLens(cfg)
        x = random_inputs(cfg)
        model.forward(x)
        state = FreqLens(small_config(seed=5)).state_dict()
        state["bank.theta"] += 0.25
        state["bank.phase"] += 0.25
        model.load_state_dict(state)
        assert_same_eval(model, x)

    def test_checkpoint_of_an_evaluated_model(self, tmp_path):
        cfg = small_config()
        model = FreqLens(cfg)
        x = random_inputs(cfg)
        model.forward(x)
        model.bank.theta.data[...] += 0.25
        model.bank.phase.data[...] += 0.25
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded, _ = load_checkpoint(path)
        loaded.forward(x)
        assert_same_eval(loaded, x)
        assert loaded.forward(x).y_hat.data.tobytes() == model.forward(x).y_hat.data.tobytes()

    def test_train_step_is_seen(self):
        cfg = small_config()
        model = FreqLens(cfg)
        x = random_inputs(cfg, 4)
        model.forward(x)
        optimizer = Adam(model.parameters(), freq_param_names=FreqLens.frequency_parameter_names())
        model.forward(x)  # the optimizer rebinds each parameter to an equal view
        theta, phase = model.bank.theta.data.copy(), model.bank.phase.data.copy()
        out = model.forward(x, training=True, tau=0.5, rng=np.random.default_rng(1))
        loss, _ = total_loss(model, out, np.ones((4, cfg.H, cfg.C)), LossWeights())
        optimizer.step(backward(loss), lr=1e-2)
        assert not np.array_equal(model.bank.theta.data, theta)
        assert not np.array_equal(model.bank.phase.data, phase)
        assert_same_eval(model, x)

    def test_training_gradients_ignore_an_earlier_eval(self):
        cfg = small_config()
        x, y = random_inputs(cfg, 4), np.ones((4, cfg.H, cfg.C))

        def bank_grads(model):
            out = model.forward(x, training=True, tau=0.5, rng=np.random.default_rng(2))
            loss, _ = total_loss(model, out, y, LossWeights())
            grads = backward(loss)
            return [grads[p.node_id].tobytes() for p in (model.bank.theta, model.bank.phase)]

        evaluated = FreqLens(cfg)
        evaluated.forward(x)
        assert bank_grads(evaluated) == bank_grads(FreqLens(cfg))

    def test_fixed_prior_mode(self):
        cfg = ModelConfig(L=48, H=8, C=1, d=8, N=2, K=2, prior_periods=(24, 12))
        model = FreqLens(cfg)
        x = random_inputs(cfg)
        first = model.forward(x)
        assert model.forward(x).bases is first.bases
        assert_same_eval(model, x)

    def test_unchanged_bank_builds_no_bases(self, monkeypatch):
        calls = []
        real = model_module.build_bases

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(model_module, "build_bases", counting)
        cfg = small_config()
        model = FreqLens(cfg)
        x = random_inputs(cfg)
        out = model.forward(x)
        assert len(calls) == 1
        again = model.forward(x[:1])
        model.frequency_pass(x)
        assert len(calls) == 1
        assert again.bases is out.bases and again.frequencies is out.frequencies
        step = model.forward(x, training=True, tau=0.5, rng=np.random.default_rng(0))
        assert len(calls) == 1  # a training pass on an unchanged bank reuses the pair
        assert step.bases is out.bases and step.frequencies is out.frequencies
        for built, name in enumerate(("phase", "theta"), start=2):  # a step that moves either rebuilds it
            loss, _ = total_loss(model, step, np.ones((x.shape[0], cfg.H, cfg.C)), LossWeights())
            Adam([(name, getattr(model.bank, name))]).step(backward(loss), lr=1e-2)
            step = model.forward(x, training=True, tau=0.5, rng=np.random.default_rng(0))
            assert len(calls) == built
        model.forward(x)
        assert len(calls) == 3

    def test_near_zero_row_warns_once_per_bank_state(self):
        # at L = 2 a saturated frequency (~0.5) with phase pi/2 samples two zeros of the cosine
        cfg = ModelConfig(L=2, H=1, C=1, d=2, N=1, K=1)
        model = FreqLens(cfg)
        model.bank.theta.data[...] = 100.0
        model.bank.phase.data[...] = math.pi / 2
        x = np.ones((1, 2, 1))
        with pytest.warns(UserWarning, match="near-zero"):
            model.forward(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model.forward(x)
        model.bank.phase.data[...] = -math.pi / 2
        with pytest.warns(UserWarning, match="near-zero"):
            model.forward(x)

    def test_concurrent_evaluation_matches_serial(self):
        cfg = small_config()
        x = random_inputs(cfg, 8)
        want = [FreqLens(cfg).forward(x[i : i + 1]).y_hat.data.tobytes() for i in range(8)]
        shared = FreqLens(cfg)  # every thread races to build and store the first pair
        wrong = []

        def serve():
            for _ in range(25):
                for i in range(8):
                    if shared.forward(x[i : i + 1]).y_hat.data.tobytes() != want[i]:
                        wrong.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=serve) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


class TestMaskedForward:
    def setup_method(self):
        self.cfg = small_config(seed=21)
        self.model = FreqLens(self.cfg)
        self.x = random_inputs(self.cfg, 3, seed=21)
        self.out = self.model.forward(self.x)
        self.contributions = held_contributions(self.out)

    def test_full_subset_equals_freq_prediction(self):
        # bit-exact against a forward on the same (single-sample) batch
        for b in range(3):
            single = self.model.forward(self.x[b : b + 1])
            keep = np.ones((1, 1, self.cfg.K), dtype=bool)
            mb = self.model.masked_forward(held_contributions(single), keep)[0]
            np.testing.assert_array_equal(mb[0], single.y_freq.data[0])

    def test_full_subset_batchwise_when_selection_is_shared(self):
        cfg = small_config(N=4, K=4, seed=22)  # K = N forces a shared selection
        model = FreqLens(cfg)
        x = random_inputs(cfg, 3, seed=22)
        out = model.forward(x)
        m = model.masked_forward(held_contributions(out), np.isin(out.selected, range(4))[None])[0]
        np.testing.assert_array_equal(m, out.y_freq.data)

    def test_empty_subset_is_zero(self):
        m = self.model.masked_forward(self.contributions, np.isin(self.out.selected, [])[None])[0]
        np.testing.assert_array_equal(m, 0.0)

    def test_faithfulness_per_selected_frequency(self):
        # the reference sums the forward's contributions over the kept slots in plain NumPy
        contrib = self.out.contributions.data
        b, k = self.out.selected.shape
        keep = np.concatenate([np.ones((1, b, k), dtype=bool), np.repeat(~np.eye(k, dtype=bool)[:, None], b, 1)])
        full, *partials = self.model.masked_forward(self.contributions, keep)
        np.testing.assert_allclose(full, contrib.sum(axis=1), atol=1e-9)
        for slot, partial in enumerate(partials):
            np.testing.assert_allclose(partial, np.delete(contrib, slot, axis=1).sum(axis=1), atol=1e-9)
            np.testing.assert_allclose(full - partial, contrib[:, slot], atol=1e-9)

    def test_malformed_mask_rejected(self):
        # a slot mask cannot name an unselected basis; what can be wrong is its shape or dtype,
        # and the same of the contributions it masks
        keep = np.ones((1, 3, 4), dtype=bool)
        malformed = [
            (self.contributions, np.ones((3, 4), dtype=bool), "bool slot mask"),  # no subset axis
            (self.contributions, np.ones((1, 2, 4), dtype=bool), "bool slot mask"),  # wrong batch size
            (self.contributions, np.ones((1, 3, 3), dtype=bool), "bool slot mask"),  # wrong slot count
            (self.contributions, np.ones((1, 3, 4)), "bool slot mask"),  # float, not bool
            (self.contributions, np.ones((1, 3, 4), dtype=np.int64), "bool slot mask"),  # int, not bool
            (self.contributions[:, :3], keep, "float64 contributions"),  # wrong slot count
            (self.contributions[0], keep, "float64 contributions"),  # no batch axis
            (self.contributions.astype(np.float32), keep, "float64 contributions"),
        ]
        for contributions, mask, message in malformed:
            with pytest.raises(ValueError, match=f"masked_forward: expected (a )?{message}"):
                self.model.masked_forward(contributions, mask)


class TestAttribute:
    def test_attributions_sum_to_frequency_prediction(self):
        cfg = small_config(seed=31)
        model = FreqLens(cfg)
        out = model.forward(random_inputs(cfg, 4, seed=31))
        report = model.attribute(out)
        total = report.contributions.sum(axis=1)
        assert np.max(np.abs(total - report.y_freq)) < 1e-9

    def test_alpha_matches_gate(self):
        cfg = small_config(seed=32)
        model = FreqLens(cfg)
        model.fusion_logit.data = np.asarray(0.37)
        out = model.forward(random_inputs(cfg))
        report = model.attribute(out)
        assert report.alpha == pytest.approx(1.0 / (1.0 + math.exp(-0.37)), rel=1e-12)

    def test_periods_are_reciprocal_frequencies(self):
        cfg = small_config(seed=33)
        model = FreqLens(cfg)
        out = model.forward(random_inputs(cfg))
        report = model.attribute(out)
        np.testing.assert_allclose(report.periods_steps * report.frequencies, 1.0, rtol=1e-12)


class TestParameterCounts:
    def test_default_architecture_counts(self):
        model = FreqLens(ModelConfig())  # L=96, H=96, C=7, d=64, N=32, K=8
        counts = model.parameter_counts()
        assert counts["input_proj"] == 448
        assert counts["frequency_bank"] == 64
        assert counts["heads"] == 376_832
        assert counts["residual"] == 86_016
        assert counts["fusion"] == 1
        # per-basis offsets add N on top of the 2,080 shared-MLP weights
        assert counts["scorer"] == 2_112
        assert counts["scorer"] - (64 * 32 + 32) == 32

    def test_each_head_has_47104_parameters(self):
        model = FreqLens(ModelConfig())
        per_head = model.head_w1.data[0].size + model.head_w2.data[0].size
        assert per_head == 47_104


class TestCheckpoint:
    def test_roundtrip_bit_identical_forward(self, tmp_path):
        cfg = small_config(seed=41)
        model = FreqLens(cfg)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, seed=41)
        loaded, seed = load_checkpoint(path)
        assert seed == 41
        x = random_inputs(cfg, 3, seed=41)
        np.testing.assert_array_equal(loaded.forward(x).y_hat.data, model.forward(x).y_hat.data)

    def test_identical_models_serialize_to_identical_bytes(self, tmp_path):
        cfg = small_config(seed=42)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(FreqLens(cfg), a, seed=42)
        save_checkpoint(FreqLens(cfg), b, seed=42)
        assert a.read_bytes() == b.read_bytes()

    def test_version_2_layout_stacks_the_heads(self, tmp_path):
        cfg = small_config(seed=43)
        path = tmp_path / "model.ckpt"
        save_checkpoint(FreqLens(cfg), path)
        with zipfile.ZipFile(path) as zf:
            manifest = json.loads(zf.read("manifest.json"))
            w1 = np.load(io.BytesIO(zf.read("arrays/heads.w1.npy")))
            w2 = np.load(io.BytesIO(zf.read("arrays/heads.w2.npy")))
        assert manifest["format_version"] == 4
        assert [n for n in manifest["arrays"] if n.startswith("heads.")] == ["heads.w1", "heads.w2"]
        assert w1.shape == (cfg.K, cfg.d, cfg.d)
        assert w2.shape == (cfg.K, cfg.d, cfg.H * cfg.C)

    @pytest.mark.parametrize("seed", [True, 1.5, -3, "abc", 2**63], ids=["bool", "float", "negative", "string", "huge"])
    def test_config_seed_must_be_a_nonnegative_int64(self, seed):
        with pytest.raises(ValueError, match=re.escape(f"seed must be a nonnegative int64, got {seed!r}")):
            small_config(seed=seed)

    def test_fixed_prior_roundtrip(self, tmp_path):
        cfg = ModelConfig(L=96, H=8, C=1, d=8, N=2, K=2, prior_periods=(24, 12))
        model = FreqLens(cfg)
        path = tmp_path / "prior.ckpt"
        save_checkpoint(model, path)
        loaded, _ = load_checkpoint(path)
        assert loaded.config == cfg
        np.testing.assert_array_equal(loaded.bank.frequencies().data, [1 / 24, 1 / 12])


class TestAxiomsRandomized:
    """Attribution axioms hold for arbitrary weights, trained or not."""

    def test_axioms_on_random_models(self):
        rng = np.random.default_rng(2024)
        for trial in range(10):
            cfg = small_config(seed=int(rng.integers(0, 2**31)))
            model = FreqLens(cfg)
            x = rng.normal(size=(2, cfg.L, cfg.C))
            out = model.forward(x)
            # A1 completeness
            dev = np.abs(out.contributions.data.sum(axis=1) - out.y_freq.data).max()
            assert dev < 1e-9
            # A2 faithfulness via masked sums, against plain NumPy sums over the kept slots
            contrib = out.contributions.data
            keep = np.ones((1 + cfg.K, 2, cfg.K), dtype=bool)
            for slot in range(cfg.K):
                keep[1 + slot, :, slot] = False
            full, *partials = model.masked_forward(held_contributions(out), keep)
            for slot, partial in enumerate(partials):
                assert np.abs(partial - np.delete(contrib, slot, axis=1).sum(axis=1)).max() < 1e-9
                assert np.abs(full - partial - contrib[:, slot]).max() < 1e-9
            # A3 null frequency, bit exact
            zero = model.head_contribution(Tensor(np.zeros((1, cfg.K, cfg.d))))
            assert np.all(zero.data == 0.0)
            # A4 symmetry, bit exact
            model.head_w1.data[1] = model.head_w1.data[0]
            model.head_w2.data[1] = model.head_w2.data[0]
            c_f = rng.normal(size=(2, 1, cfg.d))
            out = model.head_contribution(Tensor(np.repeat(c_f, cfg.K, axis=1))).data
            np.testing.assert_array_equal(out[:, 0], out[:, 1])
