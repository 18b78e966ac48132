"""Fused tape nodes against the op-by-op graphs they replaced.

Each fused node -- the bank's frequencies, ``build_bases``, the selection
weights, the straight-through weight, the gate mix, ``relu_mlp``, the
prediction error, the diversity barrier, the reconstruction term and the
weighted total -- must give the value and the gradients of the graph it
replaced, byte for byte, and match central differences.  Those graphs
are kept here as oracles.  They are built from the primitives only they
use (``exp``, ``log``, ``cos``, ``relu``, negation, indexing and
``reconstruct``), which left ``freqlens`` when the fused nodes replaced
their last callers; the primitives' own value and gradient tests moved
here with them.  So did two earlier fused nodes that the selection and
straight-through nodes absorbed, ``softmax`` and the straight-through
weight of already gathered weights: each new node is checked against
the graph of the old node too.
"""

import math
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freqlens import autodiff as ad
from freqlens import model as model_module
from freqlens import training as training_module
from freqlens.autodiff import Tensor, backward, check_gradients
from freqlens.model import (
    FreqLens,
    FrequencyBank,
    ModelConfig,
    build_bases,
    gate_mix,
    selection_weights,
    straight_through,
)
from freqlens.training import (
    DIVERSITY_EPSILON,
    LossWeights,
    diversity_loss,
    prediction_loss,
    reconstruction_loss,
    total_loss,
    weighted_total,
)

# ---------------------------------------------------------------------------
# oracle primitives: the autodiff ops only the oracles below use
# ---------------------------------------------------------------------------


def exp(x):
    x = ad._as_tensor(x)
    out_data = np.exp(x.data)
    return ad.node(out_data, (x,), lambda g: (g * out_data,))


def log(x):
    x = ad._as_tensor(x)
    if np.any(x.data <= 0):
        raise ValueError("log: nonpositive input")
    return ad.node(np.log(x.data), (x,), lambda g: (g / x.data,))


def cos(x):
    x = ad._as_tensor(x)
    return ad.node(np.cos(x.data), (x,), lambda g: (-g * np.sin(x.data),))


def relu(x):
    x = ad._as_tensor(x)
    return ad.node(np.maximum(x.data, 0.0), (x,), lambda g: (g * (x.data > 0),))


def neg(x):
    x = ad._as_tensor(x)
    return ad.node(-x.data, (x,), lambda g: (-g,))


def getitem(x, index):
    """``x[index]``; the backward rule scatters with ``np.add.at``, so repeated indices add up."""
    x = ad._as_tensor(x)

    def backward_fn(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, index, g)
        return (gx,)

    return ad.node(x.data[index], (x,), backward_fn)


def reconstruct(c, psi_bar):
    """Signal rebuilt from its coefficients: ``psi_bar.T [L, N] @ c [B, N, C] -> [B, L, C]``."""
    return ad.matmul(ad.transpose(psi_bar), c)


def softmax(x, axis=-1):
    """Softmax along ``axis`` as one node, shift-stabilized by the (constant) row max.

    Its rule is the chain rule of ``e / e.sum(axis)`` with
    ``e = exp(x - max)``, run in that graph's order: the quotient's two
    shares of ``e``'s gradient are summed, then multiplied by ``e``.
    """
    x = ad._as_tensor(x)
    e = np.exp(x.data - x.data.max(axis=axis, keepdims=True))
    total = e.sum(axis=axis, keepdims=True)

    def backward_fn(g):
        g_total = ad._unbroadcast(-g * e / (total * total), total.shape)
        g_e = g / total + ad._expand_reduced(g_total, e.shape, axis, keepdims=True)
        return (g_e * e,)

    return ad.node(e / total, (x,), backward_fn)


def gathered_straight_through(contributions, w_sel):
    """``contributions * (w_sel - w_sel.detach() + 1)`` as one node, for gathered weights ``w_sel`` [B, K]."""
    b, k = w_sel.shape
    ones = ((w_sel.data - w_sel.data) + 1.0).reshape((b, k, 1, 1))
    summed = tuple(i for i in (2, 3) if contributions.shape[i] != 1)

    def backward_fn(g):
        g_w = g * contributions.data
        if summed:
            g_w = g_w.sum(axis=summed, keepdims=True)
        return (
            g * ones if contributions.requires_grad else None,
            g_w.reshape((b, k)) if w_sel.requires_grad else None,
        )

    return ad.node(contributions.data * ones, (contributions, w_sel), backward_fn)


# ---------------------------------------------------------------------------
# the composed graphs each fused node replaced
# ---------------------------------------------------------------------------


def composed_frequencies(bank):
    if bank.fixed_freqs is not None:
        return Tensor(bank.fixed_freqs)
    gate = ad.clip(ad.sigmoid(bank.theta), 1e-15, np.nextafter(1.0, 0.0))
    return bank.f_min + (bank.f_max - bank.f_min) * gate


def composed_build_bases(freqs, phases, L):
    n = freqs.size
    t = Tensor(np.arange(L, dtype=np.float64))
    angle = freqs.reshape((n, 1)) * t * (2.0 * np.pi) + phases.reshape((n, 1))
    psi = cos(angle)
    norms = ad.sqrt(ad.square(psi).sum(axis=1, keepdims=True))
    if np.any(norms.data < 1e-8):
        warnings.warn("near-zero cosine basis row; flooring its norm at 1e-8")
        norms = ad.clip(norms, 1e-8, np.inf)
    return psi / norms


def composed_softmax(x, axis=-1):
    x = ad._as_tensor(x)
    shifted = ad.sub(x, Tensor(x.data.max(axis=axis, keepdims=True)))
    e = exp(shifted)
    return ad.div(e, e.sum(axis=axis, keepdims=True))


def composed_selection_weights(scores, noise, tau):
    return composed_softmax((scores + Tensor(noise)) / tau, axis=-1)


def composed_relu_mlp(x, w1, w2):
    if x.ndim > 2 and w1.ndim == w2.ndim == 2:  # shared weights: one product over the flattened rows
        rows = composed_relu_mlp(x.reshape((-1, x.shape[-1])), w1, w2)
        return rows.reshape((*x.shape[:-1], w2.shape[-1]))
    return ad.matmul(relu(ad.matmul(x, w1)), w2)


def composed_straight_through(contributions, weights, selected):
    w_sel = ad.gather_rows(weights, selected)
    b, k = w_sel.shape
    st_weight = w_sel - w_sel.detach() + 1.0  # forward value is exactly 1
    return contributions * st_weight.reshape((b, k, 1, 1))


def composed_prediction_loss(y_hat, target):
    return ad.square(y_hat - Tensor(np.asarray(target, dtype=np.float64))).mean()


def composed_diversity_loss(freqs, epsilon=DIVERSITY_EPSILON):
    logs = getitem(log(freqs), np.argsort(freqs.data, kind="stable"))
    shifted = (getitem(logs, slice(1, None)) - getitem(logs, slice(None, -1))) + epsilon
    return neg(log(shifted).mean())


def composed_reconstruction_loss(xc, psi_bar, x, w):
    channels, width = w.shape
    r = (reconstruct(xc, psi_bar) - x).reshape((-1, channels))
    gram_r = ad.matmul(ad.transpose(r), r)
    gram_w = ad.matmul(w, ad.transpose(w))
    return (gram_r * gram_w).sum() / (r.shape[0] * width)


def composed_weighted_total(pred, reg, recon, weights):
    return pred + weights.lambda_div * reg + weights.lambda_recon * recon


def composed_gate_mix(alpha, y_freq, y_res):
    return alpha * y_freq + (1.0 - alpha) * y_res


def use_composed_graphs(monkeypatch):
    """Route every fused node of the model and the loss through its composed graph."""
    monkeypatch.setattr(ad, "relu_mlp", composed_relu_mlp)
    monkeypatch.setattr(FrequencyBank, "frequencies", composed_frequencies)
    monkeypatch.setattr(model_module, "build_bases", composed_build_bases)
    monkeypatch.setattr(model_module, "selection_weights", composed_selection_weights)
    monkeypatch.setattr(model_module, "straight_through", composed_straight_through)
    monkeypatch.setattr(model_module, "gate_mix", composed_gate_mix)
    monkeypatch.setattr(training_module, "prediction_loss", composed_prediction_loss)
    monkeypatch.setattr(training_module, "diversity_loss", composed_diversity_loss)
    monkeypatch.setattr(training_module, "reconstruction_loss", composed_reconstruction_loss)
    monkeypatch.setattr(training_module, "weighted_total", composed_weighted_total)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def tracked(data, requires_grad=True):
    return Tensor(np.array(data, dtype=np.float64, copy=True), requires_grad=requires_grad)


def value_and_gradients(build, inputs, upstream):
    """Value of ``build(*inputs)`` and the gradient of ``sum(value * upstream)`` per input."""
    out = build(*inputs)
    loss = (out * Tensor(upstream)).sum()
    grads = backward(loss)
    return out, [grads.get(t.node_id) for t in inputs]


def assert_same_bytes(fused, composed, inputs, upstream):
    """The fused and composed builds agree in value and every input's gradient, byte for byte."""
    out_f, grads_f = value_and_gradients(fused, inputs, upstream)
    out_c, grads_c = value_and_gradients(composed, inputs, upstream)
    assert out_f.shape == out_c.shape and out_f.data.tobytes() == out_c.data.tobytes()
    assert out_f.requires_grad == out_c.requires_grad
    for t, gf, gc in zip(inputs, grads_f, grads_c):
        if gc is None:
            assert gf is None
            continue
        assert gf.shape == gc.shape == t.shape and gf.dtype == gc.dtype
        assert gf.tobytes() == gc.tobytes()


def assert_matches_finite_differences(build, inputs, upstream, tol, eps=1e-5):
    """Every tracked input's reverse-mode gradient agrees with central differences."""
    for i, t in enumerate(inputs):
        if not t.requires_grad:
            continue

        def f(p, i=i):
            args = [p if j == i else Tensor(u.data) for j, u in enumerate(inputs)]
            return (build(*args) * Tensor(upstream)).sum()

        assert check_gradients(f, t, eps=eps) < tol, i


# ---------------------------------------------------------------------------
# the primitives that moved here from freqlens.autodiff
# ---------------------------------------------------------------------------


class TestOraclePrimitives:
    def test_cos_unit_circle(self):
        out = cos(Tensor([0.0, math.pi / 2, math.pi]))
        np.testing.assert_allclose(out.data, [1.0, 0.0, -1.0], atol=1e-15)

    def test_log_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="log"):
            log(Tensor([1.0, 0.0]))

    def test_relu(self):
        out = relu(Tensor([-1.0, 0.0, 2.0]))
        assert out.data.tolist() == [0.0, 0.0, 2.0]

    def test_mean_cos_grad_at_sin_zeros(self):
        x = Tensor([0.0, math.pi], requires_grad=True)
        loss = cos(x).mean()
        np.testing.assert_allclose(backward(loss)[x.node_id], [0.0, 0.0], atol=1e-15)

    def test_reconstruct_shape(self):
        out = reconstruct(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 5))))
        assert out.shape == (2, 5, 4)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        out = softmax(Tensor(rng.normal(size=(4, 7))), axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_softmax_handles_large_logits(self):
        out = softmax(Tensor([1000.0, 0.0]), axis=-1)
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-300)


def case_point(name, shape):
    """The gradient-check point of case ``name``: the same on every run, unlike one seeded by the salted ``hash``."""
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    return Tensor(rng.normal(size=shape) + 0.05)  # nudge off relu/abs kinks


ORACLE_CASES = [
    ("exp", lambda t: exp(t).sum(), (5,)),
    ("log", lambda t: log(ad.square(t) + 0.5).sum(), (5,)),
    ("cos", lambda t: cos(t).sum(), (5,)),
    ("relu", lambda t: relu(t).sum(), (5,)),
    ("neg", lambda t: neg(t).sum(), (5,)),
    ("slice", lambda t: ad.square(getitem(t, (slice(1, None), slice(None, 2)))).sum(), (3, 4)),
    ("softmax", lambda t: ad.square(softmax(t, axis=-1)).sum(), (3, 4)),
]


@pytest.mark.parametrize("name,fn,shape", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_oracle_op_gradients_match_finite_differences(name, fn, shape):
    assert check_gradients(fn, case_point(name, shape), eps=1e-5) < 1e-4


# ---------------------------------------------------------------------------
# one fused node at a time
# ---------------------------------------------------------------------------

SEEDS = st.integers(0, 2**31 - 1)


class TestFrequencies:
    @staticmethod
    def fused(theta):
        return FrequencyBank(theta, Tensor(np.zeros(theta.shape)), 16).frequencies()

    @staticmethod
    def composed(theta):
        return composed_frequencies(FrequencyBank(theta, Tensor(np.zeros(theta.shape)), 16))

    @settings(max_examples=40, deadline=None)
    @example(n=1, scale=1.0, seed=0)
    @example(n=6, scale=60.0, seed=1)  # saturated sigmoid: clamped entries pass no gradient
    @given(n=st.integers(1, 8), scale=st.sampled_from([0.5, 3.0, 60.0]), seed=SEEDS)
    def test_equals_composed_graph(self, n, scale, seed):
        rng = np.random.default_rng(seed)
        theta = scale * rng.normal(size=n)
        assert_same_bytes(self.fused, self.composed, [tracked(theta)], rng.normal(size=n))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        assert_matches_finite_differences(self.fused, [tracked(rng.normal(size=6))], rng.normal(size=6), 1e-6)

    def test_fixed_prior_bank_is_a_constant(self):
        bank = model_module.init_frequency_bank(ModelConfig(L=96, N=2, K=2, C=1, prior_periods=(24, 12)))
        freqs = bank.frequencies()
        assert not freqs.requires_grad and freqs.data.tolist() == [1 / 24, 1 / 12]


@st.composite
def basis_draws(draw):
    n, L = draw(st.integers(1, 6)), draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(SEEDS))
    return dict(
        freqs=rng.uniform(0.01, 0.5, size=n),
        phases=rng.uniform(-np.pi, np.pi, size=n),
        L=L,
        upstream=rng.normal(size=(n, L)),
        track=draw(st.sampled_from([(True, True), (True, False), (False, True), (False, False)])),
    )


class TestBuildBases:
    @settings(max_examples=40, deadline=None)
    @given(case=basis_draws())
    def test_equals_composed_graph(self, case):
        inputs = [tracked(case["freqs"], case["track"][0]), tracked(case["phases"], case["track"][1])]
        L = case["L"]
        assert_same_bytes(lambda f, p: build_bases(f, p, L), lambda f, p: composed_build_bases(f, p, L),
                          inputs, case["upstream"])

    @settings(max_examples=15, deadline=None)
    @given(case=basis_draws())
    def test_matches_finite_differences(self, case):
        inputs = [tracked(case["freqs"], case["track"][0]), tracked(case["phases"], case["track"][1])]
        L = case["L"]
        assert_matches_finite_differences(lambda f, p: build_bases(f, p, L), inputs, case["upstream"], 1e-4)

    @staticmethod
    def floored_inputs():
        # row 0 is cos(pi/2 + pi t) at t = 0, 1: both samples ~1e-16, so its norm is floored
        return [tracked([0.5, 0.1, 0.23]), tracked([np.pi / 2, 0.3, 1.0])]

    def test_floor_branch_equals_composed_graph(self):
        upstream = np.arange(6.0).reshape(3, 2) - 2.5
        with pytest.warns(UserWarning, match="norm"):
            out_f, grads_f = value_and_gradients(lambda f, p: build_bases(f, p, 2), self.floored_inputs(), upstream)
        with pytest.warns(UserWarning, match="norm"):
            out_c, grads_c = value_and_gradients(
                lambda f, p: composed_build_bases(f, p, 2), self.floored_inputs(), upstream
            )
        assert out_f.data.tobytes() == out_c.data.tobytes()
        for gf, gc in zip(grads_f, grads_c):
            assert gf.tobytes() == gc.tobytes()

    def test_floored_row_passes_no_gradient_through_its_norm(self):
        upstream = np.arange(6.0).reshape(3, 2) - 2.5
        inputs = self.floored_inputs()
        with pytest.warns(UserWarning, match="norm"):
            _, (g_freqs, g_phases) = value_and_gradients(lambda f, p: build_bases(f, p, 2), inputs, upstream)
        # with the norm held at 1e-8, row 0 is cos(angle) / 1e-8
        t = np.arange(2.0)
        angle = inputs[0].data[0] * t * (2.0 * np.pi) + inputs[1].data[0]
        d_angle = -(upstream[0] / 1e-8) * np.sin(angle)
        np.testing.assert_allclose(g_phases[0], d_angle.sum(), rtol=1e-12)
        np.testing.assert_allclose(g_freqs[0], (d_angle * 2.0 * np.pi * t).sum(), rtol=1e-12)

    def test_untracked_inputs_give_a_constant(self):
        out = build_bases(Tensor([0.1, 0.2]), Tensor([0.0, 0.5]), 8)
        assert not out.requires_grad and out._backward is None


@st.composite
def softmax_draws(draw):
    rng = np.random.default_rng(draw(SEEDS))
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 8)))
    scale = draw(st.sampled_from([1.0, 30.0, 1e3]))
    return scale * rng.normal(size=shape), rng.normal(size=shape), draw(st.sampled_from([-1, 0]))


class TestSoftmax:
    @settings(max_examples=40, deadline=None)
    @example(case=(np.array([[1000.0, 0.0]]), np.array([[1.0, -2.0]]), -1))
    @given(case=softmax_draws())
    def test_equals_composed_graph(self, case):
        x, upstream, axis = case
        assert_same_bytes(lambda t: softmax(t, axis=axis), lambda t: composed_softmax(t, axis=axis),
                          [tracked(x)], upstream)

    @settings(max_examples=15, deadline=None)
    @given(case=softmax_draws())
    def test_matches_finite_differences(self, case):
        x, upstream, axis = case
        x = x / np.abs(x).max()  # keep the differences off the saturated tails
        assert_matches_finite_differences(lambda t: softmax(t, axis=axis), [tracked(x)], upstream, 1e-6)


@st.composite
def selection_draws(draw):
    """Scores [B, N], Gumbel noise, a temperature and an upstream gradient, B = 1 and N = 1 included."""
    rng = np.random.default_rng(draw(SEEDS))
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 8)))
    scale = draw(st.sampled_from([0.3, 3.0, 30.0]))
    noise = -np.log(-np.log(rng.uniform(1e-12, 1.0 - 1e-12, size=shape)))
    tau = draw(st.sampled_from([0.1, 0.7, 1.0, 2.5]))
    return scale * rng.normal(size=shape), noise, tau, rng.normal(size=shape)


class TestSelectionWeights:
    @settings(max_examples=40, deadline=None)
    @example(case=(np.array([[1.0]]), np.array([[0.3]]), 0.7, np.array([[2.0]])))  # N = 1
    @example(case=(np.array([[1000.0, 0.0, -5.0]]), np.zeros((1, 3)), 0.1, np.array([[1.0, -2.0, 0.5]])))
    @given(case=selection_draws())
    def test_equals_composed_graph(self, case):
        scores, noise, tau, upstream = case
        fused = lambda s: selection_weights(s, noise, tau)  # noqa: E731
        assert_same_bytes(fused, lambda s: composed_selection_weights(s, noise, tau), [tracked(scores)], upstream)
        # and the graph of the fused softmax it absorbed
        assert_same_bytes(fused, lambda s: softmax((s + Tensor(noise)) / tau), [tracked(scores)], upstream)

    @settings(max_examples=15, deadline=None)
    @given(case=selection_draws())
    def test_matches_finite_differences(self, case):
        scores, noise, tau, upstream = case
        scores = scores / np.abs(scores).max() * tau  # keep the differences off the saturated tails
        assert_matches_finite_differences(lambda s: selection_weights(s, noise, tau), [tracked(scores)],
                                          upstream, 1e-6)

    def test_untracked_scores_give_a_constant(self):
        out = selection_weights(Tensor(np.ones((2, 3))), np.zeros((2, 3)), 0.5)
        assert not out.requires_grad and out._backward is None
        np.testing.assert_allclose(out.data, 1.0 / 3.0, rtol=1e-15)


@st.composite
def mlp_draws(draw):
    """Operands of the model's three perceptrons at drawn sizes."""
    rng = np.random.default_rng(draw(SEEDS))
    b, d, c = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 3))
    site = draw(st.sampled_from(["scorer", "heads", "residual"]))
    if site == "scorer":  # input coefficients [B, N, C] -> [B, N, 1] over the B*N rows, the [hidden, 1] output layer
        n, hidden = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        shapes = (b, n, d), (d, hidden), (hidden, 1), (b, n, 1)
    elif site == "heads":  # K stacked heads [K, B, d] -> [K, B, H*C]
        k, out = draw(st.integers(1, 4)), draw(st.integers(1, 4)) * c
        shapes = (k, b, d), (k, d, d), (k, d, out), (k, b, out)
    else:  # flattened window [B, L*C] -> [B, H*C]
        lc, out = draw(st.integers(2, 8)) * c, draw(st.integers(1, 4)) * c
        shapes = (b, lc), (lc, d), (d, out), (b, out)
    operands = [rng.normal(size=s) for s in shapes[:3]]
    if draw(st.booleans()):  # a zero input row: its hidden units sit exactly on the ReLU kink
        operands[0][..., 0, :] = 0.0
    track = draw(st.sampled_from([(True, True, True), (False, True, True), (True, False, False)]))
    return operands, track, rng.normal(size=shapes[3])


class TestReluMlp:
    @settings(max_examples=60, deadline=None)
    @given(case=mlp_draws())
    def test_equals_composed_graph(self, case):
        operands, track, upstream = case
        inputs = [tracked(a, t) for a, t in zip(operands, track)]
        assert_same_bytes(ad.relu_mlp, composed_relu_mlp, inputs, upstream)

    @settings(max_examples=20, deadline=None)
    @given(case=mlp_draws())
    def test_matches_finite_differences(self, case):
        operands, track, upstream = case
        inputs = [tracked(a + 0.01, t) for a, t in zip(operands, track)]  # off the kink
        assert_matches_finite_differences(ad.relu_mlp, inputs, upstream, 1e-6)

    @pytest.mark.parametrize("rows", [5, 4], ids=["transposed_outer", "c_order_outer"])
    def test_nan_and_signed_zero_pre_activations_equal_composed_graph(self, rows):
        # the scorer's length-1 first layer forms each pre-activation as one
        # product, so NaN, -0.0 and +0.0 reach the in-place ReLU as they are
        x = np.array([-0.0, 0.0, np.nan, 1.5, -2.0])[:rows].reshape((1, rows, 1))
        w1 = np.array([[1.0, -1.0, 0.0, 0.5]])
        pre = x.reshape((rows, 1)) * w1
        zero = pre == 0
        assert np.isnan(pre).any() and (zero & np.signbit(pre)).any() and (zero & ~np.signbit(pre)).any()
        w2 = np.random.default_rng(3).normal(size=(4, 1))
        upstream = np.random.default_rng(4).normal(size=(1, rows, 1))
        for track in [(True, True, True), (False, True, True), (True, False, False)]:
            inputs = [tracked(a, t) for a, t in zip((x, w1, w2), track)]
            assert_same_bytes(ad.relu_mlp, composed_relu_mlp, inputs, upstream)

    def test_shape_errors_name_the_operands(self):
        with pytest.raises(ValueError, match=r"relu_mlp: shapes \(2, 3\) and \(4, 5\)"):
            ad.relu_mlp(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))), Tensor(np.ones((5, 1))))
        with pytest.raises(ValueError, match=r"relu_mlp: shapes \(2, 5\) and \(4, 1\)"):
            ad.relu_mlp(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 5))), Tensor(np.ones((4, 1))))


@st.composite
def straight_through_draws(draw):
    """Contributions [B, K, H, C], weights [B, N], slot indices [B, K] and an upstream gradient."""
    rng = np.random.default_rng(draw(SEEDS))
    b, k, h, c = (draw(st.integers(1, n)) for n in (5, 4, 3, 3))
    n = k + draw(st.integers(0, 3))
    if draw(st.booleans()):  # distinct per row, as the model's top-K gives
        selected = np.argsort(rng.normal(size=(b, n)), axis=1)[:, :k]
    else:  # repeats scatter with np.add.at
        selected = rng.integers(0, n, size=(b, k))
    weights = rng.dirichlet(np.ones(n), size=b)
    return rng.normal(size=(b, k, h, c)), weights, selected, rng.normal(size=(b, k, h, c))


class TestStraightThrough:
    @settings(max_examples=40, deadline=None)
    @example(case=(np.ones((1, 1, 1, 1)), np.ones((1, 1)), np.zeros((1, 1), dtype=int), -np.ones((1, 1, 1, 1))))
    @given(case=straight_through_draws())
    def test_equals_composed_graph(self, case):
        contributions, weights, selected, upstream = case
        fused = lambda c, w: straight_through(c, w, selected)  # noqa: E731
        inputs = [tracked(contributions), tracked(weights)]
        assert_same_bytes(fused, lambda c, w: composed_straight_through(c, w, selected), inputs, upstream)
        # and the graph of the gather and the fused weight it absorbed
        assert_same_bytes(fused, lambda c, w: gathered_straight_through(c, ad.gather_rows(w, selected)),
                          inputs, upstream)

    @settings(max_examples=15, deadline=None)
    @given(case=straight_through_draws())
    def test_matches_finite_differences(self, case):
        # the value does not move with the weights; their gradient is the
        # derivative of ``contributions * w_sel``, the estimator's surrogate
        contributions, weights, selected, upstream = case
        b, k = selected.shape
        inputs = [tracked(contributions), tracked(weights)]
        fused = lambda c, w: straight_through(c, w, selected)  # noqa: E731
        assert_matches_finite_differences(fused, [inputs[0], Tensor(weights)], upstream, 1e-6)
        _, (_, g_weights) = value_and_gradients(fused, inputs, upstream)
        surrogate = lambda w: (  # noqa: E731
            Tensor(contributions) * ad.gather_rows(w, selected).reshape((b, k, 1, 1)) * Tensor(upstream)
        ).sum()
        assert check_gradients(surrogate, Tensor(weights)) < 1e-6
        want = np.zeros_like(weights)
        np.add.at(want, (np.arange(b)[:, None], selected), (contributions * upstream).sum(axis=(2, 3)))
        np.testing.assert_allclose(g_weights, want, rtol=1e-12, atol=1e-15)

    def test_value_is_exactly_the_contributions(self):
        rng = np.random.default_rng(3)
        contributions = rng.normal(size=(4, 3, 2, 2))
        selected = np.argsort(rng.normal(size=(4, 5)), axis=1)[:, :3]
        out = straight_through(tracked(contributions), tracked(rng.dirichlet(np.ones(5), size=4)), selected)
        assert out.data.tobytes() == contributions.tobytes()


@st.composite
def prediction_draws(draw):
    """Forecast [B, H, C], target and upstream gradient; B = 1 and exact hits (zero error) included."""
    rng = np.random.default_rng(draw(SEEDS))
    shape = tuple(draw(st.integers(1, n)) for n in (5, 6, 3))
    y_hat = rng.normal(size=shape)
    target = rng.normal(size=shape)
    if draw(st.booleans()):
        target[0] = y_hat[0]
    return y_hat, target, np.array(draw(st.sampled_from([1.0, 0.37, -2.0])))


class TestPredictionLoss:
    @settings(max_examples=40, deadline=None)
    @given(case=prediction_draws())
    def test_equals_composed_graph(self, case):
        y_hat, target, upstream = case
        assert_same_bytes(lambda y: prediction_loss(y, target), lambda y: composed_prediction_loss(y, target),
                          [tracked(y_hat)], upstream)

    @settings(max_examples=15, deadline=None)
    @given(case=prediction_draws())
    def test_matches_finite_differences(self, case):
        y_hat, target, upstream = case
        assert_matches_finite_differences(lambda y: prediction_loss(y, target), [tracked(y_hat)], upstream, 1e-6)

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"prediction_loss: shapes \(2, 3, 1\) and \(2, 4, 1\)"):
            prediction_loss(Tensor(np.ones((2, 3, 1))), np.ones((2, 4, 1)))


@st.composite
def total_draws(draw):
    """The three loss terms and the weights; an untracked zero ``reg`` is the one-basis model's."""
    rng = np.random.default_rng(draw(SEEDS))
    pred, reg, recon = rng.uniform(0.0, 3.0, size=3)
    weights = LossWeights(lambda_div=draw(st.sampled_from([0.0, 0.01, 0.7])),
                          lambda_recon=draw(st.sampled_from([0.0, 0.1, 1.0])))
    track_reg = draw(st.booleans())
    inputs = [tracked(pred), tracked(reg) if track_reg else Tensor(0.0), tracked(recon)]
    return inputs, weights, np.array(draw(st.sampled_from([1.0, -0.5])))


class TestWeightedTotal:
    @settings(max_examples=40, deadline=None)
    @given(case=total_draws())
    def test_equals_composed_graph(self, case):
        inputs, weights, upstream = case
        assert_same_bytes(lambda p, r, c: weighted_total(p, r, c, weights),
                          lambda p, r, c: composed_weighted_total(p, r, c, weights), inputs, upstream)

    @settings(max_examples=15, deadline=None)
    @given(case=total_draws())
    def test_matches_finite_differences(self, case):
        inputs, weights, upstream = case
        assert_matches_finite_differences(lambda p, r, c: weighted_total(p, r, c, weights), inputs, upstream, 1e-6)


@st.composite
def mix_draws(draw):
    """The gate and both paths [B, H, C]; the gate is a tracked leaf, a sigmoid of a tracked logit, or a constant."""
    rng = np.random.default_rng(draw(SEEDS))
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 3)))
    gate = draw(st.sampled_from(["leaf", "logit", "force_alpha"]))
    if gate == "force_alpha":  # the pinned gate is a constant
        alpha = Tensor(draw(st.sampled_from([0.0, 0.3, 1.0])))
    else:
        alpha = tracked(rng.uniform(0.0, 1.0) if gate == "leaf" else rng.normal())
    track = draw(st.sampled_from([(True, True), (True, False), (False, True)]))
    paths = [tracked(rng.normal(size=shape), t) for t in track]
    build, composed = gate_mix, composed_gate_mix
    if gate == "logit":
        build = lambda a, f, r: gate_mix(ad.sigmoid(a), f, r)  # noqa: E731
        composed = lambda a, f, r: composed_gate_mix(ad.sigmoid(a), f, r)  # noqa: E731
    return build, composed, [alpha, *paths], rng.normal(size=shape)


class TestGateMix:
    @settings(max_examples=40, deadline=None)
    @given(case=mix_draws())
    def test_equals_composed_graph(self, case):
        build, composed, inputs, upstream = case
        assert_same_bytes(build, composed, inputs, upstream)

    @settings(max_examples=15, deadline=None)
    @given(case=mix_draws())
    def test_matches_finite_differences(self, case):
        build, _, inputs, upstream = case
        assert_matches_finite_differences(build, inputs, upstream, 1e-6)


@st.composite
def frequency_draws(draw):
    rng = np.random.default_rng(draw(SEEDS))
    n = draw(st.integers(2, 8))
    if draw(st.booleans()):  # ties: duplicates sit on the barrier, the stable sort orders them
        freqs = rng.choice([0.01, 0.05, 0.2], size=n)
    else:
        freqs = np.exp(rng.uniform(np.log(1e-3), np.log(0.5), size=n))
    return freqs


class TestDiversityLoss:
    @settings(max_examples=40, deadline=None)
    @given(freqs=frequency_draws())
    def test_equals_composed_graph(self, freqs):
        assert_same_bytes(diversity_loss, lambda f: composed_diversity_loss(f, DIVERSITY_EPSILON),
                          [tracked(freqs)], np.array(1.7))

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(2, 8), seed=SEEDS)
    def test_matches_finite_differences(self, n, seed):
        # shuffled, with log gaps of at least 0.1: steps of 1e-8 then resolve the barrier's curvature
        rng = np.random.default_rng(seed)
        freqs = rng.permutation(1e-3 * np.exp(np.cumsum(rng.uniform(0.1, 1.0, size=n))))
        assert_matches_finite_differences(diversity_loss, [tracked(freqs)], np.array(1.0), 1e-5, eps=1e-8)


@st.composite
def reconstruction_draws(draw):
    rng = np.random.default_rng(draw(SEEDS))
    b, L, n, c, d = (draw(st.integers(lo, hi)) for lo, hi in ((1, 5), (2, 10), (1, 5), (1, 3), (1, 4)))
    psi_bar = rng.normal(size=(n, L))
    x = rng.normal(size=(b, L, c))
    xc = psi_bar @ x
    # the fixed-prior model's bases and coefficients are untracked
    track = draw(st.sampled_from([(True, True), (False, False), (True, False)]))
    return [tracked(xc, track[0]), tracked(psi_bar, track[1]), Tensor(x), tracked(rng.normal(size=(c, d)))]


class TestReconstructionLoss:
    @settings(max_examples=40, deadline=None)
    @example(inputs=[tracked(np.ones((1, 1, 1))), tracked(np.ones((1, 2))), Tensor(np.zeros((1, 2, 1))),
                     tracked(np.ones((1, 1)))])
    @given(inputs=reconstruction_draws())
    def test_equals_composed_graph(self, inputs):
        assert_same_bytes(reconstruction_loss, composed_reconstruction_loss, inputs, np.array(0.3))

    @settings(max_examples=15, deadline=None)
    @given(inputs=reconstruction_draws())
    def test_matches_finite_differences(self, inputs):
        assert_matches_finite_differences(reconstruction_loss, inputs, np.array(1.0), 1e-6)

    def test_equals_the_hidden_space_error(self):
        rng = np.random.default_rng(4)
        psi_bar, x, w = rng.normal(size=(3, 7)), rng.normal(size=(2, 7, 2)), rng.normal(size=(2, 5))
        xc = psi_bar @ x
        value = reconstruction_loss(Tensor(xc), Tensor(psi_bar), Tensor(x), Tensor(w)).item()
        assert value == pytest.approx(np.mean((psi_bar.T @ (xc @ w) - x @ w) ** 2), rel=1e-12)


# ---------------------------------------------------------------------------
# whole training steps: every fused node at once, cross-node sums included
# ---------------------------------------------------------------------------


@st.composite
def model_draws(draw):
    n = draw(st.integers(1, 8))
    return dict(
        L=draw(st.integers(3, 16)),
        H=draw(st.integers(1, 6)),
        C=draw(st.integers(1, 3)),
        d=draw(st.integers(1, 6)),
        N=n,
        K=draw(st.integers(1, n)),
        seed=draw(SEEDS),
    )


def step(config, batch, training, seed):
    """Outputs, loss and named parameter gradients of one forward + ``total_loss``."""
    model = FreqLens(config)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch, config.L, config.C))
    y = rng.normal(size=(batch, config.H, config.C))
    out = model.forward(x, training=training, tau=0.7, rng=rng) if training else model.forward(x)
    loss, _ = total_loss(model, out, y, LossWeights(lambda_div=0.01, lambda_recon=1.0))
    grads = backward(loss)
    named = {name: grads[p.node_id] for name, p in model.parameters() if p.node_id in grads}
    fields = ("y_hat", "y_freq", "y_res", "contributions", "input_coefficients", "bases", "frequencies")
    values = {f: getattr(out, f).data.tobytes() for f in fields}
    values["selected"] = out.selected.tobytes()
    values["loss"] = loss.data.tobytes()
    return values, named


def assert_step_equals_composed(config, batch, training, seed):
    values, grads = step(config, batch, training, seed)
    with pytest.MonkeyPatch.context() as m:
        use_composed_graphs(m)
        want_values, want_grads = step(config, batch, training, seed)
    assert values == want_values
    assert set(grads) == set(want_grads)
    for name, g in grads.items():
        assert g.tobytes() == want_grads[name].tobytes(), name


class TestTrainingStep:
    @settings(max_examples=25, deadline=None)
    @example(dims=dict(L=5, H=1, C=1, d=1, N=1, K=1, seed=1), batch=1, training=True)
    @example(dims=dict(L=12, H=4, C=3, d=4, N=6, K=6, seed=2), batch=5, training=True)
    @given(dims=model_draws(), batch=st.integers(1, 5), training=st.booleans())
    def test_equals_composed_graphs(self, dims, batch, training):
        assert_step_equals_composed(ModelConfig(**dims), batch, training, dims["seed"])

    @pytest.mark.parametrize(
        "overrides",
        [dict(N=2, K=2, prior_periods=(24.0, 12.0)), dict(force_alpha=1.0), dict(force_alpha=0.3), dict(C=3),
         dict(K=1)],
        ids=["fixed_prior", "force_alpha_1", "force_alpha_0.3", "three_channels", "one_slot"],
    )
    @pytest.mark.parametrize("batch", [1, 32], ids=["B1", "B32"])
    def test_acceptance_config_variants(self, overrides, batch):
        config = ModelConfig(**{**dict(L=96, H=24, C=1, d=32, N=16, K=4, seed=0), **overrides})
        assert_step_equals_composed(config, batch, True, 7)


class TestTapeSize:
    """Tapes at the acceptance config, so a regression shows here."""

    # forward 22 + total_loss 4; the op-by-op graphs take 96.  The
    # scorer's folded first layer ``input_proj @ scorer_w1`` is one
    # tensor, the heads' ``xc[selected] @ input_proj`` another, and the
    # gate mix one where its graph took five
    FUSED_STEP_TENSORS = 26
    # an evaluation forward builds no selection weights and no
    # straight-through weight; the bases take 2 when the cache misses
    EVAL_FORWARD_TENSORS = 18
    # a fixed-prior step's total_loss at N = K = 2: the orthogonality
    # penalty's squared deviation from the identity is one node
    FIXED_PRIOR_LOSS_TENSORS = 13

    @staticmethod
    def tensors_taken(run):
        start = Tensor(0.0).node_id
        result = run()
        return Tensor(0.0).node_id - start - 1, result

    @staticmethod
    def acceptance_model():
        return FreqLens(ModelConfig(L=96, H=24, C=1, d=32, N=16, K=4, seed=42))

    def acceptance_step(self):
        model = self.acceptance_model()
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=(32, 96, 1)), rng.normal(size=(32, 24, 1))

        def run():
            out = model.forward(x, training=True, tau=0.7, rng=rng)
            return total_loss(model, out, y, LossWeights(lambda_div=0.01, lambda_recon=1.0))[0]

        return model, *self.tensors_taken(run)

    def test_training_step_tensor_count(self):
        _, count, _ = self.acceptance_step()
        assert count == self.FUSED_STEP_TENSORS

    def test_evaluation_forward_tensor_count(self):
        model = self.acceptance_model()
        x = np.random.default_rng(0).normal(size=(32, 96, 1))
        fresh, _ = self.tensors_taken(lambda: model.forward(x))
        cached, _ = self.tensors_taken(lambda: model.forward(x))
        assert (fresh, cached) == (self.EVAL_FORWARD_TENSORS + 2, self.EVAL_FORWARD_TENSORS)

    def test_fixed_prior_loss_tensor_count(self):
        model = FreqLens(ModelConfig(L=96, H=24, C=1, d=32, N=2, K=2, seed=42, prior_periods=(24.0, 12.0)))
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=(32, 96, 1)), rng.normal(size=(32, 24, 1))
        out = model.forward(x, training=True, tau=0.7, rng=rng)
        count, _ = self.tensors_taken(lambda: total_loss(model, out, y, LossWeights(lambda_div=0.01, lambda_recon=1.0)))
        assert count == self.FIXED_PRIOR_LOSS_TENSORS

    def test_backward_returns_exactly_the_parameter_gradients(self):
        model, _, loss = self.acceptance_step()
        grads = backward(loss)
        params = {p.node_id for _, p in model.parameters()}
        assert len(params) == 11 and set(grads) == params

    def test_composed_graphs_take_96(self, monkeypatch):
        use_composed_graphs(monkeypatch)
        _, count, _ = self.acceptance_step()
        assert count == 96
