"""The one-pass ``backward`` against the two-pass tape walk it replaced."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freqlens import autodiff as ad
from freqlens.autodiff import Tensor, backward
from freqlens.model import FreqLens, ModelConfig
from freqlens.training import LossWeights, total_loss


def two_pass_backward(loss):
    """The walk-then-replay ``backward`` the heap walk replaced, kept as an oracle.

    It returns a gradient for every tracked node the loss reaches,
    intermediates included.
    """
    if not loss.requires_grad:
        return {}
    nodes = {}
    stack = [loss]
    while stack:
        t = stack.pop()
        if t.node_id in nodes:
            continue
        nodes[t.node_id] = t
        for parent in t._parents:
            if parent.requires_grad:
                stack.append(parent)
    grads = {loss.node_id: np.ones_like(loss.data)}
    for node_id in sorted(nodes, reverse=True):
        t = nodes[node_id]
        g = grads.get(node_id)
        if g is None or t._backward is None:
            continue
        for parent, pg in zip(t._parents, t._backward(g)):
            if pg is None or not parent.requires_grad:
                continue
            acc = grads.get(parent.node_id)
            grads[parent.node_id] = pg if acc is None else acc + pg
    return grads


def reached_leaves(loss):
    """Ids of the tracked tensors without a backward rule that ``loss`` depends on."""
    seen, leaves, stack = set(), set(), [loss]
    while stack:
        t = stack.pop()
        if t.node_id in seen or not t.requires_grad:
            continue
        seen.add(t.node_id)
        if t._backward is None:
            leaves.add(t.node_id)
        stack.extend(t._parents)
    return leaves


def assert_leaf_gradients_match_reference(loss):
    """``backward`` returns exactly the reached leaves, each byte-equal to the two-pass walk."""
    got = backward(loss)
    reference = two_pass_backward(loss)
    assert set(got) == reached_leaves(loss)
    for node_id, g in got.items():
        ref = reference[node_id]
        assert g.shape == ref.shape and g.dtype == ref.dtype, node_id
        assert g.tobytes() == ref.tobytes(), node_id
    return got


@st.composite
def model_dims(draw):
    n = draw(st.integers(1, 8))
    return dict(
        L=draw(st.integers(3, 16)),
        H=draw(st.integers(1, 6)),
        C=draw(st.integers(1, 3)),
        d=draw(st.integers(1, 6)),
        N=n,
        K=draw(st.integers(1, n)),
        B=draw(st.integers(1, 5)),
        seed=draw(st.integers(0, 2**31 - 1)),
    )


def model_loss(model, batch, seed, training, weights=LossWeights(lambda_div=0.01, lambda_recon=1.0)):
    rng = np.random.default_rng(seed)
    config = model.config
    x = rng.normal(size=(batch, config.L, config.C))
    y = rng.normal(size=(batch, config.H, config.C))
    out = model.forward(x, training=training, rng=rng, tau=0.7) if training else model.forward(x)
    return total_loss(model, out, y, weights)[0]


class TestModelLosses:
    @settings(max_examples=30, deadline=None)
    @example(dims=dict(L=5, H=1, C=1, d=1, N=1, K=1, B=1, seed=1), training=True)
    @example(dims=dict(L=12, H=4, C=3, d=4, N=6, K=6, B=5, seed=2), training=False)
    @given(dims=model_dims(), training=st.booleans())
    def test_leaf_gradients_equal_the_two_pass_walk(self, dims, training):
        dims = dict(dims)
        batch = dims.pop("B")
        model = FreqLens(ModelConfig(**dims))
        grads = assert_leaf_gradients_match_reference(model_loss(model, batch, dims["seed"], training))
        assert set(grads) <= {p.node_id for _, p in model.parameters()}

    @pytest.mark.parametrize("training", [True, False], ids=["training", "evaluation"])
    @pytest.mark.parametrize(
        "overrides",
        [dict(N=2, K=2, prior_periods=(8.0, 4.0)), dict(force_alpha=1.0), dict(force_alpha=0.3)],
        ids=["fixed_prior", "force_alpha_1", "force_alpha_0.3"],
    )
    def test_pinned_models(self, overrides, training):
        config = dict(L=16, H=4, C=2, d=4, N=6, K=3, seed=5)
        model = FreqLens(ModelConfig(**{**config, **overrides}))
        assert_leaf_gradients_match_reference(model_loss(model, 4, 5, training))

    def test_training_step_returns_the_parameter_gradients(self):
        # the acceptance config at the recipe's batch size
        model = FreqLens(ModelConfig(L=96, H=24, C=1, d=32, N=16, K=4, seed=42))
        grads = assert_leaf_gradients_match_reference(model_loss(model, 32, 42, training=True))
        params = {p.node_id: name for name, p in model.parameters()}
        assert len(params) == 11
        assert set(grads) == set(params)


class TestFanOut:
    def test_square_by_self_product(self):
        x = Tensor(np.array([1.5, -2.0, 0.25]), requires_grad=True)
        grads = assert_leaf_gradients_match_reference((x * x).sum())
        assert grads[x.node_id].tolist() == [3.0, -4.0, 0.5]

    def test_intermediate_used_by_three_consumers(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        h = ad.exp(x @ w)
        loss = (ad.square(h) + h * ad.sigmoid(h) - ad.cos(h)).mean()
        assert set(assert_leaf_gradients_match_reference(loss)) == {x.node_id, w.node_id}

    def test_leaf_used_by_three_consumers_and_twice_by_one(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        c = Tensor(rng.normal(size=(5,)))
        loss = (x * x + ad.sigmoid(x) * c).sum() + ad.square(x - c).mean()
        assert set(assert_leaf_gradients_match_reference(loss)) == {x.node_id}

    def test_untracked_branches_take_no_entry(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        const = Tensor(np.array([3.0, 4.0]))
        loss = (x * const + ad.exp(const)).sum()
        assert set(assert_leaf_gradients_match_reference(loss)) == {x.node_id}


class TestEdgeCases:
    def test_leaf_loss_is_its_own_gradient(self):
        x = Tensor(np.array(2.0), requires_grad=True)
        assert backward(x) == {x.node_id: np.ones(())}

    def test_untracked_loss_has_no_gradients(self):
        assert backward(Tensor(np.array(2.0))) == {}

    def test_repeated_calls_return_equal_bytes(self):
        x = Tensor(np.array([0.5, -1.0]), requires_grad=True)
        loss = ad.square(ad.sigmoid(x) * x).sum()
        first, second = backward(loss), backward(loss)
        assert first[x.node_id].tobytes() == second[x.node_id].tobytes()
