"""Gradient-engine tests: exact op values and finite-difference oracles."""

import numpy as np
import pytest

from freqlens import autodiff as ad
from freqlens.autodiff import Tensor, backward, check_gradients, finite_difference
from test_fused import relu


def grad_of(loss, param):
    grads = backward(loss)
    return grads[param.node_id]


class TestForwardValues:
    def test_sigmoid_at_zero(self):
        assert ad.sigmoid(Tensor(0.0)).item() == 0.5

    def test_matmul_1x2_2x1(self):
        out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_length_one_contraction_equals_matmul(self):
        # the broadcast-multiply path must give exactly the values of ``@``
        rng = np.random.default_rng(10)
        for _ in range(50):
            m, n = rng.integers(1, 6, size=2)
            batch = rng.integers(1, 4, size=rng.integers(0, 3))

            def operand_batch():
                # a trailing part of the common batch shape, some sizes broadcast from 1
                kept = batch[rng.integers(0, batch.size + 1):]
                return tuple(int(s) if rng.random() < 0.5 else 1 for s in kept)

            a = rng.normal(size=operand_batch() + (m, 1))
            b = rng.normal(size=operand_batch() + (1, n))
            out = ad.matmul(Tensor(a), Tensor(b))
            np.testing.assert_array_equal(out.data, a @ b)
            assert out.shape == (a @ b).shape

    def test_matmul_shape_error_names_shapes(self):
        with pytest.raises(ValueError, match=r"matmul.*\(2, 3\).*\(2, 3\)"):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_add_shape_error(self):
        with pytest.raises(ValueError, match="add"):
            Tensor(np.ones(3)) + Tensor(np.ones(4))

    @pytest.mark.parametrize("name", ["add", "sub", "mul", "div"])
    def test_binary_shape_error_names_both_shapes(self, name):
        with pytest.raises(ValueError, match=rf"^{name}: shapes \(2, 3\) and \(4,\) are not broadcastable$"):
            getattr(ad, name)(Tensor(np.ones((2, 3))), Tensor(np.ones(4)))


class TestBackwardValues:
    def test_sigmoid_grad_at_zero(self):
        theta = Tensor(0.0, requires_grad=True)
        loss = ad.sigmoid(theta)
        assert grad_of(loss, theta) == pytest.approx(0.25, abs=1e-15)

    def test_sum_of_squares_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = ad.square(x).sum()
        np.testing.assert_allclose(grad_of(loss, x), [2.0, 4.0], atol=1e-15)

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            backward(x + x)

    def test_fanout_sums_branch_gradients(self):
        # f = x*x through two uses of the same node: df/dx = 2x
        x = Tensor(3.0, requires_grad=True)
        loss = x * x
        assert grad_of(loss, x) == pytest.approx(6.0)

    def test_gradient_shapes_match_parameters(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        loss = ((a + b) * b).sum()
        grads = backward(loss)
        assert grads[a.node_id].shape == a.shape
        assert grads[b.node_id].shape == b.shape


class TestGatherRows:
    def test_forward_selection(self):
        x = Tensor(np.arange(12.0).reshape(2, 3, 2))
        idx = np.array([[2, 0], [1, 1]])
        out = ad.gather_rows(x, idx)
        np.testing.assert_allclose(out.data[0, 0], x.data[0, 2])
        np.testing.assert_allclose(out.data[1, 1], x.data[1, 1])

    def test_backward_scatter_adds_duplicates(self):
        x = Tensor(np.zeros((1, 3, 2)), requires_grad=True)
        idx = np.array([[1, 1]])
        loss = ad.gather_rows(x, idx).sum()
        g = grad_of(loss, x)
        np.testing.assert_allclose(g[0, 1], [2.0, 2.0])
        np.testing.assert_allclose(g[0, 0], [0.0, 0.0])

    def test_distinct_indices_scatter_equals_add_at_bytewise(self):
        # the distinct-index path adds 0.0 + g as np.add.at does, so -0.0 becomes +0.0
        rng = np.random.default_rng(14)
        x = Tensor(rng.normal(size=(5, 6, 3)), requires_grad=True)
        idx = np.argsort(rng.normal(size=(5, 6)), axis=1)[:, :4]
        out = ad.gather_rows(x, idx)
        g = rng.normal(size=out.shape)
        g[g < 0] = -0.0
        assert np.signbit(g[g == 0]).any()
        (gx,) = out._backward(g)
        want = np.zeros_like(x.data)
        np.add.at(want, (np.arange(5)[:, None], idx), g)
        assert gx.tobytes() == want.tobytes()


# every registered op, finite differences vs reverse mode (the oracle-only
# primitives exp, log, cos, relu, neg, getitem and softmax are checked in
# test_fused.py)
ELEMENTWISE_CASES = [
    ("square", lambda t: ad.square(t).sum(), (5,)),
    ("sqrt", lambda t: ad.sqrt(ad.square(t) + 1.0).sum(), (5,)),
    ("sigmoid", lambda t: ad.sigmoid(t).sum(), (5,)),
    ("mean_axis", lambda t: ad.square(t.mean(axis=0)).sum(), (4, 3)),
    ("sum_axis", lambda t: ad.square(t.sum(axis=1)).sum(), (4, 3)),
    ("reshape", lambda t: ad.square(t.reshape((6, 2))).sum(), (3, 4)),
    ("transpose", lambda t: ad.square(ad.transpose(t)).mean(), (3, 4)),
    ("transpose_axes", lambda t: ad.square(ad.transpose(t, (-1, 0, 1))).mean(), (2, 3, 4)),
    ("clip", lambda t: ad.clip(t, -0.2, np.inf).sum(), (5,)),
]


@pytest.mark.parametrize("name,fn,shape", ELEMENTWISE_CASES, ids=[c[0] for c in ELEMENTWISE_CASES])
def test_op_gradients_match_finite_differences(name, fn, shape):
    rng = np.random.default_rng(hash(name) % 2**32)
    point = Tensor(rng.normal(size=shape) + 0.05)  # nudge off relu/abs kinks
    assert check_gradients(fn, point, eps=1e-5) < 1e-4


class TestBinaryOpGradients:
    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.div])
    def test_broadcast_backward_reduces(self, op):
        rng = np.random.default_rng(7)
        a = Tensor(rng.normal(size=(3, 4)) + 3.0, requires_grad=True)
        b = Tensor(rng.normal(size=(4,)) + 3.0, requires_grad=True)
        loss = ad.square(op(a, b)).sum()
        grads = backward(loss)
        fd = finite_difference(lambda: ad.square(op(Tensor(a.data), Tensor(b.data))).sum().item(), [a, b])
        np.testing.assert_allclose(grads[a.node_id], fd[0], rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(grads[b.node_id], fd[1], rtol=1e-6, atol=1e-8)

    def test_matmul_gradients(self):
        rng = np.random.default_rng(8)
        a = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        loss = ad.square(ad.matmul(a, b)).sum()
        grads = backward(loss)
        fd = finite_difference(
            lambda: ad.square(ad.matmul(Tensor(a.data), Tensor(b.data))).sum().item(), [a, b]
        )
        np.testing.assert_allclose(grads[a.node_id], fd[0], rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(grads[b.node_id], fd[1], rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize(
        "sa,sb", [((5, 1), (1, 4)), ((2, 5, 1), (1, 4)), ((5, 1), (3, 1, 4)), ((2, 1, 5, 1), (3, 1, 4))]
    )
    def test_length_one_contraction_gradients(self, sa, sb):
        rng = np.random.default_rng(11)
        a = Tensor(rng.normal(size=sa), requires_grad=True)
        b = Tensor(rng.normal(size=sb), requires_grad=True)
        grads = backward(ad.square(ad.matmul(a, b)).sum())
        fd = finite_difference(
            lambda: ad.square(ad.matmul(Tensor(a.data), Tensor(b.data))).sum().item(), [a, b]
        )
        np.testing.assert_allclose(grads[a.node_id], fd[0], rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(grads[b.node_id], fd[1], rtol=1e-6, atol=1e-8)

    # the model's projection and reconstruction at C = 1 and the training
    # batch of 32, the [1, M] @ [M, 1] Gram, and the projection at C = 3
    MODEL_SHAPES = [((4, 6), (32, 6, 1)), ((6, 4), (32, 4, 1)), ((1, 7), (7, 1)), ((4, 6), (32, 6, 3))]

    # shapes whose gradients keep the per-sample rule: the K heads' stacked
    # weights, the residual's 2-D product, the [1, M] @ [M, 1] Gram, and a
    # length-1 contraction with both operands broadcast
    PER_SAMPLE_SHAPES = [((4, 32, 6), (4, 6, 5)), ((32, 6), (6, 5)), ((1, 7), (7, 1)), ((2, 1, 5, 1), (3, 1, 4))]

    # a 2-D operand against a batched one, whose gradient is one GEMM over
    # the flattened batch: the model's projection (C = 1 and 3) and
    # reconstruction from MODEL_SHAPES, then its input projection and scorer
    # layers, two leading batch dimensions, B = 1, and the ragged last batch
    # of 37 windows
    MORE_FOLDED_SHAPES = [
        ((32, 4, 1), (1, 5)), ((32, 4, 5), (5, 3)), ((32, 4, 3), (3, 1)),
        ((2, 3, 5, 4), (4, 6)), ((5, 4), (2, 3, 4, 6)),
        ((1, 5, 4), (4, 6)), ((5, 4), (1, 4, 6)),
        ((5, 6, 4), (4, 1)), ((6, 4), (5, 4, 3)),
    ]
    FOLDED_SHAPES = [MODEL_SHAPES[0], MODEL_SHAPES[1], MODEL_SHAPES[3]] + MORE_FOLDED_SHAPES

    @staticmethod
    def _backward_and_reference(a, b, g):
        """The rule's gradients and the per-sample products reduced by ``_unbroadcast``."""
        out = ad.matmul(Tensor(a, requires_grad=True), Tensor(b, requires_grad=True))
        got = out._backward(g)
        want_a = ad._unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape)
        want_b = ad._unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape)
        return got, (want_a, want_b)

    @staticmethod
    def _out_gradients(rng, a, b):
        g_c = rng.normal(size=(a @ b).shape)
        return g_c, np.swapaxes(np.swapaxes(g_c, -1, -2).copy(), -1, -2)  # C order and not

    @pytest.mark.parametrize("sa,sb", PER_SAMPLE_SHAPES)
    def test_matmul_backward_equals_matmul_products_bytewise(self, sa, sb):
        rng = np.random.default_rng(12)
        a, b = rng.normal(size=sa), rng.normal(size=sb)
        for g in self._out_gradients(rng, a, b):
            got, want = self._backward_and_reference(a, b, g)
            for x, gx, wx in zip((a, b), got, want):
                assert gx.shape == x.shape and gx.tobytes() == wx.tobytes()

    @pytest.mark.parametrize("sa,sb", FOLDED_SHAPES)
    def test_folded_gradient_matches_per_sample_products(self, sa, sb):
        # the folded GEMM sums in another order: equal to rounding, not in bytes;
        # the batched operand keeps the per-sample rule, byte for byte
        rng = np.random.default_rng(15)
        a, b = rng.normal(size=sa), rng.normal(size=sb)
        folded = 0 if len(sa) == 2 else 1
        for g in self._out_gradients(rng, a, b):
            got, want = self._backward_and_reference(a, b, g)
            assert got[folded].shape == want[folded].shape
            assert np.abs(got[folded] - want[folded]).max() <= 1e-13 * np.abs(want[folded]).max()
            assert got[1 - folded].tobytes() == want[1 - folded].tobytes()

    @pytest.mark.parametrize("sa,sb", FOLDED_SHAPES)
    def test_folded_gradient_equals_per_sample_products_on_integers(self, sa, sb):
        # integer-valued float64 products and sums are exact in any order
        rng = np.random.default_rng(16)
        a = rng.integers(-9, 10, size=sa).astype(np.float64)
        b = rng.integers(-9, 10, size=sb).astype(np.float64)
        g = rng.integers(-9, 10, size=(a @ b).shape).astype(np.float64)
        got, want = self._backward_and_reference(a, b, g)
        folded = 0 if len(sa) == 2 else 1
        assert got[folded].shape == want[folded].shape
        assert got[folded].tobytes() == want[folded].tobytes()

    @pytest.mark.parametrize("sa,sb", MODEL_SHAPES + MORE_FOLDED_SHAPES)
    def test_matmul_model_shapes_pass_check_gradients(self, sa, sb):
        rng = np.random.default_rng(13)
        a = Tensor(rng.normal(size=sa))
        b = Tensor(rng.normal(size=sb))
        assert check_gradients(lambda t: ad.square(ad.matmul(t, b)).sum(), a) < 1e-6
        assert check_gradients(lambda t: ad.square(ad.matmul(a, t)).sum(), b) < 1e-6

    @pytest.mark.parametrize(
        "spec,sa,sb",
        [
            ("bld,nl->bnd", (2, 6, 3), (4, 6)),
            ("bnd,nl->bld", (2, 4, 3), (4, 6)),
            ("bnd,nl->bnld", (2, 4, 3), (4, 6)),
        ],
    )
    def test_einsum_gradients(self, spec, sa, sb):
        rng = np.random.default_rng(9)
        a = Tensor(rng.normal(size=sa), requires_grad=True)
        b = Tensor(rng.normal(size=sb), requires_grad=True)
        loss = ad.square(ad.einsum(spec, a, b)).sum()
        grads = backward(loss)
        fd = finite_difference(
            lambda: ad.square(ad.einsum(spec, Tensor(a.data), Tensor(b.data))).sum().item(), [a, b]
        )
        np.testing.assert_allclose(grads[a.node_id], fd[0], rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(grads[b.node_id], fd[1], rtol=1e-6, atol=1e-8)


class TestCheckGradients:
    def test_quadratic_is_exact_to_roundoff(self):
        rng = np.random.default_rng(11)
        point = Tensor(rng.normal(size=(6,)))
        err = check_gradients(lambda t: ad.square(t).sum(), point, eps=1e-5)
        assert err < 1e-6

    def test_zero_gradient_function(self):
        # f constant in t: analytic and numeric both vanish
        point = Tensor(np.ones(3))
        err = check_gradients(lambda t: (t - t).sum(), point)
        assert err < 1e-12


class TestTapeDiscipline:
    def test_constants_are_not_tracked(self):
        out = Tensor([1.0]) + Tensor([2.0])
        assert not out.requires_grad
        assert out._backward is None

    @pytest.mark.parametrize("name", ["matmul", "add", "sub", "mul", "div"])
    def test_constant_parent_gets_no_gradient(self, name):
        op = getattr(ad, name)
        const, param = Tensor(np.full((2, 2), 2.0)), Tensor(np.full((2, 2), 3.0), requires_grad=True)
        g = np.ones((2, 2))
        ga, gb = op(const, param)._backward(g)
        assert ga is None and gb.shape == (2, 2)
        ga, gb = op(param, const)._backward(g)
        assert ga.shape == (2, 2) and gb is None

    def test_ops_do_not_mutate_inputs(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        before = x.data.copy()
        _ = relu(x * 2.0 - 1.0)
        np.testing.assert_array_equal(x.data, before)

    def test_detach_cuts_the_graph(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = (x.detach() * x).sum()
        np.testing.assert_allclose(grad_of(loss, x), x.data)
