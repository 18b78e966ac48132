"""Property tests of the slot-mask API of ``masked_forward`` over random shapes."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freqlens import autodiff as ad
from freqlens.interpret import per_frequency_impacts
from freqlens.model import FreqLens, ModelConfig


@st.composite
def shapes(draw):
    n = draw(st.integers(1, 10))
    return dict(
        L=draw(st.integers(2, 10)),
        H=draw(st.integers(1, 4)),
        C=draw(st.integers(1, 3)),
        d=draw(st.integers(1, 6)),
        N=n,
        K=draw(st.integers(1, n)),
        B=draw(st.integers(1, 4)),
        S=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**31 - 1)),
        saturated=draw(st.booleans()),
    )


def _case(shape):
    shape = dict(shape)
    b, s, saturated = shape.pop("B"), shape.pop("S"), shape.pop("saturated")
    model = FreqLens(ModelConfig(**shape))
    if saturated:
        # frequency logits far outside the sigmoid's float64 range
        model.bank.theta.data = np.where(np.arange(shape["N"]) % 2 == 0, 60.0, -60.0)
    x = np.random.default_rng(shape["seed"]).normal(size=(b, shape["L"], shape["C"]))
    return model, x, s


# the shapes the axioms are most likely to break on: one sample, K = N, one basis, several channels
CORNERS = [
    dict(L=8, H=3, C=1, d=4, N=4, K=2, B=1, S=2, seed=1, saturated=False),
    dict(L=8, H=3, C=2, d=4, N=5, K=5, B=3, S=1, seed=2, saturated=False),
    dict(L=4, H=2, C=1, d=3, N=1, K=1, B=2, S=3, seed=3, saturated=True),
    dict(L=6, H=1, C=1, d=2, N=9, K=9, B=2, S=2, seed=4, saturated=False),
    dict(L=6, H=4, C=3, d=5, N=6, K=3, B=4, S=2, seed=5, saturated=True),
    # K >= 8 and H * C == 1: the slot sum is order-sensitive and the contributions are a strided view
    dict(L=6, H=1, C=1, d=6, N=9, K=8, B=2, S=1, seed=383124355, saturated=False),
]


def _with_corners(test):
    for shape in CORNERS:
        test = example(shape=shape)(test)
    return test


@settings(max_examples=40, deadline=None)
@_with_corners
@given(shape=shapes())
def test_all_true_rows_equal_forward_bit_for_bit(shape):
    model, x, s = _case(shape)
    out = model.forward(x)
    keep = np.ones((s,) + out.selected.shape, dtype=bool)
    rows = model.masked_forward(x, out.selected, keep)
    assert rows.shape == (s,) + out.y_freq.shape
    for row in rows:
        np.testing.assert_array_equal(row, out.y_freq.data)


@settings(max_examples=40, deadline=None)
@_with_corners
@given(shape=shapes())
def test_all_false_rows_are_exactly_zero(shape):
    model, x, s = _case(shape)
    out = model.forward(x)
    keep = np.zeros((s,) + out.selected.shape, dtype=bool)
    assert np.all(model.masked_forward(x, out.selected, keep) == 0.0)


@settings(max_examples=40, deadline=None)
@_with_corners
@given(shape=shapes())
def test_leave_one_out_reproduces_each_contribution(shape):
    model, x, _ = _case(shape)
    out = model.forward(x)
    b, k = out.selected.shape
    keep = np.ones((1 + k, b, k), dtype=bool)
    for slot in range(k):
        keep[1 + slot, :, slot] = False
    rows = model.masked_forward(x, out.selected, keep)
    for slot in range(k):
        np.testing.assert_allclose(rows[0] - rows[1 + slot], out.contributions.data[:, slot], rtol=0, atol=1e-9)


@settings(max_examples=40, deadline=None)
@_with_corners
@given(shape=shapes())
def test_batched_impacts_equal_gated_magnitudes(shape):
    model, x, _ = _case(shape)
    mags, impacts, alpha = per_frequency_impacts(model, x)
    out = model.forward(x)
    expected = np.sqrt((out.contributions.data ** 2).sum(axis=(2, 3)))
    np.testing.assert_allclose(mags, expected, rtol=0, atol=1e-9)
    np.testing.assert_allclose(impacts, alpha * mags, rtol=0, atol=1e-9)


@settings(max_examples=40, deadline=None)
@_with_corners
@example(shape=dict(L=5, H=2, C=3, d=3, N=3, K=1, B=1, S=1, seed=6, saturated=False))
@given(shape=shapes())
def test_contributions_equal_per_slot_numpy_reference(shape):
    # the batched head pass is bit-identical to running each slot's head on its own
    model, x, _ = _case(shape)
    w1, w2 = model.head_w1.data, model.head_w2.data
    cfg = model.config
    for training in (False, True):
        out = model.forward(x, training=training, tau=0.5, rng=np.random.default_rng(shape["seed"]))
        c_sel = ad.matmul(ad.gather_rows(out.input_coefficients, out.selected), model.input_proj).data
        for k in range(cfg.K):
            expected = np.maximum(c_sel[:, k] @ w1[k], 0.0) @ w2[k]
            np.testing.assert_array_equal(
                out.contributions.data[:, k], expected.reshape(x.shape[0], cfg.H, cfg.C)
            )


def _mixed_mask(rng, b, k):
    """Partial rows before and after all-true rows, then a repeat of the first row."""
    first, second = rng.random((2, b, k)) < 0.5
    full = np.ones((b, k), dtype=bool)
    return np.stack([first, full, second, full, first])


@settings(max_examples=40, deadline=None)
@_with_corners
@given(shape=shapes())
def test_each_row_equals_a_one_row_call_bit_for_bit(shape):
    model, x, _ = _case(shape)
    out = model.forward(x)
    keep = _mixed_mask(np.random.default_rng(shape["seed"]), *out.selected.shape)
    rows = model.masked_forward(x, out.selected, keep)
    for row, mask in zip(rows, keep):
        assert row.tobytes() == model.masked_forward(x, out.selected, mask[None])[0].tobytes()
    assert rows[0].tobytes() == rows[4].tobytes()


@settings(max_examples=40, deadline=None)
@_with_corners
@given(shape=shapes())
def test_masking_leaves_no_trace(shape):
    # the dropped slots are zeroed in place and put back, so nothing else may change
    model, x, _ = _case(shape)
    out = model.forward(x)
    contributions = out.contributions.data.tobytes()
    keep = _mixed_mask(np.random.default_rng(shape["seed"]), *out.selected.shape)
    first = model.masked_forward(x, out.selected, keep)
    assert out.contributions.data.tobytes() == contributions
    assert model.masked_forward(x, out.selected, keep).tobytes() == first.tobytes()
    assert model.forward(x).contributions.data.tobytes() == contributions


@settings(max_examples=40, deadline=None)
@_with_corners
@given(shape=shapes())
def test_non_finite_dropped_slot_is_excluded_exactly(shape):
    model, x, _ = _case(shape)
    out = model.forward(x)
    b, k = out.selected.shape
    keep = _mixed_mask(np.random.default_rng(shape["seed"]), b, k)
    expected = model.masked_forward(x, out.selected, keep)
    heads = model.head_contribution
    poisoned = keep.any(axis=0) & ~keep.all(axis=0)  # kept in some row, dropped in another
    poisoned[0, 0] = True

    def poison(c_sel):
        contributions = heads(c_sel)
        contributions.data[poisoned] = np.where(np.arange(contributions.shape[2])[:, None] % 2, np.inf, np.nan)
        return contributions

    model.head_contribution = poison
    rows = model.masked_forward(x, out.selected, keep)
    clean = ~(keep & poisoned).any(axis=2)  # [S, B]: no poisoned slot kept
    assert rows[clean].tobytes() == expected[clean].tobytes()
    assert np.isfinite(rows[clean]).all()
    assert not np.isfinite(rows[~clean]).any()
