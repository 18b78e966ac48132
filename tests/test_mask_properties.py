"""Property tests of the slot-mask API of ``masked_forward`` and of the attribution passes over random shapes."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freqlens import autodiff as ad
from freqlens import model as fl_model
from freqlens.interpret import FaithfulnessResult, faithfulness_test, per_frequency_impacts
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


@settings(max_examples=40, deadline=None)
@_with_corners
@given(shape=shapes())
def test_frequency_pass_equals_forward_bit_for_bit(shape):
    model, x, _ = _case(shape)
    out = model.forward(x)
    selected, contributions = model.frequency_pass(x)
    assert selected.tobytes() == out.selected.tobytes()
    assert contributions.shape == out.contributions.shape
    assert contributions.tobytes() == out.contributions.data.tobytes()


def _reference_from_forward(model, x, k_list):
    """per_frequency_impacts and faithfulness_test computed from a full forward's selection, gate and contributions."""
    out = model.forward(x)
    alpha = float(out.alpha.data)
    mags = np.sqrt((out.contributions.data ** 2).sum(axis=(2, 3)))
    b, k = out.selected.shape
    leave_one_out = np.concatenate([np.ones((1, b, k), dtype=bool), np.repeat(~np.eye(k, dtype=bool)[:, None], b, 1)])
    rank = np.argsort(np.argsort(-mags, axis=1, kind="stable"), axis=1)
    k_effs = list(dict.fromkeys(min(n, k) for n in k_list))
    removed = np.stack([rank >= n for n in k_effs])
    rows = model.masked_forward(x, out.selected, np.concatenate([leave_one_out, removed]))
    impacts = alpha * np.sqrt(((rows[:1] - rows[1 : 1 + k]) ** 2).sum(axis=(2, 3))).T
    if mags.std() == 0.0 or impacts.std() == 0.0:
        correlation = 1.0
    else:
        correlation = float(np.corrcoef(mags.ravel(), impacts.ravel())[0, 1])
    results = []
    for n, row in zip(k_effs, rows[1 + k :]):
        delta = rows[0] - row
        fused = np.abs(alpha * delta).mean(axis=(1, 2)).mean()
        freq = np.abs(delta).mean(axis=(1, 2)).mean()
        results.append(FaithfulnessResult(n, float(fused), float(freq), correlation, b))
    return (mags, impacts, alpha), results


@settings(max_examples=40, deadline=None)
@_with_corners
@given(shape=shapes())
def test_attribution_passes_equal_a_forward_reference(shape):
    # neither call runs a full forward; their numbers are those of one, byte for byte
    model, x, _ = _case(shape)
    model.fusion_logit.data[...] = 0.7  # a gate other than a fresh model's 0.5
    k_list = [1, 2, model.config.K, model.config.K + 3]
    (mags, impacts, alpha), results = _reference_from_forward(model, x, k_list)
    got_mags, got_impacts, got_alpha = per_frequency_impacts(model, x)
    assert got_mags.tobytes() == mags.tobytes()
    assert got_impacts.tobytes() == impacts.tobytes()
    assert got_alpha == alpha
    assert repr(faithfulness_test(model, x, k_list)) == repr(results)


@settings(max_examples=40, deadline=None)
@_with_corners
# H * C == 1 with a three-sample tail block and K >= 8, where the slot sum is order-sensitive
@example(shape=dict(L=6, H=1, C=1, d=6, N=9, K=9, B=5, S=1, seed=383124355, saturated=False))
@given(shape=shapes())
def test_sample_blocks_leave_every_row_unchanged(shape):
    # every sample its own block (two at least when H * C == 1), against the one-block call
    model, x, _ = _case(shape)
    out = model.forward(x)
    b, k = out.selected.shape
    partly_empty = np.ones((b, k), dtype=bool)
    partly_empty[::2] = False  # samples 0, 2, ... keep no slot
    keep = np.concatenate(
        [_mixed_mask(np.random.default_rng(shape["seed"]), b, k), np.zeros((1, b, k), dtype=bool), partly_empty[None]]
    )
    heads = model.head_contribution
    poisoned = keep.any(axis=0) & ~keep.all(axis=0)
    poisoned[0, 0] = True

    def poison(c_sel):
        contributions = heads(c_sel)
        contributions.data[poisoned] = np.nan
        return contributions

    for head_contribution in (heads, poison):
        model.head_contribution = head_contribution
        whole = model.masked_forward(x, out.selected, keep)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fl_model, "_MASKED_BLOCK_BYTES", 1)
            blocked = model.masked_forward(x, out.selected, keep)
        assert blocked.tobytes() == whole.tobytes()
        assert np.all(blocked[-2] == 0.0)
        assert np.all(blocked[-1, ::2] == 0.0)
