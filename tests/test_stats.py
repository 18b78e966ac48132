"""Metric and significance-test checks against independent numerical oracles."""

import math
import re

import numpy as np
import pytest

from freqlens.stats import (
    MetricSet,
    compute_metrics,
    paired_ttest,
    regularized_incomplete_beta,
    student_t_two_sided_p,
)


def t_density(x, dof):
    coef = math.gamma((dof + 1) / 2) / (math.sqrt(dof * math.pi) * math.gamma(dof / 2))
    return coef * (1.0 + x * x / dof) ** (-(dof + 1) / 2)


def two_sided_p_by_quadrature(t, dof, n_points=40_001):
    """2 P(T >= |t|) = 1 - 2 * integral_0^|t| f, by composite Simpson."""
    t = abs(t)
    if t == 0:
        return 1.0
    xs = np.linspace(0.0, t, n_points)
    fx = np.array([t_density(x, dof) for x in xs])
    h = xs[1] - xs[0]
    integral = h / 3.0 * (fx[0] + fx[-1] + 4 * fx[1:-1:2].sum() + 2 * fx[2:-2:2].sum())
    return 1.0 - 2.0 * integral


class TestComputeMetrics:
    def test_perfect_prediction(self):
        x = np.ones((2, 3, 4))
        m = compute_metrics(x, x)
        assert (m.mse, m.mae, m.rmse) == (0.0, 0.0, 0.0)

    def test_unit_offset(self):
        m = compute_metrics(np.zeros((5, 2)), np.ones((5, 2)))
        assert (m.mse, m.mae, m.rmse) == (1.0, 1.0, 1.0)

    def test_hand_arithmetic(self):
        m = compute_metrics(np.array([0.0, 2.0]), np.array([1.0, 1.0]))
        assert (m.mse, m.mae, m.rmse) == (1.0, 1.0, 1.0)

    def test_rmse_is_sqrt_mse(self):
        rng = np.random.default_rng(0)
        m = compute_metrics(rng.normal(size=(4, 6)), rng.normal(size=(4, 6)))
        assert m.rmse == pytest.approx(math.sqrt(m.mse), abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        pred = rng.normal(size=24)
        target = rng.normal(size=24)
        perm = rng.permutation(24)
        a = compute_metrics(pred, target)
        b = compute_metrics(pred[perm], target[perm])
        assert a.mse == pytest.approx(b.mse, rel=1e-15)
        assert a.mae == pytest.approx(b.mae, rel=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            compute_metrics(np.zeros(3), np.zeros(4))


class TestIncompleteBeta:
    def test_symmetric_midpoint(self):
        # I_{1/2}(a, a) = 1/2 by symmetry
        for a in (0.5, 1.0, 3.0, 7.5):
            assert regularized_incomplete_beta(a, a, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_uniform_case(self):
        # I_x(1, 1) = x
        for x in (0.1, 0.3, 0.9):
            assert regularized_incomplete_beta(1.0, 1.0, x) == pytest.approx(x, abs=1e-12)

    def test_endpoints(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_complement_identity(self):
        # I_x(a, b) + I_{1-x}(b, a) = 1
        rng = np.random.default_rng(2)
        for _ in range(100):
            a, b = rng.uniform(0.2, 10.0, size=2)
            x = rng.uniform(0.01, 0.99)
            total = regularized_incomplete_beta(a, b, x) + regularized_incomplete_beta(b, a, 1 - x)
            assert total == pytest.approx(1.0, abs=1e-12)


class TestStudentP:
    @pytest.mark.parametrize("dof", [2, 4, 9])
    @pytest.mark.parametrize("t", [0.0, 0.3, 1.0, 2.2, 4.7])
    def test_matches_quadrature(self, dof, t):
        assert student_t_two_sided_p(t, dof) == pytest.approx(
            two_sided_p_by_quadrature(t, dof), abs=1e-6
        )

    def test_dof_one_closed_form(self):
        # Cauchy: p = 1 - (2/pi) arctan(|t|)
        for t in (0.5, 1.0, 3.0):
            expected = 1.0 - 2.0 / math.pi * math.atan(t)
            assert student_t_two_sided_p(t, 1) == pytest.approx(expected, abs=1e-12)

    def test_monotone_in_t(self):
        ps = [student_t_two_sided_p(t, 5) for t in np.linspace(0, 10, 50)]
        assert all(p1 >= p2 for p1, p2 in zip(ps, ps[1:]))


class TestPairedTTest:
    def test_identical_samples(self):
        r = paired_ttest([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert (r.mean_diff, r.t_stat, r.p_value) == (0.0, 0.0, 1.0)

    def test_constant_nonzero_difference_is_degenerate(self):
        r = paired_ttest([2.0] * 5, [1.0] * 5)
        assert r.degenerate_variance
        assert r.p_value == 0.0
        assert math.isinf(r.cohen_d) and r.cohen_d > 0

    def test_symmetric_differences(self):
        r = paired_ttest([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])  # d = [-1, 0, 1]
        assert r.mean_diff == 0.0
        assert r.t_stat == 0.0
        assert r.p_value == 1.0

    def test_antisymmetry(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=8)
        b = rng.normal(size=8)
        fwd = paired_ttest(a, b)
        rev = paired_ttest(b, a)
        assert fwd.mean_diff == pytest.approx(-rev.mean_diff, rel=1e-12)
        assert fwd.t_stat == pytest.approx(-rev.t_stat, rel=1e-12)
        assert fwd.cohen_d == pytest.approx(-rev.cohen_d, rel=1e-12)
        assert fwd.p_value == pytest.approx(rev.p_value, rel=1e-12)

    def test_known_example(self):
        # d = [1, 2, 3, 4, 5]: mean 3, sd sqrt(2.5), t = 3/(sqrt(2.5)/sqrt(5)) = sqrt(18)
        r = paired_ttest([2.0, 4.0, 6.0, 8.0, 10.0], [1.0, 2.0, 3.0, 4.0, 5.0])
        assert r.t_stat == pytest.approx(math.sqrt(18.0), rel=1e-12)
        assert r.cohen_d == pytest.approx(3.0 / math.sqrt(2.5), rel=1e-12)
        assert r.p_value == pytest.approx(two_sided_p_by_quadrature(r.t_stat, 4), abs=1e-6)

    def test_needs_two_pairs(self):
        with pytest.raises(ValueError, match="two"):
            paired_ttest([1.0], [2.0])

    def test_unequal_lengths(self):
        with pytest.raises(ValueError, match="equal-length"):
            paired_ttest([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_non_finite_value_names_its_array_and_index(self):
        # used to fail inside the incomplete beta with "x must lie in [0, 1], got nan"
        with pytest.raises(ValueError, match=re.escape("finite values, got a[1] = nan")):
            paired_ttest([1.0, math.nan, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match=re.escape("finite values, got b[2] = -inf")):
            paired_ttest([1.0, 2.0, 3.0], [1.0, 2.0, -math.inf])

    def test_p_in_unit_interval(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            r = paired_ttest(rng.normal(size=n), rng.normal(size=n))
            assert 0.0 <= r.p_value <= 1.0
