"""Interpretation tests: periods, FFT baseline, Shapley oracle, faithfulness."""

import csv
import dataclasses
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from freqlens import interpret, training
from freqlens.model import SCORER_HIDDEN, FreqLens, ModelConfig
from freqlens.interpret import (
    _leave_one_out,
    alpha_report,
    build_discovery_report,
    export_spectrum_csv,
    faithfulness_test,
    fft_peak_detection,
    match_known_periods,
    per_frequency_impacts,
    periods_from_frequencies,
    selection_counts,
    shapley_bruteforce,
    verify_axioms,
)
from freqlens.training import EpochRecord, TrainLog


def small_model(seed=0, **overrides):
    base = dict(L=16, H=8, C=2, d=8, N=8, K=4, seed=seed)
    base.update(overrides)
    return FreqLens(ModelConfig(**base))


class TestPeriods:
    def test_daily_cycle_hourly_data(self):
        steps = periods_from_frequencies([1.0 / 24])
        assert steps[0] == pytest.approx(24.0)

    def test_nyquist_period(self):
        steps = periods_from_frequencies([0.5])
        assert steps[0] == 2.0

    def test_longest_observable_period(self):
        steps = periods_from_frequencies([1.0 / (10 * 96)])
        assert steps[0] == 960.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            periods_from_frequencies([0.1, 0.0])


class TestMatching:
    def test_daily_match(self):
        (m,) = match_known_periods([24.6], [24.0], delta=0.15)
        assert m.matched and m.relative_error == pytest.approx(0.025)

    def test_half_daily_match(self):
        (m,) = match_known_periods([11.8, 24.6], [12.0], delta=0.15)
        assert m.matched
        assert m.learned_period == 11.8
        assert m.relative_error == pytest.approx(0.2 / 12.0)

    def test_threshold_rejects(self):
        (m,) = match_known_periods([30.0], [24.0], delta=0.15)
        assert not m.matched and m.relative_error == pytest.approx(0.25)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            learned = rng.uniform(2, 1000, size=6)
            known = rng.uniform(2, 1000, size=3)
            scale = rng.uniform(0.01, 100.0)
            base = match_known_periods(learned, known)
            scaled = match_known_periods(learned * scale, known * scale)
            assert [m.matched for m in base] == [m.matched for m in scaled]

    def test_a_learned_period_matches_at_most_one_known(self):
        # both known periods are closest to 24 and within delta of it; 24 keeps it
        # (error 0 < 2/26), and 26 takes its closest remaining period, 38, unmatched
        m24, m26 = match_known_periods([12.0, 24.0, 38.0], [24.0, 26.0], delta=0.15)
        assert (m24.basis_index, m24.learned_period, m24.matched) == (1, 24.0, True)
        assert (m26.basis_index, m26.learned_period, m26.matched) == (2, 38.0, False)
        assert m26.relative_error == pytest.approx(12.0 / 26.0)

    def test_the_closer_known_period_keeps_the_learned_one(self):
        # 23 is the closest learned period of both, in either listing order: 24 keeps it
        # (error 1/24 < 1/22), and 22 takes 20.5, still within delta
        for known in ([22.0, 24.0], [24.0, 22.0]):
            matches = {m.known_period: m for m in match_known_periods([23.0, 20.5], known, delta=0.15)}
            assert (matches[24.0].learned_period, matches[24.0].matched) == (23.0, True)
            assert (matches[22.0].learned_period, matches[22.0].matched) == (20.5, True)

    def test_known_periods_beyond_the_learned_ones_are_unmatched(self):
        m24, m22 = match_known_periods([23.0], [24.0, 22.0], delta=0.15)
        assert (m24.basis_index, m24.matched) == (0, True)
        assert (m22.basis_index, m22.learned_period, m22.matched) == (0, 23.0, False)


class TestFFTBaseline:
    def test_single_cosine_dominant_bin(self):
        t = np.arange(96)
        periods = fft_peak_detection(np.cos(2 * np.pi * t / 24), top_k=1)
        assert periods == [24.0]

    def test_constant_series_has_no_peaks(self):
        assert fft_peak_detection(np.ones(64)) == []

    def test_two_cosines_top2(self):
        t = np.arange(96)
        x = np.cos(2 * np.pi * t / 24) + 0.5 * np.cos(2 * np.pi * t / 12)
        assert sorted(fft_peak_detection(x, top_k=2)) == [12.0, 24.0]

    def test_exact_recovery_for_integer_cycle_cosines(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            period = int(rng.integers(3, 40))
            cycles = int(rng.integers(2, 8))
            t = np.arange(period * cycles)
            x = rng.uniform(0.5, 3.0) * np.cos(2 * np.pi * t / period + rng.uniform(0, 2 * np.pi))
            assert fft_peak_detection(x, top_k=1) == [float(period)]

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            fft_peak_detection([1.0, 2.0])


class TestShapley:
    def test_additive_scalar_game(self):
        phi = shapley_bruteforce(np.array([1.0, 2.0, -0.5])[:, None])
        np.testing.assert_allclose(phi[:, 0], [1.0, 2.0, -0.5], atol=1e-12)

    def test_single_player(self):
        contrib = np.random.default_rng(2).normal(size=(1, 4, 3))
        phi = shapley_bruteforce(contrib)
        np.testing.assert_allclose(phi, contrib, atol=1e-15)

    def test_random_tensor_games_equal_contributions(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            k = int(rng.integers(1, 9))
            contrib = rng.normal(size=(k, 5, 2))
            phi = shapley_bruteforce(contrib)
            assert np.abs(phi - contrib).max() < 1e-9

    # the game is per-element: v(S) is the element-wise sum of S's contributions
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5], ids=lambda k: f"{k}-per-element")
    def test_matches_textbook_definition(self, k):
        # phi_f = sum over S without f of |S|! (K-|S|-1)! / K! * (v(S + f) - v(S))
        contrib = np.random.default_rng(10 + k).normal(size=(k, 3, 2))

        def value(coalition):
            return contrib[list(coalition)].sum(axis=0) if coalition else np.zeros(contrib.shape[1:])

        expected = []
        for f in range(k):
            others = [i for i in range(k) if i != f]
            phi = 0.0
            for size in range(k):
                weight = math.factorial(size) * math.factorial(k - size - 1) / math.factorial(k)
                for subset in itertools.combinations(others, size):
                    phi = phi + weight * (value(subset + (f,)) - value(subset))
            expected.append(phi)
        np.testing.assert_allclose(
            shapley_bruteforce(contrib), np.array(expected), rtol=0, atol=1e-12
        )

    def test_enumeration_cap(self):
        with pytest.raises(ValueError, match="K <= 12"):
            shapley_bruteforce(np.zeros((13, 1)))

    @pytest.mark.parametrize("shape", [(0, 3), ()], ids=["no-players", "0-d"])
    def test_degenerate_input_names_its_shape(self, shape):
        # used to fail inside NumPy's reshape or indexing
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            shapley_bruteforce(np.zeros(shape))


def unblocked_shapley(contributions):
    """The oracle as one product over the full [2^K, elements] coalition table."""
    members, coef = interpret._coalitions(contributions.shape[0])
    return coef @ (members @ contributions.reshape(contributions.shape[0], -1))


def block_width(k):
    return interpret._TABLE_BYTES // (8 * 2**k)


class TestBlockedShapley:
    """``shapley_bruteforce`` evaluates its coalition table in column blocks of bounded bytes."""

    @pytest.mark.parametrize("k", range(1, 13))
    def test_matches_unblocked_product(self, k):
        # Each element is its own game, so blocking the columns leaves every
        # output an inner product of the same coef row and coalition column.
        # OpenBLAS 0.3.31 (x86-64, one thread) gives the same bytes on a
        # block as on the full table for K <= 8; from K = 9 on it sums the
        # 2^K-long inner product in another order on a narrow block, so
        # there the two agree to rounding only.
        rng = np.random.default_rng(100 + k)
        width = block_width(k)
        for elements in sorted({1, width - 1, width, width + 1, 8 * 672}):
            contrib = rng.normal(size=(k, elements))
            phi = shapley_bruteforce(contrib)
            expected = unblocked_shapley(contrib)
            assert np.abs(phi - expected).max() <= 1e-13 * np.abs(contrib).max(), elements
            if k <= 8:
                assert phi.tobytes() == expected.tobytes(), elements

    @pytest.mark.parametrize("k", [3, 8, 12])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_columns_stay_non_finite(self, k, value):
        # a NaN or inf entry spoils exactly its own element's game
        width = block_width(k)
        contrib = np.random.default_rng(k).normal(size=(k, 3 * width + 1))
        bad_columns = [0, width - 1, width, 3 * width]
        for f, col in enumerate(bad_columns):
            contrib[f % k, col] = value
        with np.errstate(invalid="ignore"):  # 0 * inf in the membership product
            phi = shapley_bruteforce(contrib)
            expected_finite = np.isfinite(unblocked_shapley(contrib)).all(axis=0)
        assert sorted(np.flatnonzero(~expected_finite)) == bad_columns
        np.testing.assert_array_equal(np.isfinite(phi).all(axis=0), expected_finite)
        np.testing.assert_array_equal(np.isfinite(phi).any(axis=0), expected_finite)

    def test_table_memory_is_bounded(self):
        # the unblocked [4096, 672] table alone is 21 MiB
        contrib = np.random.default_rng(0).normal(size=(12, 672))
        shapley_bruteforce(contrib[:, :1])  # builds the cached coalition matrices
        tracemalloc.start()
        try:
            phi = shapley_bruteforce(contrib)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - phi.nbytes < 2**20, peak


class TestFaithfulness:
    def setup_method(self):
        self.model = small_model(seed=5)
        rng = np.random.default_rng(5)
        self.x = rng.normal(size=(6, 16, 2))

    def test_single_removal_impact_equals_gated_magnitude(self):
        mags, impacts, alpha = per_frequency_impacts(self.model, self.x)
        np.testing.assert_allclose(impacts, alpha * mags, atol=1e-9)

    def test_correlation_is_one(self):
        results = faithfulness_test(self.model, self.x, k_list=[1, 2, 4])
        for r in results:
            assert abs(r.attribution_impact_correlation - 1.0) < 1e-9

    def test_removing_everything_removes_the_whole_frequency_path(self):
        (r,) = faithfulness_test(self.model, self.x, k_list=[self.model.config.K])
        out = self.model.forward(self.x)
        expected = float(np.abs(out.y_freq.data).mean())
        assert r.mean_abs_change_freq_path == pytest.approx(expected, rel=1e-9)

    def test_top_k_removal_matches_per_sample_recomputation(self):
        k_list = [1, 3, 9]  # 9 > K collapses onto K
        results = faithfulness_test(self.model, self.x, k_list=k_list)
        assert [r.k for r in results] == [1, 3, 4]
        # the reference sums the forward's contributions over the kept slots in plain NumPy
        contributions = self.model.forward(self.x).contributions.data
        mags = np.sqrt((contributions ** 2).sum(axis=(2, 3)))
        for r in results:
            changes = []
            for b, contribution in enumerate(contributions):
                kept = np.delete(contribution, np.argsort(-mags[b], kind="stable")[: r.k], axis=0)
                changes.append(np.abs(contribution.sum(axis=0) - kept.sum(axis=0)).mean())
            assert r.mean_abs_change_freq_path == pytest.approx(np.mean(changes), rel=1e-12)

    def _count_calls(self, monkeypatch):
        calls = {"frequency_pass": 0, "forward": 0, "masked_forward": 0, "head_contribution": 0}
        for name in calls:
            original = getattr(self.model, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(self.model, name, counted)
        return calls

    def test_one_forward_and_one_masked_pass_per_call(self, monkeypatch):
        # one head pass gives the attribution, one masked pass sums every removal from it; no full forward
        calls = self._count_calls(monkeypatch)
        faithfulness_test(self.model, self.x, k_list=[1, 2, 4])
        assert calls == {"frequency_pass": 1, "masked_forward": 1, "forward": 0, "head_contribution": 1}
        calls.update(dict.fromkeys(calls, 0))
        per_frequency_impacts(self.model, self.x)
        assert calls == {"frequency_pass": 1, "masked_forward": 1, "forward": 0, "head_contribution": 1}
        # verify_axioms runs the heads on the windows and on the null-frequency check's zero input
        calls.update(dict.fromkeys(calls, 0))
        verify_axioms(self.model, self.x)
        assert calls == {"frequency_pass": 0, "masked_forward": 1, "forward": 1, "head_contribution": 2}

    def test_negative_removal_size_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            faithfulness_test(self.model, self.x, k_list=[-1])

    def test_negative_removal_size_rejected_before_the_forward(self, monkeypatch):
        # so is an empty list, which would run both passes and report nothing
        calls = self._count_calls(monkeypatch)
        for k_list in ([2, -1], []):
            with pytest.raises(ValueError, match=re.escape(f"nonempty list of nonnegative sizes, got {k_list}")):
                faithfulness_test(self.model, self.x, k_list=k_list)
        assert calls == {"frequency_pass": 0, "forward": 0, "masked_forward": 0, "head_contribution": 0}

    @pytest.mark.parametrize("max_samples", [0, -1])
    def test_max_samples_below_one_rejected(self, max_samples):
        # -1 used to drop the last window and 0 to return NaN results
        with pytest.raises(ValueError, match="max_samples must be at least 1"):
            faithfulness_test(self.model, self.x, k_list=[1], max_samples=max_samples)
        with pytest.raises(ValueError, match="max_samples must be at least 1"):
            per_frequency_impacts(self.model, self.x, max_samples=max_samples)

    def test_no_windows_rejected(self):
        with pytest.raises(ValueError, match="no input windows"):
            faithfulness_test(self.model, self.x[:0], k_list=[1])

    def test_max_samples_keeps_the_first_windows(self):
        (r,) = faithfulness_test(self.model, self.x, k_list=[2], max_samples=4)
        (expected,) = faithfulness_test(self.model, self.x[:4], k_list=[2])
        assert r == expected
        assert r.n_samples == 4

    def test_zero_contributions_zero_change(self):
        out = faithfulness_test(self.model, np.zeros((2, 16, 2)), k_list=[1])
        assert out[0].mean_abs_change == 0.0
        assert out[0].attribution_impact_correlation == 1.0  # degenerate: trivially aligned

    def test_fused_change_is_gate_times_path_change(self):
        results = faithfulness_test(self.model, self.x, k_list=[2])
        (r,) = results
        alpha = 0.5  # fresh model: sigmoid(0)
        assert r.mean_abs_change == pytest.approx(alpha * r.mean_abs_change_freq_path, rel=1e-12)


class TestMaskedPassMemory:
    """tracemalloc peaks at the paper-default config, in units of the [B, K, H, C] contributions."""

    @pytest.fixture(scope="class")
    def case(self):
        model = FreqLens(ModelConfig())  # L=96, H=96, C=7, d=64, N=32, K=8
        cfg = model.config
        x = np.random.default_rng(0).normal(size=(64, cfg.L, cfg.C))
        contributions = model.frequency_pass(x)  # also builds the evaluation bases
        return model, x, contributions, contributions.nbytes

    @staticmethod
    def _peak(fn):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = fn()
            return result, tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    def test_masked_forward_builds_no_per_row_buffer(self, case):
        # reads ~0.03, one block row's dropped slots; a copy of the contributions reads >= 1.0
        model, _, contributions, contributions_bytes = case
        before = contributions.tobytes()
        rows, peak = self._peak(lambda: model.masked_forward(contributions, _leave_one_out(*contributions.shape[:2])))
        assert (peak - rows.nbytes) / contributions_bytes <= 0.1
        assert contributions.tobytes() == before

    def test_faithfulness_test_peak(self, case):
        # reads ~2.73; holding the contributions past the masked pass reads ~3.01,
        # a full forward for the attribution and unblocked rows ~3.18, and two
        # masked passes with [K, B, H, C] removal differences ~6.04
        model, x, _, contributions_bytes = case
        _, peak = self._peak(lambda: faithfulness_test(model, x, [1, 2, 4, 8]))
        assert peak / contributions_bytes <= 3.0

    def test_verify_axioms_peak(self, case):
        # reads ~3.79; [K, B, H, C] removal differences read ~6.5
        model, x, _, contributions_bytes = case
        _, peak = self._peak(lambda: verify_axioms(model, x))
        assert peak / contributions_bytes <= 5.5


class TestEvaluationForwardMemory:
    def test_scorer_keeps_one_hidden_array(self):
        # a B = 256 evaluation forward at the acceptance config, in units of
        # the scorer's [B*N, 32] hidden array: reads ~1.16; a ReLU that
        # copies its pre-activations reads ~2.16
        model = FreqLens(ModelConfig(L=96, H=24, C=1, d=32, N=16, K=4, seed=42))
        x = np.random.default_rng(0).normal(size=(256, 96, 1))
        model.forward(x[:1])  # builds the evaluation bases
        _, peak = TestMaskedPassMemory._peak(lambda: model.forward(x))
        assert peak / (256 * 16 * SCORER_HIDDEN * 8) <= 1.5


class TestAlphaReport:
    def test_fresh_model_gate_is_half(self):
        summary = alpha_report([small_model()])
        assert summary.values == [0.5]

    def test_identical_gates_zero_std(self):
        models = []
        for seed in range(3):
            m = small_model(seed=seed)
            m.fusion_logit.data = np.asarray(math.log(0.6 / 0.4))
            models.append(m)
        summary = alpha_report(models)
        assert summary.mean == pytest.approx(0.6, rel=1e-12)
        assert summary.std == pytest.approx(0.0, abs=1e-15)


class TestSelectionCounts:
    def test_counts_total_is_windows_times_k(self):
        model = small_model(seed=6)
        x = np.random.default_rng(6).normal(size=(10, 16, 2))
        counts = selection_counts(model, x)
        assert counts.sum() == 10 * model.config.K
        assert counts.shape == (model.config.N,)


class TestDiscoveryReport:
    X = np.random.default_rng(6).normal(size=(3, 16, 2))

    def test_summary_aggregates_matched_seeds_only(self):
        models = [(seed, small_model(seed=seed)) for seed in (1, 2, 3)]
        # push every basis to a very long period, then pin basis 0:
        # seeds 1 and 2 land near the known period 4, seed 3 far away
        for (seed, model), period in zip(models, (4.0, 4.2, 7.0)):
            model.bank.theta.data[:] = -8.0
            f_target = 1.0 / period
            t = (f_target - model.bank.f_min) / (model.bank.f_max - model.bank.f_min)
            model.bank.theta.data[0] = math.log(t / (1 - t))
        report = build_discovery_report(models, known_periods_steps=[4.0], delta=0.15, test_inputs=self.X)
        (summary,) = report.summary
        assert summary.known_period == 4.0
        assert summary.n_matched == 2
        assert summary.mean_learned == pytest.approx(4.1, rel=1e-6)
        # std over the matched seeds only
        assert summary.std_learned == pytest.approx(0.1, rel=1e-6)

    def test_per_seed_periods_sorted(self):
        report = build_discovery_report([(0, small_model())], known_periods_steps=[24.0], delta=0.15,
                                        test_inputs=self.X)
        periods = report.seeds[0].periods_steps
        assert periods == sorted(periods)

    def test_each_count_stays_with_its_period(self, monkeypatch, tmp_path):
        # forged: the periods run in no sorted order over the bases, and
        # basis i is selected 10 i + 1 times
        model = small_model()
        n = model.config.N
        model.bank.theta.data[:] = np.linspace(-3.0, 3.0, n)[[3, 0, 6, 1, 7, 2, 5, 4]]
        counts = 10 * np.arange(n) + 1
        monkeypatch.setattr(interpret, "selection_counts", lambda m, inputs: counts.copy())
        periods = periods_from_frequencies(model.bank.frequencies().data)
        expected = sorted(zip(periods.tolist(), counts.tolist()))

        (seed,) = build_discovery_report([(0, model)], [24.0], delta=0.15, test_inputs=self.X).seeds
        assert list(zip(seed.periods_steps, seed.selection_counts)) == expected

        path = tmp_path / "spectrum.csv"
        export_spectrum_csv(path, seed)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(float(r["period_steps"]), int(r["selection_count"])) for r in rows] == expected
        for r in rows:
            i = int(r["basis_index"])
            assert (float(r["period_steps"]), int(r["selection_count"])) == (periods[i], counts[i])

    def test_spectrum_flags_the_discovery_match_only(self, tmp_path):
        # forged: two bases within delta of the known period 4; only the
        # closer one is discovery's match, so only its row is flagged
        model = small_model()
        model.bank.theta.data[:] = -8.0  # every other basis far beyond period 4
        for basis, period in ((2, 4.4), (5, 3.9)):
            t = (1.0 / period - model.bank.f_min) / (model.bank.f_max - model.bank.f_min)
            model.bank.theta.data[basis] = math.log(t / (1 - t))
        (found,) = build_discovery_report([(0, model)], [4.0], delta=0.15, test_inputs=self.X).seeds
        (match,) = found.matches
        assert match.matched and match.learned_period == pytest.approx(3.9)

        path = tmp_path / "spectrum.csv"
        export_spectrum_csv(path, found)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(int(r["basis_index"]), float(r["period_steps"])) for r in rows if r["matched"] == "1"] == [
            (5, match.learned_period)
        ]
        assert match.basis_index == 5

    def test_spectrum_is_written_from_the_report_alone(self, tmp_path):
        model = small_model(seed=4)
        (found,) = build_discovery_report([(0, model)], [4.0], 0.15, test_inputs=self.X).seeds
        model.bank.theta.data[:] = np.linspace(-1.0, 1.0, model.config.N)  # the model moves on; the report does not

        path = tmp_path / "spectrum.csv"
        export_spectrum_csv(path, found)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["basis_index"]) for r in rows] == found.basis_index
        assert [float(r["frequency"]) for r in rows] == found.frequencies
        assert [float(r["period_steps"]) for r in rows] == found.periods_steps
        assert [int(r["selection_count"]) for r in rows] == found.selection_counts
        assert found.periods_steps != sorted(periods_from_frequencies(model.bank.frequencies().data).tolist())


class TestVerifyAxioms:
    def test_random_model_satisfies_all(self):
        checks = verify_axioms(small_model(seed=7))
        assert set(checks) == {
            "completeness",
            "faithfulness",
            "null_frequency",
            "symmetry",
            "shapley_equivalence",
        }
        for name, check in checks.items():
            assert check.passed, f"{name} failed with deviation {check.max_deviation}"

    def test_single_selected_frequency_satisfies_all(self):
        checks = verify_axioms(small_model(seed=7, K=1))
        assert len(checks) == 5
        for name, check in checks.items():
            assert check.passed, f"{name} failed with deviation {check.max_deviation}"

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_head_weight_fails_every_check(self, value):
        # Python's max(0.0, nan) is 0.0, which once passed shapley_equivalence
        model = small_model(seed=7)
        model.head_w2.data[0, 0, 0] = value
        with np.errstate(invalid="ignore"):
            checks = verify_axioms(model)
        for name, check in checks.items():
            assert not check.passed, name
            assert math.isnan(check.max_deviation), name

    def test_one_oracle_call_for_the_batch(self, monkeypatch):
        # every element is its own game, so the batch is one game of B*H*C elements
        oracle = interpret.shapley_bruteforce
        shapes = []

        def counted(contributions):
            shapes.append(contributions.shape)
            return oracle(contributions)

        monkeypatch.setattr(interpret, "shapley_bruteforce", counted)
        model = small_model(seed=7)
        cfg = model.config
        checks = verify_axioms(model, np.random.default_rng(0).normal(size=(8, cfg.L, cfg.C)))
        assert shapes == [(cfg.K, 8, cfg.H, cfg.C)]
        assert checks["shapley_equivalence"].passed

    def test_one_nan_element_fails_shapley_equivalence(self, monkeypatch):
        # a single NaN in the last window's oracle output must survive the reduction
        oracle = interpret.shapley_bruteforce

        def planted(contributions):
            phi = oracle(contributions)
            phi[-1, -1, -1, -1] = np.nan
            return phi

        monkeypatch.setattr(interpret, "shapley_bruteforce", planted)
        model = small_model(seed=7)
        cfg = model.config
        checks = verify_axioms(model, np.random.default_rng(0).normal(size=(8, cfg.L, cfg.C)))
        assert checks["completeness"].passed
        assert not checks["shapley_equivalence"].passed
        assert math.isnan(checks["shapley_equivalence"].max_deviation)

    def test_no_windows_rejected(self):
        # used to fail inside NumPy's max reduction
        model = small_model(seed=7)
        with pytest.raises(ValueError, match=r"no input windows: inputs have shape \(0, 16, 2\)"):
            verify_axioms(model, np.zeros((0, model.config.L, model.config.C)))

    def test_broken_head_bias_breaks_null_frequency(self):
        # planting a hidden bias by shifting weights does not break nullity,
        # but forging a nonzero contribution at zero coefficients must fail
        model = small_model(seed=8)
        original = model.head_contribution

        def forged(c_sel):
            out = original(c_sel)
            from freqlens.autodiff import Tensor, add

            return add(out, Tensor(np.full(out.shape, 1e-3)))

        model.head_contribution = forged
        checks = verify_axioms(model)
        assert not checks["null_frequency"].passed


class TestExports:
    def test_spectrum_csv(self, tmp_path):
        model = small_model(seed=9)
        path = tmp_path / "spectrum.csv"
        (found,) = build_discovery_report([(0, model)], [4.0], 0.2, np.zeros((1, 16, 2))).seeds
        export_spectrum_csv(path, found)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "basis_index,frequency,period_steps,selection_count,matched"
        assert len(lines) == 1 + model.config.N

    def test_loss_curves_csv(self, tmp_path):
        log = TrainLog([EpochRecord(0, 1, 0.1, 0.2, 1.3, 0.9, 1.0, 1e-3, [0.1])])
        path = tmp_path / "loss.csv"
        log.save_csv(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[0] == "epoch,loss_pred,loss_div,loss_recon,loss_total,val_mse,tau,lr"

    def test_loss_curves_columns_are_the_scalar_record_fields(self, tmp_path, monkeypatch):
        # a field added to EpochRecord reaches the CSV with no second list of columns to edit
        @dataclasses.dataclass
        class Extended(EpochRecord):
            share: float = 0.25

        monkeypatch.setattr(training, "EpochRecord", Extended)
        path = tmp_path / "loss.csv"
        TrainLog([Extended(0, 1.0, 0.1, 0.2, 1.3, 0.9, 1.0, 1e-3, [0.1])]).save_csv(path)
        header, row = path.read_text().splitlines()
        assert header.split(",") == [f.name for f in dataclasses.fields(Extended) if f.name != "frequencies"]
        assert header.endswith(",lr,share") and row == "0,1.0,0.1,0.2,1.3,0.9,1.0,0.001,0.25"
