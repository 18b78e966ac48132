"""Data pipeline tests: CSV ingestion, z-scoring, splits, windows, synthesis."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqlens.data import (
    SeriesTable,
    SplitSpec,
    fit_apply_zscore,
    load_csv,
    make_windows,
    save_csv,
    synth_series,
)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestSeriesTable:
    @pytest.mark.parametrize("step", [0.0, -3600.0, math.nan, math.inf])
    def test_step_duration_must_be_positive_and_finite(self, step):
        with pytest.raises(ValueError, match="^step_duration must be a positive number of seconds"):
            SeriesTable(np.zeros((3, 1)), step, ["a"])

    def test_loaders_check_step_duration(self, tmp_path):
        with pytest.raises(ValueError, match="^step_duration"):
            load_csv(write(tmp_path, "a\n1\n2\n"), step_duration=0.0)
        with pytest.raises(ValueError, match="^step_duration"):
            synth_series([(24.0, 1.0, 0.0)], length=50, step_duration=0.0)


class TestLoadCsv:
    def test_basic_shape(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n3,4\n5,6\n")
        table = load_csv(path)
        assert table.values.shape == (3, 2)
        assert table.channel_names == ["a", "b"]

    def test_timestamp_column_excluded(self, tmp_path):
        path = write(tmp_path, "date,a\n2020-01-01,1\n2020-01-02,2\n")
        table = load_csv(path)
        assert table.values.shape == (2, 1)
        assert table.channel_names == ["a"]

    def test_unparseable_cell_reports_position(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n3,abc\n")
        with pytest.raises(ValueError, match=r"'abc' at row 3, column 'b'"):
            load_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            load_csv(write(tmp_path, ""))

    def test_nan_rows_dropped_with_warning(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n,4\n5,nan\n7,8\n")
        with pytest.warns(UserWarning, match="dropped 2 rows"):
            table = load_csv(path)
        assert table.values.shape == (2, 2)
        np.testing.assert_array_equal(table.values, [[1, 2], [7, 8]])

    def test_column_selection(self, tmp_path):
        path = write(tmp_path, "a,b,c\n1,2,3\n4,5,6\n")
        table = load_csv(path, columns=["c", "a"])
        assert table.channel_names == ["c", "a"]
        np.testing.assert_array_equal(table.values, [[3, 1], [6, 4]])

    def test_missing_column_rejected(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(ValueError, match="not found"):
            load_csv(path, columns=["z"])

    @pytest.mark.parametrize("cell", ["inf", "-inf", "1e400", "-Infinity"])
    def test_infinite_cell_reports_position(self, tmp_path, cell):
        path = write(tmp_path, f"a,b\n1,2\n3,{cell}\n")
        with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: infinite cell '{cell}' at row 3, column 'b'"):
            load_csv(path)

    def test_non_utf8_file_names_path(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"a,b\n1,2\n\xff,4\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: not UTF-8 text"):
            load_csv(path)

    def test_roundtrip_through_save(self, tmp_path):
        table = synth_series([(24, 1.0, 0.3)], noise_std=0.05, length=50, seed=1)
        path = tmp_path / "series.csv"
        save_csv(table, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.values, table.values)


class TestZscore:
    def split_all_train(self):
        return SplitSpec(mode="ratio", train=1.0, val=0.0, test=0.0)

    def test_hand_computed_stats(self):
        table = SeriesTable(np.array([[1.0], [2.0], [3.0], [4.0]]), 3600.0, ["a"])
        normalized, stats = fit_apply_zscore(table, self.split_all_train())
        assert stats.mean[0] == pytest.approx(2.5)
        assert stats.std[0] == pytest.approx(np.sqrt(1.25))
        np.testing.assert_allclose(
            normalized.values[:, 0], [-1.3416408, -0.4472136, 0.4472136, 1.3416408], atol=1e-6
        )

    def test_train_rows_standardized(self):
        rng = np.random.default_rng(0)
        table = SeriesTable(rng.normal(3.0, 2.5, size=(200, 3)), 3600.0, ["a", "b", "c"])
        split = SplitSpec()
        normalized, _ = fit_apply_zscore(table, split)
        start, end = split.bounds(200, 3600.0)["train"]
        train = normalized.values[start:end]
        np.testing.assert_allclose(train.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(train.std(axis=0), 1.0, atol=1e-9)

    def test_idempotent_on_standardized_data(self):
        rng = np.random.default_rng(1)
        raw = rng.normal(size=(100, 2))
        raw = (raw - raw.mean(axis=0)) / raw.std(axis=0)
        table = SeriesTable(raw, 3600.0, ["a", "b"])
        normalized, _ = fit_apply_zscore(table, self.split_all_train())
        np.testing.assert_allclose(normalized.values, raw, atol=1e-9)

    def test_constant_channel_rejected_by_name(self):
        table = SeriesTable(np.column_stack([np.arange(10.0), np.full(10, 7.0)]), 3600.0, ["ok", "flat"])
        with pytest.raises(ValueError, match="flat"):
            fit_apply_zscore(table, self.split_all_train())

    def test_no_leakage_from_val_test_content(self):
        rng = np.random.default_rng(2)
        base = rng.normal(size=(100, 2))
        table_a = SeriesTable(base.copy(), 3600.0, ["a", "b"])
        scrambled = base.copy()
        scrambled[70:] = rng.normal(50.0, 9.0, size=(30, 2))  # rewrite val/test rows
        table_b = SeriesTable(scrambled, 3600.0, ["a", "b"])
        split = SplitSpec()
        _, stats_a = fit_apply_zscore(table_a, split)
        _, stats_b = fit_apply_zscore(table_b, split)
        np.testing.assert_array_equal(stats_a.mean, stats_b.mean)
        np.testing.assert_array_equal(stats_a.std, stats_b.std)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_denormalize_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        table = SeriesTable(rng.normal(5.0, 3.0, size=(40, 2)), 3600.0, ["a", "b"])
        normalized, stats = fit_apply_zscore(table, self.split_all_train())
        np.testing.assert_allclose(normalized.values * stats.std + stats.mean, table.values, atol=1e-12)


class TestSplits:
    def test_ratio_bounds(self):
        bounds = SplitSpec().bounds(1000, 3600.0)
        assert bounds == {"train": (0, 700), "val": (700, 800), "test": (800, 1000)}

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            SplitSpec(train=0.7, val=0.2, test=0.2)

    @pytest.mark.parametrize("field", ["train", "val", "test"])
    @pytest.mark.parametrize("value", [-0.1, math.nan], ids=["negative", "nan"])
    def test_bad_fraction_names_its_field(self, field, value):
        with pytest.raises(ValueError, match=f"^split fraction {field} must be nonnegative"):
            SplitSpec(**{field: value})

    def test_infinite_fraction_fails_the_sum(self):
        with pytest.raises(ValueError, match="sum to 1, got inf"):
            SplitSpec(train=math.inf)

    @pytest.mark.parametrize(
        "months", [(12, 4), (12, 0, 4), (12, 4, math.nan), (12, 4, math.inf), (12.5, 4, 4)],
        ids=["two", "zero", "nan", "inf", "fraction"],
    )
    def test_bad_month_counts_rejected(self, months):
        with pytest.raises(ValueError, match="^months split needs three positive whole month counts"):
            SplitSpec(mode="months", months=months)

    def test_whole_float_month_counts_become_ints(self):
        assert SplitSpec(mode="months", months=(12.0, 4, 4)).months == (12, 4, 4)

    def test_months_mode_maps_via_step_duration(self):
        spec = SplitSpec(mode="months", months=(12, 4, 4))
        bounds = spec.bounds(20 * 720 + 5, 3600.0)  # hourly: 30-day month = 720 rows
        assert bounds["train"] == (0, 8640)
        assert bounds["val"] == (8640, 11520)
        assert bounds["test"] == (11520, 14400)

    def test_months_mode_rejects_short_table(self):
        spec = SplitSpec(mode="months", months=(12, 4, 4))
        with pytest.raises(ValueError, match="rows"):
            spec.bounds(1000, 3600.0)


class TestWindows:
    def make_table(self, n):
        return SeriesTable(np.arange(n, dtype=float)[:, None], 3600.0, ["v"])

    def test_window_count_for_segment(self):
        # single 200-row segment: 200 - 96 - 96 + 1 = 9 windows
        split = SplitSpec(train=1.0, val=0.0, test=0.0)
        windows = make_windows(self.make_table(200), 96, 96, split)
        assert windows["train"].n_windows == 9

    def test_counts_and_boundaries_per_split(self):
        table = self.make_table(100)
        split = SplitSpec(train=0.5, val=0.25, test=0.25)
        windows = make_windows(table, L=10, H=5, split=split)
        assert windows["train"].n_windows == 50 - 15 + 1
        assert windows["val"].n_windows == 25 - 15 + 1
        assert windows["test"].n_windows == 25 - 15 + 1
        # windows stay inside their segments
        assert windows["val"].inputs.min() >= 50
        assert windows["val"].targets.max() <= 74
        # last window's final target hits the segment end
        assert windows["test"].targets[-1, -1, 0] == 99

    def test_exact_minimum_segment_gives_one_window(self):
        table = self.make_table(15)
        windows = make_windows(table, 10, 5, SplitSpec(train=1.0, val=0.0, test=0.0))
        assert windows["train"].n_windows == 1
        np.testing.assert_array_equal(windows["train"].inputs[0, :, 0], np.arange(10.0))
        np.testing.assert_array_equal(windows["train"].targets[0, :, 0], np.arange(10.0, 15.0))

    def test_too_short_segment_reports_minimum(self):
        table = self.make_table(30)
        with pytest.raises(ValueError, match="at least 15"):
            make_windows(table, 10, 5, SplitSpec(train=0.2, val=0.4, test=0.4))

    @given(st.integers(2, 8), st.integers(1, 6), st.integers(0, 40))
    @settings(max_examples=40, deadline=None)
    def test_count_formula_holds(self, L, H, extra):
        n = L + H + extra
        table = self.make_table(n)
        windows = make_windows(table, L, H, SplitSpec(train=1.0, val=0.0, test=0.0))
        assert windows["train"].n_windows == n - L - H + 1
        assert windows["train"].inputs.shape == (n - L - H + 1, L, 1)
        assert windows["train"].targets.shape == (n - L - H + 1, H, 1)

    def test_views_equal_stacked_copies_and_are_read_only(self):
        values = np.random.default_rng(3).normal(size=(60, 3))
        table = SeriesTable(values, 3600.0, ["a", "b", "c"])
        L, H = 7, 4
        windows = make_windows(table, L, H, SplitSpec(train=1.0, val=0.0, test=0.0))["train"]
        n = 60 - L - H + 1
        np.testing.assert_array_equal(windows.inputs, np.stack([values[i : i + L] for i in range(n)]))
        np.testing.assert_array_equal(windows.targets, np.stack([values[i + L : i + L + H] for i in range(n)]))
        for array in windows:
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0, 0] = 0.0


class TestSynth:
    def test_cosine_sample_values(self):
        table = synth_series([(24, 1.0, 0.0)], length=96)
        x = table.values[:, 0]
        assert x[0] == pytest.approx(1.0)
        assert x[12] == pytest.approx(-1.0)
        assert x[24] == pytest.approx(1.0)

    def test_deterministic_per_seed(self):
        a = synth_series([(24, 1.0, 0.0)], noise_std=0.3, length=500, seed=7)
        b = synth_series([(24, 1.0, 0.0)], noise_std=0.3, length=500, seed=7)
        np.testing.assert_array_equal(a.values, b.values)
        c = synth_series([(24, 1.0, 0.0)], noise_std=0.3, length=500, seed=8)
        assert not np.array_equal(a.values, c.values)

    def test_pure_cosine_variance(self):
        # over whole periods, var of a*cos is a^2/2
        table = synth_series([(25, 2.0, 0.4)], length=1000)
        assert table.values.var() == pytest.approx(2.0, rel=1e-6)

    def test_nyquist_guard(self):
        with pytest.raises(ValueError, match="Nyquist"):
            synth_series([(2, 1.0, 0.0)], length=100)

    def test_trend(self):
        table = synth_series([], trend_slope=0.5, length=10)
        np.testing.assert_allclose(table.values[:, 0], 0.5 * np.arange(10))


# cells a CSV can hold: numbers, NaN spellings, infinities, empty, junk
CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", " ", "nan", "NaN", "inf", "-inf", "1e400", "x", "1,5", '"2"']),
    st.text(max_size=4),
)


@st.composite
def csv_bytes(draw):
    """A header and ragged rows, optionally with bytes that are not UTF-8."""
    width = draw(st.integers(1, 3))
    header = ",".join(f"c{i}" for i in range(width))
    rows = draw(st.lists(st.lists(CELLS, min_size=0, max_size=width + 1), max_size=6))
    text = "\n".join([header] + [",".join(row) for row in rows]) + "\n"
    data = text.encode("utf-8")
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80\x80"])) + data[at:]
    return data


@settings(max_examples=200, deadline=None)
@given(data=csv_bytes())
def test_load_csv_returns_finite_table_or_names_path(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "fuzz.csv"
    path.write_bytes(data)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # dropped NaN rows
            table = load_csv(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: ")
        assert "\n" not in str(exc)
    else:
        assert table.values.shape[0] >= 1
        assert np.all(np.isfinite(table.values))
