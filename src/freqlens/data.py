"""Dataset ingestion, normalization, chronological splits, and windowing.

Conventions: values are [T, C] float64; splits are strictly chronological;
z-score statistics come from the train rows only (population standard
deviation) and are applied unchanged to validation and test; sliding
windows use stride 1 and never span a split boundary.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .atomic import atomic_write

__all__ = [
    "SeriesTable",
    "NormStats",
    "SplitSpec",
    "WindowSet",
    "load_csv",
    "save_csv",
    "fit_apply_zscore",
    "make_windows",
    "synth_series",
]

ROWS_PER_MONTH_DAYS = 30  # months(a, b, c) splits count 30-day months


@dataclass
class SeriesTable:
    values: np.ndarray  # [T, C]
    step_duration: float  # physical seconds per step
    channel_names: list[str]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError(f"series values must be [T, C], got shape {self.values.shape}")
        if len(self.channel_names) != self.values.shape[1]:
            raise ValueError("channel_names length must match the channel count")
        if not 0 < self.step_duration < math.inf:  # also rejects NaN
            raise ValueError(f"step_duration must be a positive number of seconds, got {self.step_duration}")

    @property
    def n_steps(self) -> int:
        return self.values.shape[0]

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]


@dataclass
class NormStats:
    mean: np.ndarray  # [C]
    std: np.ndarray  # [C], population (1/n) convention


@dataclass
class SplitSpec:
    """Chronological split, either by fractions or by 30-day months."""

    mode: str = "ratio"  # "ratio" or "months"
    train: float = 0.7
    val: float = 0.1
    test: float = 0.2
    months: tuple[int, int, int] = (12, 4, 4)

    def __post_init__(self):
        if self.mode not in ("ratio", "months"):
            raise ValueError(f"unknown split mode {self.mode!r}")
        if self.mode == "ratio":
            for name in ("train", "val", "test"):
                if not getattr(self, name) >= 0:  # also rejects NaN
                    raise ValueError(f"split fraction {name} must be nonnegative, got {getattr(self, name)}")
            total = self.train + self.val + self.test
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"split fractions must sum to 1, got {total}")
        else:
            if len(self.months) != 3 or not all(
                isinstance(m, numbers.Real) and m > 0 and float(m).is_integer() for m in self.months
            ):
                raise ValueError(f"months split needs three positive whole month counts, got {list(self.months)}")
            self.months = tuple(int(m) for m in self.months)

    def bounds(self, n_steps: int, step_duration: float) -> dict[str, tuple[int, int]]:
        """Row ranges {split: (start, end)} covering [0, n_steps) in order."""
        if self.mode == "ratio":
            n_train = int(n_steps * self.train)
            n_val = int(n_steps * self.val)
            cuts = (n_train, n_train + n_val, n_steps)
        else:
            rows_per_month = ROWS_PER_MONTH_DAYS * 24 * 3600.0 / step_duration
            if abs(rows_per_month - round(rows_per_month)) > 1e-9:
                raise ValueError(
                    f"step_duration {step_duration}s does not divide a {ROWS_PER_MONTH_DAYS}-day month"
                )
            rows_per_month = round(rows_per_month)
            a, b, c = (m * rows_per_month for m in self.months)
            if a + b + c > n_steps:
                raise ValueError(
                    f"months split needs {a + b + c} rows, table has only {n_steps}"
                )
            cuts = (a, a + b, a + b + c)
        return {
            "train": (0, cuts[0]),
            "val": (cuts[0], cuts[1]),
            "test": (cuts[1], cuts[2]),
        }


class WindowSet(NamedTuple):
    inputs: np.ndarray  # [n, L, C]
    targets: np.ndarray  # [n, H, C]

    @property
    def n_windows(self) -> int:
        return self.inputs.shape[0]


def load_csv(path, timestamp_column: str = "date", columns: Sequence[str] | None = None,
             step_duration: float = 3600.0) -> SeriesTable:
    """Parse a numeric UTF-8 CSV with a header row.

    A column whose header matches ``timestamp_column`` is excluded from
    the channels.  ``columns`` restricts the channels (header names).
    Rows containing NaN or empty cells are dropped with a warning; an
    infinite cell, or anything else non-numeric, raises with its
    row/column position.  Every error names ``path``.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc})") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError(f"{path}: empty file") from None
    header = [h.strip() for h in header]
    keep = [i for i, name in enumerate(header) if name.lower() != timestamp_column.lower()]
    if columns is not None:
        wanted = list(columns)
        missing = [c for c in wanted if c not in header]
        if missing:
            raise ValueError(f"{path}: columns not found: {missing}")
        keep = [header.index(c) for c in wanted]
    names = [header[i] for i in keep]
    if not names:
        raise ValueError(f"{path}: no numeric channels after excluding the timestamp column")

    rows = []
    nan_rows = 0
    for r, row in enumerate(reader, start=2):  # header is line 1
        parsed = np.empty(len(keep))
        has_nan = False
        for j, i in enumerate(keep):
            cell = row[i].strip() if i < len(row) else ""
            if cell == "":
                has_nan = True
                continue
            try:
                value = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: unparseable cell {cell!r} at row {r}, column {header[i]!r}"
                ) from None
            if math.isinf(value):
                raise ValueError(f"{path}: infinite cell {cell!r} at row {r}, column {header[i]!r}")
            if math.isnan(value):
                has_nan = True
            parsed[j] = value
        if has_nan:
            nan_rows += 1
            continue
        rows.append(parsed)
    if nan_rows:
        warnings.warn(f"{path}: dropped {nan_rows} rows containing NaN")
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return SeriesTable(np.vstack(rows), step_duration, names)


def save_csv(table: SeriesTable, path) -> None:
    """Write the same CSV dialect the loader reads (header + numeric rows)."""
    with atomic_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(table.channel_names)
        for row in table.values:
            writer.writerow([repr(float(v)) for v in row])


def fit_apply_zscore(table: SeriesTable, split: SplitSpec) -> tuple[SeriesTable, NormStats]:
    """Z-score all rows using statistics of the train rows only."""
    start, end = split.bounds(table.n_steps, table.step_duration)["train"]
    train = table.values[start:end]
    if train.shape[0] == 0:
        raise ValueError("train split is empty")
    mean = train.mean(axis=0)
    std = train.std(axis=0)  # population (1/n)
    dead = np.flatnonzero(std == 0.0)
    if dead.size:
        names = [table.channel_names[i] for i in dead]
        raise ValueError(f"constant channel(s) cannot be z-scored: {names}")
    normalized = (table.values - mean) / std
    return (
        SeriesTable(normalized, table.step_duration, list(table.channel_names)),
        NormStats(mean=mean, std=std),
    )


def make_windows(table: SeriesTable, L: int, H: int, split: SplitSpec) -> dict[str, WindowSet]:
    """Stride-1 sliding windows within each chronological split segment.

    Each segment of length n yields n - L - H + 1 (input, target) pairs;
    no window crosses a split boundary.  The windows are read-only views
    into the series, not copies: overlapping windows share memory, so an
    in-place write raises instead of changing its neighbours.
    """
    out = {}
    for name, (start, end) in split.bounds(table.n_steps, table.step_duration).items():
        seg = table.values[start:end]
        if seg.shape[0] == 0:
            continue  # split assigns nothing to this segment
        n = seg.shape[0] - L - H + 1
        if n < 1:
            raise ValueError(
                f"{name} segment has {seg.shape[0]} rows; needs at least {L + H} for L={L}, H={H}"
            )
        out[name] = WindowSet(_windows(seg, n, L), _windows(seg[L:], n, H))
    return out


def _windows(rows: np.ndarray, n: int, width: int) -> np.ndarray:
    """Read-only view [n, width, C]: window i is rows[i : i + width].

    The same view ``sliding_window_view`` builds, without its argument
    handling, which cost most of a set-up's window time.
    """
    step, channel = rows.strides
    return as_strided(rows, shape=(n, width, rows.shape[1]), strides=(step, step, channel), writeable=False)


def synth_series(components: Sequence[tuple[float, float, float]], trend_slope: float = 0.0,
                 noise_std: float = 0.0, length: int = 2000, seed: int = 0,
                 step_duration: float = 3600.0) -> SeriesTable:
    """Single-channel series: sum of cosines plus optional trend and noise.

    ``components`` is a list of (period_steps, amplitude, phase); the
    series is sum_k a_k cos(2 pi t / P_k + rho_k) + slope * t + noise.
    Deterministic for a given seed.
    """
    if length < 2:
        raise ValueError("length must be at least 2")
    t = np.arange(length, dtype=np.float64)
    x = np.zeros(length)
    for period, amplitude, phase in components:
        if period <= 2:
            raise ValueError(f"period {period} is at or above the Nyquist limit (must exceed 2 steps)")
        x += amplitude * np.cos(2.0 * np.pi * t / period + phase)
    x += trend_slope * t
    if noise_std > 0:
        x += np.random.default_rng(seed).normal(0.0, noise_std, size=length)
    return SeriesTable(x[:, None], step_duration, ["value"])
