"""Forecast metrics and paired significance statistics.

Metrics are plain means over all elements of normalized predictions.
The paired t-test gets its two-sided p-value from the Student t CDF,
evaluated through the regularized incomplete beta function with a
modified-Lentz continued fraction: no statistics dependency, and the
values are checked against direct quadrature of the t density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MetricSet",
    "SignificanceResult",
    "compute_metrics",
    "paired_ttest",
    "regularized_incomplete_beta",
    "student_t_two_sided_p",
]


@dataclass
class MetricSet:
    mse: float
    mae: float
    rmse: float


@dataclass
class SignificanceResult:
    n: int
    mean_diff: float
    t_stat: float
    p_value: float
    cohen_d: float
    degenerate_variance: bool = False


def compute_metrics(pred: np.ndarray, target: np.ndarray) -> MetricSet:
    """MSE, MAE, and RMSE over all elements of equally shaped arrays."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"metrics: shape mismatch {pred.shape} vs {target.shape}")
    diff = pred - target
    mse = float((diff * diff).mean())
    return MetricSet(
        mse=mse,
        mae=float(np.abs(diff).mean()),
        rmse=math.sqrt(mse),
    )


def _betacf(a: float, b: float, x: float, max_iter: int = 300, tol: float = 3e-16) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < tol:
            return h
    raise RuntimeError(f"incomplete beta continued fraction failed to converge (a={a}, b={b}, x={x})")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ValueError("shape parameters must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return x
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log(1.0 - x)
    )
    front = math.exp(ln_front)
    # choose the branch where the continued fraction converges fast
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_two_sided_p(t: float, dof: float) -> float:
    """Two-sided tail probability 2 P(T >= |t|) for T ~ Student t(dof)."""
    if dof <= 0:
        raise ValueError("degrees of freedom must be positive")
    if math.isinf(t):
        return 0.0
    p = regularized_incomplete_beta(dof / 2.0, 0.5, dof / (dof + t * t))
    return min(max(p, 0.0), 1.0)


def paired_ttest(a, b) -> SignificanceResult:
    """Paired t-test of a vs b with the paired-difference effect size.

    t = mean(d) / (sd(d)/sqrt(n)) with the sample (n-1) standard
    deviation, and Cohen's d = mean(d)/sd(d).  Zero-variance
    differences are flagged: p = 0 with a signed infinite effect size
    when the mean difference is nonzero, and t = 0, p = 1 when the
    differences are identically zero.  A NaN or infinite value is
    rejected, naming its array and index.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"paired test needs equal-length vectors, got {a.shape} and {b.shape}")
    for name, values in (("a", a), ("b", b)):
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ValueError(f"paired test needs finite values, got {name}[{bad[0]}] = {values[bad[0]]}")
    n = a.shape[0]
    if n < 2:
        raise ValueError("paired test needs at least two pairs")
    d = a - b
    mean_diff = float(d.mean())
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        if mean_diff == 0.0:
            return SignificanceResult(n, 0.0, 0.0, 1.0, 0.0, degenerate_variance=True)
        sign = math.copysign(1.0, mean_diff)
        return SignificanceResult(
            n, mean_diff, sign * math.inf, 0.0, sign * math.inf, degenerate_variance=True
        )
    t_stat = mean_diff / (sd / math.sqrt(n))
    return SignificanceResult(
        n=n,
        mean_diff=mean_diff,
        t_stat=t_stat,
        p_value=student_t_two_sided_p(t_stat, n - 1),
        cohen_d=mean_diff / sd,
    )
