"""Internal statistics: Kolmogorov-Smirnov tests and small fit helpers.

Implemented here so the library carries no external statistics
dependency.  Formulas:

* One-sample statistic against a continuous CDF F, with order statistics
  x_(1) <= ... <= x_(N):

      D = max_i max( i/N - F(x_(i)), F(x_(i)) - (i-1)/N ).

  Asymptotic p-value via Stephens' small-sample adjustment
  lam = D (sqrt(N) + 0.12 + 0.11/sqrt(N)) and the Kolmogorov survival
  function Q(lam) = 2 sum_{j>=1} (-1)^(j-1) exp(-2 j^2 lam^2).

* Two-sample statistic D = sup |ECDF_x - ECDF_y| with
  lam = D sqrt(m n / (m + n)) and the same Q.

Both p-values are asymptotic; at the sample sizes used here (10^3-10^4)
the approximation error is far below the 1% decision levels.
"""

from __future__ import annotations

import math

import numpy as np


def normal_cdf(x):
    """Standard normal CDF via erf (vectorised)."""
    x = np.asarray(x, dtype=float)
    out = np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x.ravel()])
    return out.reshape(x.shape)


def kolmogorov_sf(lam: float) -> float:
    """Q(lam) = 2 sum_{j=1..inf} (-1)^(j-1) exp(-2 j^2 lam^2), clipped to [0,1]."""
    if lam <= 0.0:
        return 1.0
    total = 0.0
    for j in range(1, 201):
        term = math.exp(-2.0 * j * j * lam * lam)
        total += term if j % 2 == 1 else -term
        if term < 1e-18:
            break
    return min(1.0, max(0.0, 2.0 * total))


def ks_1samp_normal(sample) -> tuple[float, float]:
    """(D, p) of a one-sample KS test against N(0, 1)."""
    x = np.sort(np.asarray(sample, dtype=float))
    n = len(x)
    cdf = normal_cdf(x)
    i = np.arange(1, n + 1)
    d = max(float(np.max(i / n - cdf)), float(np.max(cdf - (i - 1) / n)))
    lam = d * (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n))
    return d, kolmogorov_sf(lam)


def ks_2samp(sample_x, sample_y) -> tuple[float, float]:
    """(D, p) of a two-sample KS test."""
    x = np.sort(np.asarray(sample_x, dtype=float))
    y = np.sort(np.asarray(sample_y, dtype=float))
    m, n = len(x), len(y)
    grid = np.concatenate([x, y])
    cdf_x = np.searchsorted(x, grid, side="right") / m
    cdf_y = np.searchsorted(y, grid, side="right") / n
    d = float(np.max(np.abs(cdf_x - cdf_y)))
    lam = d * math.sqrt(m * n / (m + n))
    return d, kolmogorov_sf(lam)


def least_squares_slope(x, y) -> tuple[float, float]:
    """(slope, intercept) of an ordinary least-squares line."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xm, ym = x.mean(), y.mean()
    slope = float(np.dot(x - xm, y - ym) / np.dot(x - xm, x - xm))
    return slope, float(ym - slope * xm)


def through_origin_slope(x, y) -> tuple[float, float]:
    """(slope, standard error) of y = b x fitted through the origin.

    The error uses the heteroskedasticity-robust sandwich
    Var(b) = sum x_i^2 (y_i - b x_i)^2 / (sum x_i^2)^2.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    sxx = float(np.dot(x, x))
    slope = float(np.dot(x, y)) / sxx
    resid = y - slope * x
    se = math.sqrt(float(np.dot(x * x, resid * resid))) / sxx
    return slope, se


def mean_and_se(values) -> tuple[float, float]:
    v = np.asarray(values, dtype=float)
    return float(v.mean()), float(v.std(ddof=1) / math.sqrt(len(v)))


def variance_and_se(values, known_mean: float | None = None) -> tuple[float, float]:
    """Variance estimate with its Monte Carlo standard error.

    With known_mean given, uses the known-mean estimator mean((v-mu)^2);
    the SE is std of the squared deviations / sqrt(N) either way.
    """
    v = np.asarray(values, dtype=float)
    if known_mean is None:
        sq = (v - v.mean()) ** 2
        var = float(v.var(ddof=1))
    else:
        sq = (v - known_mean) ** 2
        var = float(sq.mean())
    return var, float(sq.std(ddof=1) / math.sqrt(len(v)))


def median_and_se(values) -> tuple[float, float]:
    """Median with the asymptotic-normal approximation to its SE."""
    v = np.asarray(values, dtype=float)
    return float(np.median(v)), float(1.2533 * v.std(ddof=1) / math.sqrt(len(v)))


def count_inversions(seq) -> int:
    """Number of adjacent increases in a sequence expected to decrease."""
    s = list(seq)
    return sum(1 for a, b in zip(s, s[1:]) if b > a)
