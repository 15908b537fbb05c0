"""Weighted Hermite and power variations, renormalisation, diagnostics.

The central statistic is

    V_n^(q)(f) = sum_{k=1}^{2^n} f(B_{(k-1)2^-n}) H_q(2^{nH} dB_{k2^-n}),

with the weight always evaluated at the left endpoint.  The centered
weighted power variation decomposes exactly through the monomial
expansion x**q - mu_q = sum_{p>=1} c_p H_p(x), whose coefficients
c_p = p! C(q,p) mu_{q-p} ``hermite.monomial_in_hermite`` owns.

The row functions of the Monte Carlo experiments take a (replicates, 2^n)
increment matrix and the weight's values at the left endpoint of each
increment, or None for f = 1, which weights nothing; they sum each
statistic's per-increment terms with numpy's pairwise summation (error
O(eps log(2**n)), ten orders of magnitude below Monte Carlo noise).
The single-path entry points sum the same terms exactly rounded, as
``math.fsum`` would (the sums mix 2**n terms of both signs), and raise
``DomainError`` when a term is not finite or the sum overflows a double.
They sum through ``constants.exact_sum``: with N terms and sigma = 2**k at
least 2N times the largest |term|, q = (sigma + x) - sigma splits every
term exactly into a high part q and x - q, and the N high parts add up
exactly in any order, so ``np.sum`` adds them in one pass.  A few such
rounds leave x - q all zero, and ``math.fsum`` rounds the handful of exact
partial sums once: the same double as ``math.fsum`` over the terms, about
three times faster at 2**20 terms.  The exact second moments
(``_corr_power_sum``) and the constants' lag sums use the same helper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import ScalingRegime, _check_order, classify_regime, exact_sum, renorm_factor
from .errors import DomainError, GridAlignmentError
from .fbm import FbmPath, check_level, rho
from .hermite import gaussian_moment, hermite_eval, monomial_in_hermite
from .weights import ConstantOne, WeightFunction


@dataclass(frozen=True)
class VariationStatistic:
    order: int
    level: int
    raw_value: float
    renormalized_value: float
    regime: ScalingRegime


@dataclass(frozen=True)
class DiagnosticSums:
    """The proof diagnostics alpha_n, beta_{r,n} (r = 1..q), gamma_n."""

    level: int
    alpha: float
    beta: dict[int, float]
    gamma: float


def scaled_hermite(increments, hurst, level, q) -> np.ndarray:
    """H_q(2^{nH} dB_k2^-n) for every level-n increment dB_k2^-n in
    `increments`: the terms of V_n^(q)(1), and the steps of the Hermite
    process approximation Z_n before its prefactor."""
    return hermite_eval(q, 2.0 ** (level * hurst) * increments)


def left_weights(f: WeightFunction, values: np.ndarray) -> np.ndarray | None:
    """f at the left endpoint of each increment of the path `values`, or None
    for f = 1, which weights nothing."""
    return None if isinstance(f, ConstantOne) else f(values)[:-1]


def _weighted(terms: np.ndarray, left) -> np.ndarray:
    """`terms` times f at each term's left endpoint (`left`), in place; at
    f = 1 (`left` None) the terms themselves."""
    if left is not None:
        if left.shape != terms.shape:
            raise GridAlignmentError(
                f"grid mismatch: weight {left.shape} vs increments {terms.shape}"
            )
        terms *= left
    return terms


def _power_terms(inc, hurst, level, left, q, centered) -> np.ndarray:
    """f(B_(k-1)2^-n) [(2^{nH} dB_k2^-n)^q - (centered ? mu_q : 0)] for the
    increments `inc`."""
    powers = (2.0 ** (level * hurst) * inc) ** q
    if centered:
        powers -= gaussian_moment(q)
    return _weighted(powers, left)


def finite_fsum(terms: np.ndarray, what: str) -> float:
    """math.fsum of `terms` (through ``exact_sum``); DomainError, naming
    `what`, when a term is not finite or the exact sum overflows a double."""
    if not np.isfinite(terms).all():
        raise DomainError(f"{what}: a term is not finite (it overflows a double)")
    try:
        return exact_sum(terms)
    except OverflowError:
        raise DomainError(f"{what}: the sum overflows a double") from None


def weighted_hermite_variation(path: FbmPath, f: WeightFunction, q: int) -> float:
    """V_n^(q)(f) for one path, exactly accumulated."""
    _check_order(q, minimum=1)
    with np.errstate(over="ignore", invalid="ignore"):  # finite_fsum reports it
        hq = scaled_hermite(path.increments, path.hurst, path.level, q)
        terms = _weighted(hq, left_weights(f, path.values))
    return finite_fsum(terms, "weighted Hermite variation")


def weighted_power_variation(
    path: FbmPath, f: WeightFunction, q: int, centered: bool = False
) -> float:
    """sum_k f(B_(k-1)2^-n) [ (2^{nH} dB)^q - (centered ? mu_q : 0) ]."""
    _check_order(q, minimum=1)
    with np.errstate(over="ignore", invalid="ignore"):  # finite_fsum reports it
        left = left_weights(f, path.values)
        terms = _power_terms(path.increments, path.hurst, path.level, left, q, centered)
    return finite_fsum(terms, "weighted power variation")


def renormalize(raw_value: float, hurst: float, q: int, level: int) -> VariationStatistic:
    """Apply the regime prefactor of (H, q) to a raw variation value."""
    regime = classify_regime(hurst, q)
    factor = renorm_factor(hurst, q, level)
    return VariationStatistic(
        order=q,
        level=level,
        raw_value=raw_value,
        renormalized_value=factor * raw_value,
        regime=regime,
    )


def beta_sums(hurst: float, level: int, q: int) -> dict[int, float]:
    """beta_{r,n} = sum_{k,l} |<delta_k, delta_l>|^r for r = 1..q.

    Uses the stationary reduction 2^(-2nrH - r) sum_{k,l} |rho_H(k-l)|^r,
    an O(2^n) computation allowed up to level 24.
    """
    _check_order(q, minimum=1)
    check_level(level)
    n_pts = 2**level
    abs_rho = rho(np.arange(n_pts, dtype=float), hurst)
    np.abs(abs_rho, out=abs_rho)
    # sum over k,l of |rho(k-l)|^r = sum over lags j of (N - |j|) |rho(j)|^r
    weights = np.arange(n_pts, 0, -1, dtype=float)
    weights[1:] *= 2.0
    power = np.empty_like(abs_rho)
    out = {}
    for r in range(1, q + 1):
        np.power(abs_rho, r, out=power)
        out[r] = 2.0 ** (-2.0 * level * r * hurst - r) * float(np.dot(weights, power))
    return out


# Lags per chunk of diagnostic_sums: a chunk's arrays (128 KiB each) stay in
# L2, and its memory is small beside that of beta_sums, which is freed first.
_DIAGNOSTIC_CHUNK = 1 << 14


def _g_increment(d: np.ndarray, a: float) -> np.ndarray:
    """g(d) = d^a - (d-1)^a = -d^a expm1(a log1p(-1/d)) at lags d >= 1, free
    of cancellation; log1p(-1) = -inf makes g(1) = 1 exactly."""
    with np.errstate(divide="ignore"):
        return -np.expm1(a * np.log1p(-1.0 / d)) * d**a


def diagnostic_sums(hurst: float, level: int, q: int) -> DiagnosticSums:
    """Deterministic proof diagnostics at (H, n), in O(2^n) up to level 24.

    With N = 2^n and g(d) = |d|^2H - |d-1|^2H, the grid of inner products
    <eps_(k-1)2^-n, delta_l2^-n> = E[B_(k-1)2^-n dB_l2^-n] is 2^(-2Hn-1)
    (g(l) - g(l-k+1)).  As g(1) = 1, g(d) - g(d-1) = rho_H(d-1), g(d) =
    -g(1-d), and g is positive and monotone on d >= 1, each row l sums and
    maximises in closed form:

        gamma_n ~ sum_l |sum_(j<l) j rho_H(j)| + 2 sum_l (N-l) g(l)
        alpha_n ~ max_l max(|g(l) - 1|, g(l) + max(1, g(N-l)) if l < N)

    with g(d) = -d^2H expm1(2H log1p(-1/d)), free of cancellation.  The low
    bits of alpha_n and gamma_n differ from a sum over the full grid (about
    1e-13 relative at n <= 12); the beta_{r,n} come from ``beta_sums``.

    The lags run in chunks of 2^14, so memory beyond that of ``beta_sums``
    stays a few MiB.  The running moment sum_(j<l) j rho_H(j) carries into
    each chunk's first term and keeps its sequential bits; the two sums of
    gamma_n add up one pairwise sum per chunk.
    """
    beta = beta_sums(hurst, level, q)
    n_pts = 2**level
    a = 2.0 * hurst
    moment_end = abs_moment = weighted_g = 0.0
    max_dev = max_pair = 0.0
    for lo in range(1, n_pts + 1, _DIAGNOSTIC_CHUNK):
        # the chunk's lags l, and below N its lags j of the moment
        d = np.arange(lo, min(lo + _DIAGNOSTIC_CHUNK, n_pts + 1), dtype=float)
        g = _g_increment(d, a)
        weighted_g += float(np.dot(n_pts - d, g))
        max_dev = max(max_dev, float(np.max(np.abs(g - 1.0))))
        j = d[: n_pts - lo]
        if j.size:
            steps = rho(j, hurst) * j  # one sign: no cancellation
            steps[0] += moment_end
            moment = np.cumsum(steps)
            moment_end = float(moment[-1])
            abs_moment += float(np.sum(np.abs(moment)))
            pairs = g[: j.size] + np.maximum(_g_increment(n_pts - j, a), 1.0)
            max_pair = max(max_pair, float(np.max(pairs)))
    gamma = abs_moment + 2.0 * weighted_g
    alpha = max(max_dev, max_pair)
    scale = 2.0 ** (-2.0 * hurst * level - 1.0)
    return DiagnosticSums(
        level=level, alpha=scale * alpha, beta=beta, gamma=scale * gamma
    )


def weighted_rows(terms: np.ndarray, left) -> np.ndarray:
    """sum_k f(B_(k-1)2^-n) terms_k per row of a (replicates, 2^n) matrix of
    per-increment terms, weighted in place: V_n^(q)(f) for the terms of
    ``scaled_hermite``.  `left` holds f at the left endpoint of each
    increment, or is None for f = 1."""
    return np.sum(_weighted(terms, left), axis=-1)


def hermite_variation_rows(
    values: np.ndarray, hurst: float, level: int, weight, q: int
) -> np.ndarray:
    """V_n^(q)(f) per row of a (replicates, 2^n + 1) path-value matrix;
    `weight` is f, or holds f at every point of `values`."""
    if isinstance(weight, WeightFunction):  # perfbench/reference.py passes f itself
        weight = weight(values)
    hq = scaled_hermite(np.diff(values, axis=-1), hurst, level, q)
    return weighted_rows(hq, weight[..., :-1])


def power_variation_rows(inc: np.ndarray, hurst: float, level: int, left, q: int) -> np.ndarray:
    """Centred weighted power variation per row of an increment matrix; `left`
    as in ``weighted_rows``."""
    return np.sum(_power_terms(inc, hurst, level, left, q, True), axis=-1)


def riemann_sum_rows(left: np.ndarray) -> np.ndarray:
    """Left-endpoint Riemann sum 2^-n sum_k g(B_(k-1)2^-n) per row, where
    `left` holds g (f or one of its derivatives) at the 2^n left endpoints."""
    return np.sum(left, axis=1) / left.shape[1]


def _corr_power_sum(hurst: float, level: int, p: int) -> float:
    """sum_{k,l} (rho_H(k-l)/2)^p over 2^n increments, by stationarity: 2^n
    (rho_H(0) = 2) plus twice sum over lags j >= 1 of (2^n - j) (rho(j)/2)^p."""
    check_level(level)
    n_pts = 2**level
    lags = np.arange(1, n_pts)
    corr = 0.5 * rho(lags, hurst)
    return n_pts * 1.0 + 2.0 * exact_sum((n_pts - lags) * corr**p)


def unweighted_second_moment(hurst: float, q: int, level: int) -> float:
    """Exact E[(V_n^(q)(1))^2] = (1/q!) sum_{k,l} (rho_H(k-l)/2)^q, an O(2^n)
    computation; the normalised increments have correlation rho_H(k-l)/2 and
    E[H_q(X)H_q(Y)] = corr^q / q!."""
    _check_order(q, minimum=1)
    return _corr_power_sum(hurst, level, q) / math.factorial(q)


def centered_power_second_moment(hurst: float, q: int, level: int) -> float:
    """Exact second moment of the centered unweighted power variation.

    Expanding (2^{nH} dB)^q - mu_q = sum_{p>=1} c_p H_p over Hermite
    components (c_p from ``monomial_in_hermite``) gives
    E[S_n^2] = sum_{k,l} sum_p c_p^2 (rho(k-l)/2)^p / p!.
    """
    total = 0.0
    for p, c in enumerate(monomial_in_hermite(q).coeffs):
        if p >= 1 and c != 0:
            total += c * c // math.factorial(p) * _corr_power_sum(hurst, level, p)
    return total
