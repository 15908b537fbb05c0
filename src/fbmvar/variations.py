"""Weighted Hermite and power variations and their renormalisation.

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

import numpy as np

from .constants import _check_order, exact_sum, renorm_factor
from .errors import DomainError, GridAlignmentError
from .fbm import FbmPath, check_level, rho
from .hermite import gaussian_moment, hermite_eval, monomial_in_hermite
from .weights import ONE, WeightFunction


def scaled_hermite(increments, hurst, level, q) -> np.ndarray:
    """H_q(2^{nH} dB_k2^-n) for every level-n increment dB_k2^-n in
    `increments`: the terms of V_n^(q)(1), and the steps of the Hermite
    process approximation Z_n before its prefactor."""
    return hermite_eval(q, 2.0 ** (level * hurst) * increments)


def left_weights(f: WeightFunction, values: np.ndarray) -> np.ndarray | None:
    """f at the left endpoint of each increment of the path `values`, or None
    for f = 1, which weights nothing."""
    return None if f == ONE else f(values)[:-1]


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


def renormalize(raw_value: float, hurst: float, q: int, level: int) -> float:
    """A raw variation value times the regime prefactor of (H, q) at `level`."""
    return renorm_factor(hurst, q, level) * raw_value


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
    for p, c in enumerate(monomial_in_hermite(q)):
        if p >= 1 and c != 0:
            total += c * c // math.factorial(p) * _corr_power_sum(hurst, level, p)
    return total
