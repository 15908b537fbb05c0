"""Reference code that only the tests call: the fBm covariance, a certified
bound on the raw tail of the rho_H series, the paper's proof diagnostics
alpha_n, beta_{r,n} and gamma_n, and the Hermite expansion that rebuilds a
monomial from its coefficients.

Tests import it as ``from oracles import ...`` (pytest puts ``tests/`` on
``sys.path``).  The arithmetic is the library's own where these used to sit
in ``fbmvar``, so the tests that compare against them still compare the
same numbers; the level and order guards of library entry points are gone,
because every caller here is a test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fbmvar.errors import DomainError, SeriesDivergenceError
from fbmvar.fbm import _check_h, rho
from fbmvar.hermite import hermite_eval


def fbm_covariance(t: float, s: float, hurst: float) -> float:
    """Covariance R_H(t, s) of fBm on [0, 1]."""
    _check_h(hurst)
    if not (0.0 <= t <= 1.0 and 0.0 <= s <= 1.0):
        raise DomainError(f"t, s must lie in [0,1], got t={t}, s={s}")
    h2 = 2.0 * hurst
    return 0.5 * (abs(s) ** h2 + abs(t) ** h2 - abs(t - s) ** h2)


def rho_tail_mass_bound(hurst: float, p: int, radius: int) -> float:
    """Certified bound on sum_{|r|>R} |rho_H(r)|**p via the integral test.

    As |rho_H(r)| <= 2H|2H-1| (|r|-1)**(2H-2) for |r| >= 2, with s = (2 - 2H) p,

        sum_{|r|>R} |rho|**p <= 2 (2H|2H-1|)**p (R-1)**(1-s) / (s - 1).

    It certifies the partial sums of ``constants.rho_power_sum`` but is far
    too weak to meet its REL_TOL = 1e-8 at radius 1024, which is why the
    library reports the tail-corrected value instead.
    """
    s = (2.0 - 2.0 * hurst) * p
    if s <= 1.0:
        raise SeriesDivergenceError(
            f"sum of |rho|^{p} diverges for H={hurst} (need (2-2H)p > 1)"
        )
    c = (2.0 * hurst * abs(2.0 * hurst - 1.0)) ** p
    return 2.0 * c * (radius - 1.0) ** (1.0 - s) / (s - 1.0)


def hermite_expansion(coeffs, x):
    """sum_p coeffs[p] * H_p(x): x**m again for the coefficients
    ``hermite.monomial_in_hermite(m)`` returns."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for p, c in enumerate(coeffs):
        if c:
            out = out + c * hermite_eval(p, x)
    return out


def nonzero_coefficients(coeffs) -> dict[int, int]:
    """{p: c_p} for the nonzero entries of a coefficient tuple."""
    return {p: c for p, c in enumerate(coeffs) if c != 0}


@dataclass(frozen=True)
class DiagnosticSums:
    """The proof diagnostics alpha_n, beta_{r,n} (r = 1..q), gamma_n."""

    level: int
    alpha: float
    beta: dict[int, float]
    gamma: float


def beta_sums(hurst: float, level: int, q: int) -> dict[int, float]:
    """beta_{r,n} = sum_{k,l} |<delta_k, delta_l>|^r for r = 1..q.

    Uses the stationary reduction 2^(-2nrH - r) sum_{k,l} |rho_H(k-l)|^r,
    an O(2^n) computation.
    """
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
    """Deterministic proof diagnostics at (H, n), in O(2^n).

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
