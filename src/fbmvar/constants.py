"""Limit constants, controlled series truncation and the (H, q) classifier.

Series evaluation
-----------------
Several constants need S_p(H) = sum over all integers r of rho_H(r)**p,
which converges iff (2 - 2H) p > 1.  The truncated evaluator returns

    value = partial sum over |r| <= R  +  analytic tail estimate,

where the tail estimate uses the expansion (a = 2H, x = 1/r)

    rho_H(r) = a(a-1) r**(a-2) * (1 + e1 x**2 + ...),   e1 = (a-2)(a-3)/12,

so that, with s = (2 - 2H) p and c_p = (a(a-1))**p,

    sum_{r>R} rho**p ~ c_p * [ Z(s, R) + p e1 Z(s+2, R) ],

Z(sigma, R) = sum_{r>R} r**(-sigma) computed by Euler-Maclaurin
(integral + N**(-sigma)/2 + sigma N**(-sigma-1)/12 - ... with N = R+1).

``tail_bound`` is a certified bound on the error of the corrected value:
Euler-Maclaurin remainders are bounded by twice the first omitted term,
and the expansion remainder uses |psi(x)**p - 1 - p e1 x**2| <= K(p) x**4
for x <= 1/32, with K(p) = 0.34 p + 0.27 C(p,2) + 1 (the coefficients of
psi satisfy |e_k| <= 1/(k+1) for a in (0,2), giving
|psi - 1 - e1 x**2| <= x**4 / (3 (1 - x**2)) and |psi - 1| <= 0.51 x**2).

Critical-case constants are implemented exactly as printed, with
``*_corrected`` companions (square root inserted; for the power-variation
constant, the surviving chaos-2 critical term) so experiments can
arbitrate the printed/corrected ambiguity empirically.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, RegimeError, SeriesDivergenceError, check_int, integer_in
from .fbm import _check_h, check_level, rho
from .hermite import gaussian_moment, monomial_in_hermite

# the one series tolerance, and the radius summed when none is pinned
REL_TOL = 1e-8
_DEFAULT_RADIUS = 1 << 10
_MAX_RADIUS = 1 << 22


class RegimeCase(Enum):
    SMALL_H = "SMALL_H"
    CRITICAL_LOW = "CRITICAL_LOW"
    CLT = "CLT"
    CRITICAL_HIGH = "CRITICAL_HIGH"
    NONCENTRAL = "NONCENTRAL"

    @property
    def renorm_exponent(self) -> str:
        """The case's renormalisation prefactor at level n, as text."""
        return _CASES[self][0]


# renormalisation exponent, window and prefactor at level n of each case: the
# one statement of where (H, q) sits against lo = 1/(2q) and hi = 1 - 1/(2q)
_CASES = {
    RegimeCase.SMALL_H: ("2^(n(qH-1))", "H < 1/(2q) = {lo}",
                         lambda h, q, n: 2.0 ** (n * (q * h - 1.0))),
    RegimeCase.CRITICAL_LOW: ("2^(-n/2)", "H = 1/(2q) = {lo}",
                              lambda h, q, n: 2.0 ** (-n / 2.0)),
    RegimeCase.CLT: ("2^(-n/2)", "1/(2q) = {lo} < H < 1 - 1/(2q) = {hi}",
                     lambda h, q, n: 2.0 ** (-n / 2.0)),
    RegimeCase.CRITICAL_HIGH: ("n^(-1/2) 2^(-n/2)", "H = 1 - 1/(2q) = {hi}",
                               lambda h, q, n: 2.0 ** (-n / 2.0) / math.sqrt(n)),
    RegimeCase.NONCENTRAL: ("2^(n(q(1-H)-1))", "H > 1 - 1/(2q) = {hi}",
                            lambda h, q, n: 2.0 ** (n * (q * (1.0 - h) - 1.0))),
}


@dataclass(frozen=True)
class TruncatedSeries:
    """Value of a truncated series plus a certified residual bound."""

    value: float
    radius: int
    tail_bound: float
    converged: bool


def _check_order(q: int, minimum: int = 2) -> None:
    """The one check on a statistic's order q: an integer in [minimum, 150].
    The limit constants are doubles, and 2^q q!, the scale of sigma_(H,q),
    and the sigma~ sums are finite up to q = 150."""
    if not integer_in(q, minimum, 150):
        raise DomainError(
            f"order q must be an integer in [{minimum}, 150], got {q} "
            "(the limit constants overflow a double above q=150)"
        )


def classify_regime(hurst: float, q: int) -> RegimeCase:
    """The convergence case of (H, q), with exact boundary handling."""
    _check_order(q)
    _check_h(hurst)
    lo = 1.0 / (2 * q)
    hi = 1.0 - lo
    if hurst < lo:
        return RegimeCase.SMALL_H
    if hurst == lo:
        return RegimeCase.CRITICAL_LOW
    if hurst < hi:
        return RegimeCase.CLT
    if hurst == hi:
        return RegimeCase.CRITICAL_HIGH
    return RegimeCase.NONCENTRAL


def require_regime(hurst: float, q: int, case: RegimeCase, who: str) -> None:
    """Raise RegimeError naming `who` unless (H, q) lies in `case`."""
    if classify_regime(hurst, q) is not case:
        lo = 1.0 / (2 * q)
        window = _CASES[case][1].format(lo=lo, hi=1.0 - lo)
        raise RegimeError(f"{who} needs {window}, got H={hurst}, q={q}")


def renorm_factor(hurst: float, q: int, level: int) -> float:
    """Numeric renormalisation prefactor for the regime of (H, q) at `level`."""
    check_level(level)
    return _CASES[classify_regime(hurst, q)][2](hurst, q, level)


def _zeta_tail_em(sigma: float, radius: int) -> tuple[float, float]:
    """(estimate, certified remainder bound) for sum_{r>R} r**-sigma."""
    n = float(radius + 1)
    t0 = n ** (1.0 - sigma) / (sigma - 1.0)
    t1 = 0.5 * n**-sigma
    t2 = sigma * n ** (-sigma - 1.0) / 12.0
    t3 = -sigma * (sigma + 1.0) * (sigma + 2.0) * n ** (-sigma - 3.0) / 720.0
    omitted = (
        sigma * (sigma + 1.0) * (sigma + 2.0) * (sigma + 3.0) * (sigma + 4.0)
        * n ** (-sigma - 5.0) / 30240.0
    )
    return t0 + t1 + t2 + t3, 2.0 * abs(omitted)


def _zeta_tail_upper(sigma: float, radius: int) -> float:
    return radius ** (1.0 - sigma) / (sigma - 1.0)


# extraction rounds of exact_sum before the residual goes to math.fsum; with
# 2**b > 2N terms each round takes 53 - b bits (30 for N = 2**21) off the
# residual's largest magnitude
_EXACT_SUM_ROUNDS = 40


def exact_sum(terms) -> float:
    """``math.fsum(terms)``, bit for bit, in a few whole-array passes.

    Error-free extraction (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31,
    2008): with N terms, 2**b > 2N and sigma = 2**(b + e) >= 2**b max|x|,
    q = (sigma + x) - sigma and x - q are exact, every q is a multiple of
    2**-53 sigma and N max|q| <= sigma / 2, so the round's ``np.sum(q)`` is
    exact in any order.  Rounds repeat on x - q until it is zero, and
    ``math.fsum`` rounds the few exact partial sums once.  Where sigma would
    overflow (max|x| >= 2**(1023 - b)), a term is not finite or the rounds
    run out, the rest goes to ``math.fsum`` as it is, which keeps its
    results and its OverflowError.
    """
    x = np.array(terms, dtype=float).ravel()
    bits = (2 * x.size).bit_length()
    q = np.empty_like(x)
    partials = []
    for _ in range(_EXACT_SUM_ROUNDS):
        top = float(np.max(np.abs(x, out=q))) if x.size else 0.0
        if top == 0.0:
            # with no partial sum every term is +-0.0, and math.fsum picks
            # the zero's sign
            return math.fsum(partials) if partials else math.fsum(x)
        if not math.isfinite(top) or math.frexp(top)[1] + bits > 1023:
            break
        sigma = math.ldexp(1.0, math.frexp(top)[1] + bits)
        np.add(x, sigma, out=q)
        q -= sigma
        x -= q
        partials.append(float(np.sum(q)))
    return math.fsum(partials + x.tolist())


def _rho_powers_stable(hurst: float, p: int, radius: int) -> float:
    """sum_{r=1..R} rho^p, exactly rounded.  ``fbm.rho`` evaluates the large
    lags without cancellation noise, which would otherwise swamp the
    analytic tail control when summing millions of lags."""
    return exact_sum(rho(np.arange(1, radius + 1, dtype=float), hurst) ** p)


def rho_power_sum(
    hurst: float,
    p: int,
    radius: int | None = None,
) -> TruncatedSeries:
    """sum over all integer lags of rho_H(r)**p, signed, with tail control.

    The lags run to `radius`, an integer in [32, 2**22], or to 1024 when
    none is given, and the tail estimate is added either way; the series is
    converged when the certified residual bound is at most REL_TOL * |value|.
    Radius 1024 is enough for every convergent series with p <= 150: there
    s > 1, and |c_p| <= |value| (c_p < 2**p < value for H > 1/2; below,
    |c_p| <= 4**-p and |value| >= 2**(p-1)), so the bound is at most about
    K(p) R**-4 / 2 of |value|, 1.4e-9 at K(150) = 3069, plus the float
    allowance of 3e-13.  Two cases are exact and sum no lags: H = 1/2,
    where S_p = 2**p, and p = 1 with H < 1/2, where S_1 = 0 (the partial
    sums telescope to 2((R+1)**(2H) - R**(2H)), so a relative bound could
    never pass on them).
    """
    _check_h(hurst)
    check_int(p, "power", 1)
    radius = _DEFAULT_RADIUS if radius is None else check_int(radius, "radius", 32, _MAX_RADIUS)
    if hurst == 0.5:
        return TruncatedSeries(value=2.0**p, radius=1, tail_bound=0.0, converged=True)
    if p == 1 and hurst < 0.5:
        # sum_{|r|<=R} rho_H(r) telescopes to 2((R+1)**(2H) - R**(2H)) -> 0
        return TruncatedSeries(value=0.0, radius=1, tail_bound=0.0, converged=True)
    s = (2.0 - 2.0 * hurst) * p
    if s <= 1.0:
        raise SeriesDivergenceError(
            f"sum of rho^{p} diverges for H={hurst} (need (2-2H)p > 1, "
            f"i.e. H < 1 - 1/(2p))"
        )
    a = 2.0 * hurst
    c_p = (a * (a - 1.0)) ** p
    e1 = (a - 2.0) * (a - 3.0) / 12.0
    k_exp = 0.34 * p + 0.27 * math.comb(p, 2) + 1.0
    one_sided = _rho_powers_stable(hurst, p, radius)
    z_s, rem_s = _zeta_tail_em(s, radius)
    z_s2, rem_s2 = _zeta_tail_em(s + 2.0, radius)
    value = 2.0**p + 2.0 * one_sided + 2.0 * c_p * (z_s + p * e1 * z_s2)
    # analytic residual plus a float-noise allowance for the partial sum
    # (stable evaluation keeps per-term relative error below ~1e-14; each
    # rho_H(r), r >= 1, has the sign of 2H - 1, so |one_sided| is the sum
    # of the terms' magnitudes)
    bound = 2.0 * abs(c_p) * (
        rem_s + p * abs(e1) * rem_s2 + k_exp * _zeta_tail_upper(s + 4.0, radius)
    ) + 1e-13 * (2.0**p + 2.0 * abs(one_sided))
    return TruncatedSeries(value, radius, bound, bound <= REL_TOL * abs(value))


def sigma_clt(
    hurst: float,
    q: int,
    radius: int | None = None,
) -> TruncatedSeries:
    """CLT constant sigma_{H,q} = sqrt( S_q(H) / (2**q q!) ).

    Defined whenever S_q converges, i.e. H < 1 - 1/(2q); this includes the
    low-H regimes, where the constant still appears (e.g. at H = 1/(2q)).
    """
    _check_order(q)
    series = rho_power_sum(hurst, q, radius=radius)
    scale = 2.0**q * math.factorial(q)
    value = math.sqrt(series.value / scale)
    tail = series.tail_bound / scale / (2.0 * value)
    return TruncatedSeries(value, series.radius, tail, series.converged)


def sigma_critical_high(q: int) -> float:
    """Critical constant at H = 1 - 1/(2q), exactly as printed (no root):

    (2 log 2 / q!) (1 - 1/(2q))**q (1 - 1/q)**q
    """
    _check_order(q)
    return (
        2.0 * math.log(2.0) / math.factorial(q)
        * (1.0 - 1.0 / (2 * q)) ** q
        * (1.0 - 1.0 / q) ** q
    )


def sigma_critical_high_corrected(q: int) -> float:
    """Square-root variant: reads the printed critical expression as a
    variance, so the sigma multiplying the mixed-Gaussian limit is its root."""
    return math.sqrt(sigma_critical_high(q))


def sigma_tilde(
    hurst: float,
    q: int,
    radius: int | None = None,
) -> TruncatedSeries:
    """Power-variation constant sigma~_{H,q}.

    sigma~**2 = sum_{p>=1} c_p**2 / p! 2**-p S_p(H), with c_p the chaos
    coefficients of x**q - mu_q (``monomial_in_hermite``).  c_1 = 0 for
    even q, where the sum is valid for 0 < H < 3/4; odd q needs the chaos-1
    series, H <= 1/2 (S_1 = 0 for H < 1/2 and S_1 = 2 at H = 1/2).
    ``rho_power_sum`` raises SeriesDivergenceError outside these windows,
    at the first nonzero c_p.  The identity
    sigma~**2 = sum_p c_p**2 sigma_{H,p}**2 holds term by term against
    ``sigma_clt``.
    """
    _check_order(q)
    var = 0.0
    tail = 0.0
    max_radius = 1
    converged = True
    for p, c in enumerate(monomial_in_hermite(q)):
        if p == 0 or c == 0:
            continue
        coef = c * c // math.factorial(p) * 2.0**-p
        series = rho_power_sum(hurst, p, radius=radius)
        var += coef * series.value
        tail += coef * series.tail_bound
        max_radius = max(max_radius, series.radius)
        converged = converged and series.converged
    value = math.sqrt(var)
    return TruncatedSeries(value, max_radius, tail / (2.0 * value), converged)


def sigma_tilde_critical(q: int) -> float:
    """Critical power-variation constant at H = 3/4, exactly as printed:

    sqrt( sum_{p=2}^q 2 log 2 p! C(q,p)**2 mu_{q-p}**2
          (1 - 1/(2q))**q (1 - 1/q)**q )

    (the trailing factors carry the exponent q, not p, as printed).
    """
    _check_order(q)
    if q % 2 == 1:
        raise DomainError(f"sigma_tilde_critical addresses even q, got {q}")
    shape = (1.0 - 1.0 / (2 * q)) ** q * (1.0 - 1.0 / q) ** q
    total = 0.0
    for p in range(2, q + 1):
        mu = gaussian_moment(q - p)
        if mu == 0.0:
            continue
        total += 2.0 * math.log(2.0) * math.factorial(p) * math.comb(q, p) ** 2 * mu**2 * shape
    return math.sqrt(total)


def sigma_tilde_critical_corrected(q: int) -> float:
    """Pattern-consistent H = 3/4 variant.

    Keeps only the chaos-2 component (the single critical term; higher
    chaoses are killed by the extra 1/sqrt(n)) and reads the printed
    critical expression as a variance:

    sigma~**2 = c_2**2 * sigma_critical_high(2), with c_2 = 2 C(q,2) mu_{q-2}.
    """
    _check_order(q)
    if q % 2 == 1:
        raise DomainError(f"sigma_tilde_critical addresses even q, got {q}")
    return monomial_in_hermite(q)[2] * math.sqrt(sigma_critical_high(2))


def hermite_process_variance_const(q: int, hurst: float) -> float:
    """c_{q,H} = H**q (2H-1)**q / (q!**2 (Hq-q+1)(2Hq-2q+1)).

    Defined for 1 - 1/(2q) < H < 1, where the Hermite process of order q
    exists; Var Z_t = q! c_{q,H} t**((2H-2)q+2).  Evaluated exactly in
    integers at the double H = a/b and rounded once by the division: in
    doubles the factor 2Hq - 2q + 1 cancels within a few ulps of 1 - 1/(2q).
    """
    _check_order(q)
    if not 1.0 - 1.0 / (2 * q) < hurst < 1.0:
        raise DomainError(
            f"c_(q,H) requires 1 - 1/(2q) = {1.0 - 1.0/(2*q)} < H < 1, got {hurst}"
        )
    a, b = hurst.as_integer_ratio()
    factorial_sq = math.factorial(q) ** 2
    # factors = b^2 (Hq - q + 1)(2Hq - 2q + 1); a^q (2a - b)^q = b^(2q) H^q (2H - 1)^q
    factors = (a * q - (q - 1) * b) * (2 * a * q - (2 * q - 1) * b)
    # q!^2 has no double from q = 99 on
    if factorial_sq > sys.float_info.max or not factors > 0:
        raise DomainError(f"c_(q,H) is out of double range at H={hurst}, q={q}")
    # int / int is correctly rounded
    return a**q * (2 * a - b) ** q / (factorial_sq * b ** (2 * q - 2) * factors)
