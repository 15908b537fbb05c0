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
The design-level integral bound on the *raw* omitted mass,
|rho_H(r)| <= 2H|2H-1| (|r|-1)**(2H-2) for |r| >= 2, hence

    sum_{|r|>R} |rho|**p <= 2 (2H|2H-1|)**p (R-1)**(1-s) / (s - 1),

is exposed as ``rho_tail_mass_bound`` and used by the monotonicity test;
it certifies the partial sums but is far too weak as a stopping rule at
rel_tol = 1e-8, which is why the corrected value is the reported one.

Critical-case constants are implemented exactly as printed, with
``*_corrected`` companions (square root inserted; for the power-variation
constant, the surviving chaos-2 critical term) so experiments can
arbitrate the printed/corrected ambiguity empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, RegimeError, SeriesDivergenceError
from .fbm import rho
from .hermite import gaussian_moment

DEFAULT_REL_TOL = 1e-8
_START_RADIUS = 1 << 10
_MAX_RADIUS = 1 << 22


class RegimeCase(Enum):
    SMALL_H = "SMALL_H"
    CRITICAL_LOW = "CRITICAL_LOW"
    CLT = "CLT"
    CRITICAL_HIGH = "CRITICAL_HIGH"
    NONCENTRAL = "NONCENTRAL"


class LimitKind(Enum):
    L2_DERIVATIVE_INTEGRAL = "L2_DERIVATIVE_INTEGRAL"
    STABLE_MIXED_GAUSSIAN = "STABLE_MIXED_GAUSSIAN"
    L2_HERMITE_INTEGRAL = "L2_HERMITE_INTEGRAL"


@dataclass(frozen=True)
class ScalingRegime:
    """Convergence case of (H, q) with its renormalisation prefactor."""

    hurst: float
    order: int
    case_id: RegimeCase
    renorm_exponent: str
    limit_kind: LimitKind
    conjectural: bool = False


@dataclass(frozen=True)
class TruncatedSeries:
    """Value of a truncated series plus a certified residual bound."""

    value: float
    radius: int
    tail_bound: float
    converged: bool


def _check_order(q: int) -> None:
    if not isinstance(q, (int, np.integer)) or q < 2:
        raise DomainError(f"order q must be an integer >= 2, got {q}")


def classify_regime(hurst: float, q: int) -> ScalingRegime:
    """Assign (H, q) to the convergence case with exact boundary handling."""
    _check_order(q)
    if not 0.0 < hurst < 1.0:
        raise DomainError(f"hurst must be in (0,1), got {hurst}")
    lo = 1.0 / (2 * q)
    hi = 1.0 - 1.0 / (2 * q)
    if hurst < lo:
        return ScalingRegime(
            hurst, q, RegimeCase.SMALL_H, "2^(n(qH-1))",
            LimitKind.L2_DERIVATIVE_INTEGRAL,
        )
    if hurst == lo:
        return ScalingRegime(
            hurst, q, RegimeCase.CRITICAL_LOW, "2^(-n/2)",
            LimitKind.STABLE_MIXED_GAUSSIAN, conjectural=True,
        )
    if hurst < hi:
        return ScalingRegime(
            hurst, q, RegimeCase.CLT, "2^(-n/2)",
            LimitKind.STABLE_MIXED_GAUSSIAN,
        )
    if hurst == hi:
        return ScalingRegime(
            hurst, q, RegimeCase.CRITICAL_HIGH, "n^(-1/2) 2^(-n/2)",
            LimitKind.STABLE_MIXED_GAUSSIAN,
        )
    return ScalingRegime(
        hurst, q, RegimeCase.NONCENTRAL, "2^(n(q(1-H)-1))",
        LimitKind.L2_HERMITE_INTEGRAL,
    )


def renorm_factor(hurst: float, q: int, level: int) -> float:
    """Numeric renormalisation prefactor for the regime of (H, q)."""
    case = classify_regime(hurst, q).case_id
    if case is RegimeCase.SMALL_H:
        return 2.0 ** (level * (q * hurst - 1.0))
    if case in (RegimeCase.CRITICAL_LOW, RegimeCase.CLT):
        return 2.0 ** (-level / 2.0)
    if case is RegimeCase.CRITICAL_HIGH:
        return 2.0 ** (-level / 2.0) / math.sqrt(level)
    return 2.0 ** (level * (q * (1.0 - hurst) - 1.0))


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


def rho_tail_mass_bound(hurst: float, p: int, radius: int) -> float:
    """Certified bound on sum_{|r|>R} |rho_H(r)|**p via the integral test."""
    s = (2.0 - 2.0 * hurst) * p
    if s <= 1.0:
        raise SeriesDivergenceError(
            f"sum of |rho|^{p} diverges for H={hurst} (need (2-2H)p > 1)"
        )
    c = (2.0 * hurst * abs(2.0 * hurst - 1.0)) ** p
    return 2.0 * c * (radius - 1.0) ** (1.0 - s) / (s - 1.0)


def _rho_powers_stable(hurst: float, p: int, radius: int) -> float:
    """sum_{r=1..R} rho^p, exactly rounded.  ``fbm.rho`` evaluates the large
    lags without cancellation noise, which would otherwise swamp the
    analytic tail control when summing millions of lags."""
    return math.fsum(rho(np.arange(1, radius + 1, dtype=float), hurst) ** p)


def rho_power_sum(
    hurst: float,
    p: int,
    rel_tol: float = DEFAULT_REL_TOL,
    radius: int | None = None,
) -> TruncatedSeries:
    """sum over all integer lags of rho_H(r)**p, signed, with tail control.

    Pass `radius` to pin the truncation radius (the tail estimate is still
    applied); otherwise the radius doubles from 1024 until the certified
    residual bound drops below rel_tol * |value|; rel_tol must lie in
    (0, 1e-3].
    """
    if not 0.0 < rel_tol <= 1e-3:
        raise DomainError(f"rel_tol must be in (0, 1e-3], got {rel_tol}")
    if not 0.0 < hurst < 1.0:
        raise DomainError(f"hurst must be in (0,1), got {hurst}")
    if p < 1:
        raise DomainError(f"power must be >= 1, got {p}")
    if hurst == 0.5:
        return TruncatedSeries(value=2.0**p, radius=1, tail_bound=0.0, converged=True)
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

    fixed = radius is not None
    r_cur = max(radius, 32) if fixed else _START_RADIUS
    while True:
        one_sided = _rho_powers_stable(hurst, p, r_cur)
        partial = 2.0**p + 2.0 * one_sided
        z_s, rem_s = _zeta_tail_em(s, r_cur)
        z_s2, rem_s2 = _zeta_tail_em(s + 2.0, r_cur)
        tail = 2.0 * c_p * (z_s + p * e1 * z_s2)
        # analytic residual plus a float-noise allowance for the partial sum
        # (stable evaluation keeps per-term relative error below ~1e-14; each
        # rho_H(r), r >= 1, has the sign of 2H - 1, so |one_sided| is the sum
        # of the terms' magnitudes)
        bound = 2.0 * abs(c_p) * (
            rem_s + p * abs(e1) * rem_s2 + k_exp * _zeta_tail_upper(s + 4.0, r_cur)
        ) + 1e-13 * (2.0**p + 2.0 * abs(one_sided))
        value = partial + tail
        converged = bound <= rel_tol * abs(value)
        if converged or fixed or r_cur >= _MAX_RADIUS:
            return TruncatedSeries(value, r_cur, bound, converged)
        r_cur *= 2


def sigma_clt(
    hurst: float,
    q: int,
    rel_tol: float = DEFAULT_REL_TOL,
    radius: int | None = None,
    strict_regime: bool = False,
) -> TruncatedSeries:
    """CLT constant sigma_{H,q} = sqrt( S_q(H) / (2**q q!) ).

    Defined whenever S_q converges, i.e. H < 1 - 1/(2q); this includes the
    low-H regimes, where the constant still appears (e.g. at H = 1/(2q)).
    With strict_regime=True the strict CLT window 1/(2q) < H < 1 - 1/(2q)
    is enforced instead.
    """
    _check_order(q)
    if strict_regime and not (1.0 / (2 * q) < hurst < 1.0 - 1.0 / (2 * q)):
        raise RegimeError(
            f"H={hurst} outside the strict CLT window (1/{2*q}, 1-1/{2*q}) for q={q}"
        )
    series = rho_power_sum(hurst, q, rel_tol=rel_tol, radius=radius)
    scale = 2.0**q * math.factorial(q)
    var = series.value / scale
    if var <= 0.0:
        raise DomainError(
            f"non-positive variance {var} for H={hurst}, q={q}"
        )  # pragma: no cover - series is positive on its domain
    value = math.sqrt(var)
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
    rel_tol: float = DEFAULT_REL_TOL,
    radius: int | None = None,
) -> TruncatedSeries:
    """Power-variation constant sigma~_{H,q}.

    sigma~**2 = sum_p p! C(q,p)**2 mu_{q-p}**2 2**-p S_p(H), over the
    chaos orders p <= q of the centered monomial expansion: p >= 2 for
    even q (valid for 0 < H < 3/4), and p >= 1 for odd q (the chaos-1
    term contributes; its series requires H <= 1/2).  The identity
    sigma~**2 = sum_p (p! C(q,p) mu_{q-p})**2 sigma_{H,p}**2 holds term
    by term against ``sigma_clt``.
    """
    _check_order(q)
    if q % 2 == 0:
        if not 0.0 < hurst < 0.75:
            raise SeriesDivergenceError(
                f"sigma_tilde needs H < 3/4 for even q, got H={hurst}"
            )
        p_min = 2
    else:
        if not 0.0 < hurst <= 0.5:
            raise SeriesDivergenceError(
                f"sigma_tilde needs H <= 1/2 for odd q (chaos-1 series), got H={hurst}"
            )
        p_min = 1
    var = 0.0
    tail = 0.0
    max_radius = 1
    converged = True
    for p in range(p_min, q + 1):
        mu = gaussian_moment(q - p)
        if mu == 0.0:
            continue
        coef = math.factorial(p) * math.comb(q, p) ** 2 * mu**2 * 2.0**-p
        series = rho_power_sum(hurst, p, rel_tol=rel_tol, radius=radius)
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

    sigma~**2 = (2 C(q,2) mu_{q-2})**2 * sigma_critical_high(2).
    """
    _check_order(q)
    if q % 2 == 1:
        raise DomainError(f"sigma_tilde_critical addresses even q, got {q}")
    return 2.0 * math.comb(q, 2) * gaussian_moment(q - 2) * math.sqrt(
        sigma_critical_high(2)
    )


def hermite_process_variance_const(q: int, hurst: float) -> float:
    """c_{q,H} = H**q (2H-1)**q / (q!**2 (Hq-q+1)(2Hq-2q+1)).

    Defined for H > 1 - 1/(2q), where the Hermite process of order q
    exists; Var Z_t = q! c_{q,H} t**((2H-2)q+2).
    """
    _check_order(q)
    if not hurst > 1.0 - 1.0 / (2 * q):
        raise DomainError(
            f"c_(q,H) requires H > 1 - 1/(2q) = {1.0 - 1.0/(2*q)}, got {hurst}"
        )
    num = hurst**q * (2.0 * hurst - 1.0) ** q
    den = (
        math.factorial(q) ** 2
        * (hurst * q - q + 1.0)
        * (2.0 * hurst * q - 2.0 * q + 1.0)
    )
    return num / den
