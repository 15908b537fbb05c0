import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmvar import constants as C
from fbmvar import experiments as E
from fbmvar import variations as V
from fbmvar.errors import DomainError, SeriesDivergenceError
from fbmvar.hermite import gaussian_moment, monomial_in_hermite
from fbmvar.weights import parse_weight
from oracles import rho_tail_mass_bound


def test_classifier_examples():
    assert C.classify_regime(0.1, 3) is C.RegimeCase.SMALL_H
    assert C.classify_regime(0.5, 2) is C.RegimeCase.CLT
    assert C.classify_regime(0.75, 2) is C.RegimeCase.CRITICAL_HIGH
    assert C.classify_regime(0.9, 2) is C.RegimeCase.NONCENTRAL
    assert C.classify_regime(0.25, 2) is C.RegimeCase.CRITICAL_LOW
    # each case reads its prefactor's text from the one table of cases
    assert [case.renorm_exponent for case in C.RegimeCase] == [
        "2^(n(qH-1))", "2^(-n/2)", "2^(-n/2)", "n^(-1/2) 2^(-n/2)", "2^(n(q(1-H)-1))",
    ]


def test_classifier_boundaries_and_domain():
    for q in (2, 3, 4, 5):
        assert C.classify_regime(1.0 / (2 * q), q) is C.RegimeCase.CRITICAL_LOW
        assert C.classify_regime(1.0 - 1.0 / (2 * q), q) is C.RegimeCase.CRITICAL_HIGH
    with pytest.raises(DomainError):
        C.classify_regime(0.0, 2)
    with pytest.raises(DomainError):
        C.classify_regime(0.5, 1)


def test_require_regime_names_the_window():
    C.require_regime(0.6, 2, C.RegimeCase.CLT, "clt")
    with pytest.raises(
        DomainError,
        match=r"^clt needs 1/\(2q\) = 0\.25 < H < 1 - 1/\(2q\) = 0\.75, got H=0\.75, q=2$",
    ):
        C.require_regime(0.75, 2, C.RegimeCase.CLT, "clt")


def _expected_case(hurst, q):
    lo, hi = 1.0 / (2 * q), 1.0 - 1.0 / (2 * q)
    if hurst < lo:
        return C.RegimeCase.SMALL_H
    if hurst == lo:
        return C.RegimeCase.CRITICAL_LOW
    if hurst < hi:
        return C.RegimeCase.CLT
    if hurst == hi:
        return C.RegimeCase.CRITICAL_HIGH
    return C.RegimeCase.NONCENTRAL


@settings(max_examples=300, deadline=None)
@given(
    hurst=st.floats(min_value=1e-6, max_value=1.0 - 1e-6, exclude_max=True),
    q=st.integers(min_value=2, max_value=10),
)
def test_classifier_partitions(hurst, q):
    # exactly one case fires for every (H, q)
    assert C.classify_regime(hurst, q) is _expected_case(hurst, q)


def test_classifier_partitions_bulk():
    from fbmvar.rng import stream

    rng = stream(1234, 0)
    hs = rng.uniform(1e-9, 1.0, 10_000)
    qs = rng.integers(2, 11, 10_000)
    for hurst, q in zip(hs, qs):
        assert C.classify_regime(float(hurst), int(q)) is _expected_case(
            float(hurst), int(q)
        )


def test_renorm_factor_values():
    assert C.renorm_factor(0.1, 3, 10) == 2.0**-7
    assert C.renorm_factor(0.5, 2, 10) == 2.0**-5
    assert C.renorm_factor(0.9, 2, 10) == 2.0**-8
    assert C.renorm_factor(0.75, 2, 16) == 2.0**-8 / 4.0
    assert C.renorm_factor(0.25, 2, 10) == 2.0**-5  # H = 1/(2q)
    for level in (-3, 2.5):  # returned 2^(3/2) and 2^(-5/4)
        with pytest.raises(DomainError,
                           match=rf"^level must be an integer in \[1, 24\], got {level}$"):
            C.renorm_factor(0.6, 2, level)


def test_sigma_clt_analytic_collapse():
    # only r = 0 contributes at H = 1/2: sigma^2 = 1/q!
    assert C.sigma_clt(0.5, 3).value == pytest.approx(math.sqrt(1 / 6), abs=1e-15)
    assert C.sigma_clt(0.5, 2).value == pytest.approx(math.sqrt(0.5), abs=1e-15)
    for q in (2, 3, 4):
        assert C.sigma_clt(0.5, q).value ** 2 == pytest.approx(
            1.0 / math.factorial(q), abs=1e-12
        )


def test_sigma_clt_two_radius_consistency():
    for hurst, q in ((0.6, 2), (0.65, 3)):
        small = C.sigma_clt(hurst, q, radius=1_000).value
        large = C.sigma_clt(hurst, q, radius=100_000).value
        assert abs(small - large) / large < 1e-6


def test_sigma_clt_domain():
    with pytest.raises(SeriesDivergenceError):
        C.sigma_clt(0.8, 2)  # H >= 1 - 1/(2q): series diverges
    # but the constant exists below the CLT window (used at H = 1/(2q))
    assert C.sigma_clt(0.2, 2).value > 0
    # a pinned radius: 10 became 32, 100.5 ran as 100.5 and 2**30 would
    # allocate an 8 GiB lag array
    for radius in (10, 100.5, 2**30):
        for series in (C.rho_power_sum, C.sigma_clt, C.sigma_tilde):
            with pytest.raises(
                DomainError, match=rf"^radius must be an integer in \[32, 4194304\], got {radius}$"
            ):
                series(0.6, 2, radius=radius)
    with pytest.raises(DomainError, match=r"^power must be an integer >= 1, got 2.5$"):
        C.rho_power_sum(0.6, 2.5, radius=64)


def test_large_order_raises_domain_error():
    # the last orders with finite constants, then the first without
    assert C.sigma_clt(0.3, 150, radius=64).value > 0
    assert C.hermite_process_variance_const(98, 0.999) > 0
    for call in (
        lambda: C.sigma_clt(0.3, 151, radius=64),  # 2^q q! is inf: var was 0.0
        lambda: C.sigma_clt(0.3, 171, radius=64),  # q! has no double at all
        lambda: C.sigma_tilde(0.3, 151, radius=64),  # returned inf
        lambda: C.sigma_critical_high(171),
        lambda: C.sigma_tilde_critical(172),
    ):
        with pytest.raises(DomainError, match="overflow"):
            call()
    with pytest.raises(DomainError, match="out of double range"):
        C.hermite_process_variance_const(99, 0.999)


def test_rho_power_sum_monotonicity_invariant():
    # value at radius 10 R differs from value at R by less than the
    # tail bound reported at R
    for hurst, p in ((0.6, 2), (0.7, 3), (0.3, 2), (0.35, 3)):
        at_r = C.rho_power_sum(hurst, p, radius=2_000)
        at_10r = C.rho_power_sum(hurst, p, radius=20_000)
        assert abs(at_10r.value - at_r.value) < max(at_r.tail_bound, 1e-15)


def test_rho_power_sum_converged_contract():
    series = C.rho_power_sum(0.6, 2)
    assert series.converged
    assert series.tail_bound <= 1e-8 * abs(series.value)
    assert C.rho_power_sum(0.5, 5).value == 2.0**5


def _check_one_pass(series, exact):
    # exact cases sum no lags; every other series stops at radius 1024
    assert series.radius == (1 if exact else 1024)
    assert series.converged
    assert series.tail_bound <= 1e-8 * abs(series.value)


def test_radius_1024_meets_the_tolerance_up_to_order_150():
    # every series converges in one pass, also 1e-2 .. 1e-12 below the edge
    # H = 1 - 1/(2p), where s = (2 - 2H) p falls to 1 (the worst bound,
    # 1.55e-11 |value|, is at p = 150, H ~ 0.99657)
    for p in range(1, 151):
        edge = 1.0 - 1.0 / (2 * p)
        inside = [h for h in [*np.linspace(0.01, 0.99, 50).tolist(), 0.5] if h < edge]
        for hurst in inside + [edge - 10.0**-k for k in range(2, 13)]:
            exact = hurst == 0.5 or (p == 1 and hurst < 0.5)
            _check_one_pass(C.rho_power_sum(hurst, p), exact)
    for q in range(2, 151):
        for hurst in (0.1, 0.3, 0.5, 0.7, 1.0 - 1.0 / (2 * q) - 1e-12):
            _check_one_pass(C.sigma_clt(hurst, q), hurst == 0.5)
        # sigma~ needs H < 3/4 for even q, H <= 1/2 for odd q
        for hurst in (0.4, 0.5, 0.74) if q % 2 == 0 else (0.4, 0.5):
            _check_one_pass(C.sigma_tilde(hurst, q), hurst == 0.5)


@pytest.mark.parametrize("hurst", [0.1, 0.3, 0.45])
def test_chaos1_series_is_exactly_zero_below_half(hurst):
    series = C.rho_power_sum(hurst, 1)
    assert series.value == 0.0
    assert series.converged
    assert series.tail_bound == 0.0


@pytest.mark.parametrize("hurst", [0.1, 0.3, 0.45])
def test_chaos1_partial_sums_telescope(hurst):
    # sum_{|r|<=R} rho_H(r) = 2((R+1)^2H - R^2H), which tends to 0 for H < 1/2
    import numpy as np

    from fbmvar.fbm import rho

    radius = 4096
    partial = math.fsum(rho(np.arange(-radius, radius + 1), hurst))
    telescoped = 2.0 * ((radius + 1) ** (2 * hurst) - radius ** (2 * hurst))
    assert abs(partial - telescoped) <= 1e-12


def test_chaos1_series_domain_unchanged():
    assert C.rho_power_sum(0.5, 1).value == 2.0
    with pytest.raises(SeriesDivergenceError):
        C.rho_power_sum(0.6, 1)


def test_raw_tail_mass_bound():
    import numpy as np

    from fbmvar.fbm import rho

    for hurst, p in ((0.6, 2), (0.3, 2)):
        lags = np.arange(1001, 2_000_000)
        actual = 2.0 * float(np.sum(np.abs(rho(lags, hurst)) ** p))
        assert actual < rho_tail_mass_bound(hurst, p, 1000)
    # (2 - 2H) p = 0.2 <= 1: the tail is infinite
    with pytest.raises(SeriesDivergenceError):
        rho_tail_mass_bound(0.9, 1, 100)


def test_sigma_critical_high_printed():
    assert C.sigma_critical_high(2) == pytest.approx(
        2 * math.log(2) / 2 * (3 / 4) ** 2 * (1 / 2) ** 2, rel=1e-15
    )
    assert C.sigma_critical_high(3) == pytest.approx(
        2 * math.log(2) / 6 * (5 / 6) ** 3 * (2 / 3) ** 3, rel=1e-15
    )
    assert C.sigma_critical_high_corrected(2) == pytest.approx(
        math.sqrt(C.sigma_critical_high(2)), rel=1e-15
    )


def test_sigma_tilde_h_half_collapse():
    # sigma~^2 at H = 1/2 equals mu_2q - mu_q^2 (classical variance)
    for q in (2, 3, 4, 6):
        target = gaussian_moment(2 * q) - gaussian_moment(q) ** 2
        assert C.sigma_tilde(0.5, q).value ** 2 == pytest.approx(target, rel=1e-12)
    assert C.sigma_tilde(0.5, 2).value == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert C.sigma_tilde(0.5, 4).value == pytest.approx(math.sqrt(96.0), rel=1e-15)


def test_sigma_tilde_cross_check_identity():
    # sigma~^2 = sum_p (p! C(q,p) mu_{q-p})^2 sigma_p^2, both sides at the
    # same truncation radius; for p = 1 the factor is S_1 / 2 directly
    for hurst, q in ((0.6, 2), (0.35, 4), (0.55, 6), (0.45, 3), (0.25, 4)):
        p_min = 1 if q % 2 else 2
        total = 0.0
        for p in range(p_min, q + 1):
            mu = gaussian_moment(q - p)
            if mu == 0.0:
                continue
            coef = (math.factorial(p) * math.comb(q, p) * mu) ** 2
            if p >= 2:
                total += coef * C.sigma_clt(hurst, p, radius=4096).value ** 2
            else:
                total += coef * C.rho_power_sum(hurst, 1, radius=4096).value / 2.0
        assert C.sigma_tilde(hurst, q, radius=4096).value ** 2 == pytest.approx(
            total, rel=1e-10
        )


def test_sigma_tilde_odd_q_converges():
    # the chaos-1 series is exact, so the odd-q constant stops at the
    # radius of its higher chaoses
    series = C.sigma_tilde(0.3, 3)
    assert series.converged
    assert series.radius == 1024
    assert abs(series.value - 2.414097078431407) <= 1e-12


def test_sigma_tilde_equals_twice_sigma_for_q2():
    assert C.sigma_tilde(0.6, 2).value == pytest.approx(
        2 * C.sigma_clt(0.6, 2).value, rel=1e-12
    )


def test_sigma_tilde_domain():
    # even q needs H < 3/4, odd q H <= 1/2: the first nonzero chaos series
    for hurst, q in ((0.75, 2), (0.9, 4), (0.6, 3), (0.51, 5)):
        with pytest.raises(SeriesDivergenceError):
            C.sigma_tilde(hurst, q)
    assert C.sigma_tilde(0.25, 4).value > 0  # needed at H = 1/4 (item 3)
    assert C.sigma_tilde(0.45, 3).value > 0


def test_sigma_tilde_critical_printed():
    q = 2
    inner = 2 * math.log(2) * 2 * 1 * (3 / 4) ** 2 * (1 / 2) ** 2
    assert C.sigma_tilde_critical(2) == pytest.approx(math.sqrt(inner), rel=1e-15)
    inner4 = sum(
        2 * math.log(2) * math.factorial(p) * math.comb(4, p) ** 2
        * gaussian_moment(4 - p) ** 2 * (7 / 8) ** 4 * (3 / 4) ** 4
        for p in (2, 3, 4)
    )
    assert C.sigma_tilde_critical(4) == pytest.approx(math.sqrt(inner4), rel=1e-15)
    with pytest.raises(DomainError):
        C.sigma_tilde_critical(3)
    with pytest.raises(DomainError):
        C.sigma_tilde_critical_corrected(3)
    # corrected variant keeps only the critical chaos-2 term
    assert C.sigma_tilde_critical_corrected(2) == pytest.approx(
        C.sigma_tilde_critical(2), rel=1e-12
    )
    assert C.sigma_tilde_critical_corrected(4) == pytest.approx(
        2 * math.comb(4, 2) * 1.0 * math.sqrt(C.sigma_critical_high(2)), rel=1e-12
    )


@pytest.mark.parametrize("q", range(2, 13))
def test_hermite_process_variance_const_exact_above_the_boundary(q):
    # at the first doubles above 1 - 1/(2q), 2Hq - 2q + 1 evaluated in
    # doubles cancels to a few ulps (or 0); c_qH is exact in the rationals
    # at the double H, rounded once
    hurst = 1.0 - 1.0 / (2 * q)
    for _ in range(3):
        hurst = math.nextafter(hurst, 1.0)
        h = Fraction(hurst)
        exact = (h * (2 * h - 1)) ** q / (
            math.factorial(q) ** 2 * (1 - q * (1 - h)) * (1 - 2 * q * (1 - h))
        )
        assert C.hermite_process_variance_const(q, hurst) == float(exact)


def test_hermite_process_variance_const():
    assert C.hermite_process_variance_const(2, 0.9) == pytest.approx(0.27, rel=1e-12)
    # independent re-derivation, factor by factor
    q, hurst = 3, 0.95
    expected = (
        hurst**3
        * (2 * hurst - 1) ** 3
        / (36.0 * (3 * hurst - 2) * (6 * hurst - 5))
    )
    assert C.hermite_process_variance_const(q, hurst) == pytest.approx(
        expected, rel=1e-12
    )
    with pytest.raises(DomainError):
        C.hermite_process_variance_const(2, 0.75)
    with pytest.raises(DomainError):
        C.hermite_process_variance_const(2, 0.6)
    for hurst in (1.0, 1.5, math.inf, math.nan):  # no Hermite process at H >= 1
        with pytest.raises(DomainError, match="< H < 1"):
            C.hermite_process_variance_const(2, hurst)


# Reference formulas for the consumers of the chaos coefficients of x^q:
# each writes c_p = p! C(q,p) mu_{q-p} out term by term, as a transcription
# of the paper would; the library takes c_p from monomial_in_hermite and
# must give the same bits.


def _sigma_tilde_reference(hurst, q):
    p_min = 2 if q % 2 == 0 else 1
    var = tail = 0.0
    max_radius, converged = 1, True
    for p in range(p_min, q + 1):
        mu = gaussian_moment(q - p)
        if mu == 0.0:
            continue
        coef = math.factorial(p) * math.comb(q, p) ** 2 * mu**2 * 2.0**-p
        series = C.rho_power_sum(hurst, p)
        var += coef * series.value
        tail += coef * series.tail_bound
        max_radius = max(max_radius, series.radius)
        converged = converged and series.converged
    value = math.sqrt(var)
    return C.TruncatedSeries(value, max_radius, tail / (2.0 * value), converged)


def _centered_power_second_moment_reference(hurst, q, level):
    total = 0.0
    for p in range(1, q + 1):
        mu = gaussian_moment(q - p)
        if mu == 0.0:
            continue
        coef = (math.factorial(p) * math.comb(q, p) * mu) ** 2 / math.factorial(p)
        total += coef * V._corr_power_sum(hurst, level, p)
    return total


@pytest.mark.parametrize("q", range(2, 13))
def test_sigma_tilde_matches_reference_bits(q):
    for hurst in (0.2, 0.4, 0.5) + ((0.6,) if q % 2 == 0 else ()):
        assert C.sigma_tilde(hurst, q) == _sigma_tilde_reference(hurst, q)
    for level in (4, 8):
        for hurst in (0.3, 0.75):
            assert V.centered_power_second_moment(
                hurst, q, level
            ) == _centered_power_second_moment_reference(hurst, q, level)


def test_coefficient_constants_match_reference_bits():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(64)
    paths = E._LevelPaths(parse_weight("cos:1.0"), rng.standard_normal((3, 16)), {}, 1)
    for q in range(2, 35):
        c = monomial_in_hermite(q)
        mu1, mu2 = gaussian_moment(q - 1), gaussian_moment(q - 2)
        # corollary item 1's limit, the even-q drift and item 6's constant
        assert (c[1] * x).tobytes() == (q * mu1 * x).tobytes()
        assert E._drift(paths, q, power=True).tobytes() == (
            0.25 * math.comb(q, 2) * mu2 * V.riemann_sum_rows(paths(2)[:, :-1])
        ).tobytes()
        assert (c[2] * x).tobytes() == (2.0 * mu2 * math.comb(q, 2) * x).tobytes()
        if q % 2 == 0:
            assert C.sigma_tilde_critical_corrected(q) == 2.0 * math.comb(
                q, 2
            ) * mu2 * math.sqrt(C.sigma_critical_high(2))
