import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmvar import constants as C
from fbmvar.errors import DomainError, RegimeError, SeriesDivergenceError
from fbmvar.hermite import gaussian_moment


def test_classifier_examples():
    assert C.classify_regime(0.1, 3).case_id is C.RegimeCase.SMALL_H
    assert C.classify_regime(0.5, 2).case_id is C.RegimeCase.CLT
    assert C.classify_regime(0.75, 2).case_id is C.RegimeCase.CRITICAL_HIGH
    assert C.classify_regime(0.9, 2).case_id is C.RegimeCase.NONCENTRAL
    low = C.classify_regime(0.25, 2)
    assert low.case_id is C.RegimeCase.CRITICAL_LOW
    assert low.conjectural


def test_classifier_boundaries_and_domain():
    for q in (2, 3, 4, 5):
        assert C.classify_regime(1.0 / (2 * q), q).case_id is C.RegimeCase.CRITICAL_LOW
        assert (
            C.classify_regime(1.0 - 1.0 / (2 * q), q).case_id
            is C.RegimeCase.CRITICAL_HIGH
        )
    with pytest.raises(DomainError):
        C.classify_regime(0.0, 2)
    with pytest.raises(DomainError):
        C.classify_regime(0.5, 1)


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
    assert C.classify_regime(hurst, q).case_id is _expected_case(hurst, q)


def test_classifier_partitions_bulk():
    from fbmvar.rng import stream

    rng = stream(1234, 0)
    hs = rng.uniform(1e-9, 1.0, 10_000)
    qs = rng.integers(2, 11, 10_000)
    for hurst, q in zip(hs, qs):
        assert C.classify_regime(float(hurst), int(q)).case_id is _expected_case(
            float(hurst), int(q)
        )


def test_renorm_factor_values():
    assert C.renorm_factor(0.1, 3, 10) == 2.0**-7
    assert C.renorm_factor(0.5, 2, 10) == 2.0**-5
    assert C.renorm_factor(0.9, 2, 10) == 2.0**-8
    assert C.renorm_factor(0.75, 2, 16) == 2.0**-8 / 4.0


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
    with pytest.raises(RegimeError):
        C.sigma_clt(0.2, 2, strict_regime=True)
    # but the constant exists below the CLT window (used at H = 1/(2q))
    assert C.sigma_clt(0.2, 2).value > 0
    with pytest.raises(DomainError):
        C.sigma_clt(0.6, 2, rel_tol=0.5)


@pytest.mark.parametrize("rel_tol", [-1.0, 0.0, 0.5])
def test_rel_tol_checked_on_every_series_entry_point(rel_tol):
    # checked before any lag is summed, also at the H = 1/2 shortcut
    for call in (
        lambda: C.rho_power_sum(0.6, 2, rel_tol=rel_tol),
        lambda: C.rho_power_sum(0.5, 2, rel_tol=rel_tol),
        lambda: C.sigma_tilde(0.6, 2, rel_tol=rel_tol),
        lambda: C.sigma_clt(0.6, 2, rel_tol=rel_tol),
    ):
        with pytest.raises(DomainError, match="rel_tol must be in"):
            call()


def test_rho_power_sum_monotonicity_invariant():
    # value at radius 10 R differs from value at R by less than the
    # tail bound reported at R
    for hurst, p in ((0.6, 2), (0.7, 3), (0.3, 2), (0.35, 3)):
        at_r = C.rho_power_sum(hurst, p, radius=2_000)
        at_10r = C.rho_power_sum(hurst, p, radius=20_000)
        assert abs(at_10r.value - at_r.value) < max(at_r.tail_bound, 1e-15)


def test_rho_power_sum_converged_contract():
    series = C.rho_power_sum(0.6, 2, rel_tol=1e-8)
    assert series.converged
    assert series.tail_bound <= 1e-8 * abs(series.value)
    assert C.rho_power_sum(0.5, 5).value == 2.0**5


def test_raw_tail_mass_bound():
    import numpy as np

    from fbmvar.fbm import rho

    for hurst, p in ((0.6, 2), (0.3, 2)):
        lags = np.arange(1001, 2_000_000)
        actual = 2.0 * float(np.sum(np.abs(rho(lags, hurst)) ** p))
        assert actual < C.rho_tail_mass_bound(hurst, p, 1000)


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


def test_sigma_tilde_equals_twice_sigma_for_q2():
    assert C.sigma_tilde(0.6, 2).value == pytest.approx(
        2 * C.sigma_clt(0.6, 2).value, rel=1e-12
    )


def test_sigma_tilde_domain():
    with pytest.raises(SeriesDivergenceError):
        C.sigma_tilde(0.75, 2)
    with pytest.raises(SeriesDivergenceError):
        C.sigma_tilde(0.6, 3)  # odd q needs H <= 1/2
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
    # corrected variant keeps only the critical chaos-2 term
    assert C.sigma_tilde_critical_corrected(2) == pytest.approx(
        C.sigma_tilde_critical(2), rel=1e-12
    )
    assert C.sigma_tilde_critical_corrected(4) == pytest.approx(
        2 * math.comb(4, 2) * 1.0 * math.sqrt(C.sigma_critical_high(2)), rel=1e-12
    )


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
