import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmvar import fbm, variations as V
from fbmvar.constants import RegimeCase, classify_regime
from fbmvar.errors import DomainError, GridAlignmentError
from fbmvar.hermite import monomial_in_hermite
from fbmvar.weights import (
    ONE,
    Cosine,
    Exponential,
    Polynomial,
    Sine,
    ZERO,
    parse_weight,
)
import oracles
from oracles import beta_sums, diagnostic_sums, fbm_covariance

def synthetic_path():
    return fbm.FbmPath(
        hurst=0.5, level=2, values=np.array([0.0, 0.5, 1.0, 0.5, 0.0]), seed=0
    )


class TestWeights:
    def test_parse(self):
        for spec in ("one", "poly:1", "poly:1.0,0,-0", "cos:0", "exp:-0.0"):
            assert parse_weight(spec) is ONE  # every f = 1
        for spec in ("poly:0", "poly:0,0,0", "poly:-0.0,0", "sin:0", "sin:-0.0"):
            assert parse_weight(spec) == ZERO  # every f = 0
        assert parse_weight("poly:0,1").coefficients == (0.0, 1.0)
        assert parse_weight("cos:2.5").frequency == 2.5
        assert parse_weight("sin:1").frequency == 1.0
        assert parse_weight("exp:0.5").rate == 0.5
        with pytest.raises(DomainError):
            parse_weight("tan:1")
        with pytest.raises(DomainError):
            parse_weight("cos:abc")

    def test_exp_rate_cap(self):
        with pytest.raises(DomainError):
            Exponential(1.5)

    @pytest.mark.parametrize(
        "spec", ["poly:nan", "poly:0,inf", "cos:inf", "cos:1e400", "sin:-inf", "exp:nan"]
    )
    def test_parse_rejects_non_finite_parameters(self, spec):
        with pytest.raises(DomainError, match="not finite"):
            parse_weight(spec)

    @settings(max_examples=300, deadline=None)
    @given(
        spec=st.one_of(
            st.text(max_size=20),
            st.tuples(
                st.sampled_from(["poly", "cos", "sin", "exp", "one", "tan"]),
                st.one_of(
                    st.text(max_size=12),
                    st.lists(
                        st.sampled_from(["nan", "inf", "-inf", "1e400"])
                        | st.floats().map(repr),
                        min_size=1,
                        max_size=4,
                    ).map(",".join),
                ),
            ).map(":".join),
        )
    )
    def test_parse_gives_finite_weight_or_domain_error(self, spec):
        try:
            f = parse_weight(spec)
        except DomainError:
            return
        assert np.isfinite(f(0.0))

    def test_derivative_closed_forms(self):
        x = np.linspace(-2, 2, 9)
        assert np.allclose(Cosine(2.0).derivative(1, x), -2 * np.sin(2 * x))
        assert np.allclose(Cosine(2.0).derivative(2, x), -4 * np.cos(2 * x))
        assert np.allclose(Sine(1.0).derivative(3, x), -np.cos(x))
        assert np.allclose(Exponential(0.5).derivative(4, x), 0.5**4 * np.exp(0.5 * x))
        poly = Polynomial((1.0, 0.0, 3.0))  # 1 + 3x^2
        assert np.allclose(poly.derivative(1, x), 6 * x)
        assert np.allclose(poly.derivative(2, x), 6.0)
        assert np.allclose(poly.derivative(3, x), 0.0)

    def test_weight_values_match_the_general_derivative_bit_for_bit(self):
        # f itself skips the phase and the factor a**0 of the derivative formula
        x = np.concatenate(([0.0, -0.0, 1e-300, -1e-300], np.linspace(-3, 3, 101)))
        for a in (1.0, -0.7, 2.0, 0.0):
            cos = a**0 * np.cos(a * x + 0 * math.pi / 2)
            assert Cosine(a).derivative(0, x).tobytes() == cos.tobytes()
            assert Exponential(a / 2).derivative(0, x).tobytes() == (
                (a / 2) ** 0 * np.exp(a / 2 * x)).tobytes()

    def test_antiderivatives_vanish_at_zero(self):
        for w in (ONE, Polynomial((2.0, 1.0)), Cosine(1.3), Sine(0.7), Exponential(1.0)):
            assert w.antiderivative(np.zeros(1))[0] == pytest.approx(0.0, abs=1e-15)

    def test_zero_frequency_antiderivatives(self):
        # cos:0 and exp:0 are f = 1, whose antiderivative is x; sin:0 is f = 0
        x = np.array([-1.5, -0.0, 0.0, 0.3, 2.0])
        for spec, expected in (("cos:0", x), ("sin:0", np.zeros_like(x)), ("exp:0", x)):
            assert np.array_equal(parse_weight(spec).antiderivative(x), expected), spec
        # those specs parse to ONE and ZERO, so the classes' own a = 0
        # branches are pinned apart, bit for bit: x keeps -0.0, and 0 is +0.0
        for w, expected in ((Cosine(0.0), x), (Sine(0.0), np.zeros_like(x)),
                            (Exponential(0.0), x)):
            assert w.antiderivative(x).tobytes() == expected.tobytes(), w

    def test_antiderivative_matches_quadrature(self):
        xs = np.linspace(0.1, 2.0, 5)
        grid = np.linspace(0, 1, 20_001)
        for w in (Polynomial((2.0, 1.0, -0.5)), Cosine(1.3), Sine(0.7), Exponential(0.9)):
            for x in xs:
                val = np.trapezoid(w(grid * x) * x, grid)
                assert w.antiderivative(np.array([x]))[0] == pytest.approx(
                    float(val), rel=1e-6, abs=1e-8
                )


class TestHermiteVariation:
    def test_telescoping_q1(self):
        path = fbm.sample_fbm_circulant(0.7, 8, seed=11)
        got = V.weighted_hermite_variation(path, ONE, 1)
        assert got == pytest.approx(2.0 ** (8 * 0.7) * path.values[-1], rel=1e-12)

    def test_synthetic_hand_enumeration(self):
        # increments scaled by 2^{nH} = 2 are (1, 1, -1, -1); H_2(+-1) = 0
        path = synthetic_path()
        assert V.weighted_hermite_variation(path, ONE, 2) == 0.0
        assert V.weighted_hermite_variation(path, parse_weight("poly:0,0,1"), 2) == 0.0
        # power variation of order 3: 1 + 1 - 1 - 1 = 0
        assert V.weighted_power_variation(path, ONE, 3) == 0.0

    def test_only_one_weights_nothing(self):
        # ONE is the one weight the row functions skip: f = 0 and every other
        # constant c weight each term, so V(0) = 0 and V(c) = c V(1)
        path = fbm.sample_fbm_circulant(0.6, 8, seed=2)
        assert V.left_weights(ONE, path.values) is None
        assert V.weighted_hermite_variation(path, ZERO, 2) == 0.0
        assert V.weighted_power_variation(path, ZERO, 3) == 0.0
        assert V.weighted_hermite_variation(path, ONE, 2) != 0.0
        for c in (2.0, 0.5):
            for variation in (V.weighted_hermite_variation, V.weighted_power_variation):
                assert variation(path, Polynomial((c,)), 2) == pytest.approx(
                    c * variation(path, ONE, 2), rel=1e-13)

    def test_power_variation_nonnegative(self):
        path = fbm.sample_fbm_circulant(0.4, 7, seed=5)
        assert V.weighted_power_variation(path, ONE, 2) >= 0.0

    def test_power_hermite_identity(self):
        # centered power variation = sum_p c_p V^(p), c_p from the monomial table
        path = fbm.sample_fbm_circulant(0.45, 9, seed=7)
        for q, weight in ((4, Cosine(1.0)), (3, Sine(1.0)), (5, ONE), (2, Cosine(2.0))):
            pv = V.weighted_power_variation(path, weight, q, centered=True)
            combo = math.fsum(
                c * V.weighted_hermite_variation(path, weight, p)
                for p, c in enumerate(monomial_in_hermite(q))
                if p >= 1 and c != 0
            )
            assert combo == pytest.approx(pv, rel=1e-10, abs=1e-9)

    def test_batch_rows_match_single(self):
        path = fbm.sample_fbm_circulant(0.6, 8, seed=19)
        vals = path.values[None, :]
        rows = V.hermite_variation_rows(vals, 0.6, 8, Cosine(1.0)(vals), 3)
        single = V.weighted_hermite_variation(path, Cosine(1.0), 3)
        assert rows[0] == pytest.approx(single, rel=1e-12)

    def test_rows_take_the_weight_at_every_path_point(self):
        vals = fbm.sample_fbm_circulant(0.6, 6, seed=19).values[None, :]
        f = Cosine(1.0)
        given = V.hermite_variation_rows(vals, 0.6, 6, f(vals), 3)
        assert given.tobytes() == V.hermite_variation_rows(vals, 0.6, 6, f, 3).tobytes()
        for short in (f(vals[:, :-1]), f(vals[0])):
            with pytest.raises(GridAlignmentError):
                V.hermite_variation_rows(vals, 0.6, 6, short, 3)
        # the increment rows take f at each left endpoint, not at every point
        inc = np.diff(vals, axis=1)
        for wrong in (f(vals), f(vals[0, :-1])):
            with pytest.raises(GridAlignmentError):
                V.weighted_rows(V.scaled_hermite(inc, 0.6, 6, 3), wrong)
            with pytest.raises(GridAlignmentError):
                V.power_variation_rows(inc, 0.6, 6, wrong, 3)


class TestRenormalize:
    def test_prefactors(self):
        assert V.renormalize(1.0, 0.1, 3, 10) == 2.0**-7
        assert V.renormalize(1.0, 0.5, 2, 10) == 2.0**-5
        assert V.renormalize(1.0, 0.9, 2, 10) == 2.0**-8
        assert classify_regime(0.75, 2) is RegimeCase.CRITICAL_HIGH
        assert V.renormalize(3.0, 0.75, 2, 16) == pytest.approx(3.0 * 2.0**-8 / 4.0)


class TestSecondMoments:
    def test_brownian_odd_power_collapse(self):
        # H = 1/2, odd q: centered power variation has variance mu_2q per
        # increment, i.e. the classical unweighted result
        from fbmvar.hermite import gaussian_moment

        for q, n in ((3, 6), (5, 8)):
            got = V.centered_power_second_moment(0.5, q, n) / 2**n
            assert got == pytest.approx(gaussian_moment(2 * q), rel=1e-12)

    def test_unweighted_second_moment_vs_monte_carlo(self):
        hurst, q, n, reps = 0.3, 2, 7, 10_000
        inc = fbm.sample_increments_circulant(hurst, n, 3, 0, reps)
        vals = np.zeros((reps, 2**n + 1))
        np.cumsum(inc, axis=1, out=vals[:, 1:])
        v = V.hermite_variation_rows(vals, hurst, n, ONE(vals), q)
        exact = V.unweighted_second_moment(hurst, q, n)
        se = np.std(v**2) / math.sqrt(reps)
        assert abs(np.mean(v**2) - exact) < 3 * se

    def test_centered_power_second_moment_vs_monte_carlo(self):
        hurst, q, n, reps = 0.6, 4, 7, 6000
        inc = fbm.sample_increments_circulant(hurst, n, 4, 0, reps)
        s = V.power_variation_rows(inc, hurst, n, None, q)
        exact = V.centered_power_second_moment(hurst, q, n)
        se = np.std(s**2) / math.sqrt(reps)
        assert abs(np.mean(s**2) - exact) < 3 * se


class TestDiagnostics:
    def test_beta_brownian_case(self):
        d = diagnostic_sums(0.5, 6, 2)
        # off-diagonal terms vanish: beta_1 = sum_k Var(dB) = 1
        assert d.beta[1] == pytest.approx(1.0, rel=1e-12)
        assert d.beta[2] == pytest.approx(2.0**-6, rel=1e-12)

    def test_alpha_gamma_brute_force(self):
        hurst, n = 0.3, 4
        grid = 2**n
        alpha, gamma = 0.0, 0.0
        for k in range(1, grid + 1):
            for el in range(1, grid + 1):
                s = (k - 1) / grid
                ip = fbm_covariance(s, el / grid, hurst) - fbm_covariance(
                    s, (el - 1) / grid, hurst
                )
                alpha = max(alpha, abs(ip))
                gamma += abs(ip)
        d = diagnostic_sums(hurst, n, 2)
        assert d.alpha == pytest.approx(alpha, rel=1e-10)
        assert d.gamma == pytest.approx(gamma, rel=1e-10)

    @pytest.mark.parametrize("hurst", [0.4999999, 0.5000001, 0.999, 0.9999999])
    def test_alpha_gamma_against_40_digit_grid(self, hurst):
        # the full grid of inner products in 40-digit decimal, where the
        # closed forms meet the cancellations of H near 1/2 and near 1
        n = 5
        grid = 2**n
        with localcontext() as ctx:
            ctx.prec = 40
            a = Decimal(2.0 * hurst)
            pows = [Decimal(j) ** a for j in range(grid + 1)]
            cells = [
                abs(pows[el] - pows[el - 1] - pows[abs(el - u)] + pows[abs(el - u - 1)])
                for u in range(grid)
                for el in range(1, grid + 1)
            ]
            scale = Decimal(2) ** (-a * n - 1)
            alpha, gamma = float(scale * max(cells)), float(scale * sum(cells))
        d = diagnostic_sums(hurst, n, 2)
        assert d.alpha == pytest.approx(alpha, rel=1e-13)
        assert d.gamma == pytest.approx(gamma, rel=1e-13)

    def test_beta_scaling_subcritical(self):
        # beta_{2,n+1} / beta_{2,n} -> 2^(1-4H) for H = 0.3
        hurst = 0.3
        ratios = []
        prev = None
        for n in range(8, 13):
            b = diagnostic_sums(hurst, n, 2).beta[2]
            if prev is not None:
                ratios.append(b / prev)
            prev = b
        assert abs(ratios[-1] - 2.0 ** (1 - 4 * hurst)) < 0.05

    def test_beta_scaling_critical(self):
        # at H = 3/4: beta_{2,n} / (n 2^(-2n)) approaches a constant
        hurst = 0.75
        vals = [
            diagnostic_sums(hurst, n, 2).beta[2] / (n * 2.0 ** (-2 * n))
            for n in (10, 12, 14)
        ]
        assert abs(vals[-1] / vals[-2] - 1.0) < 0.10

    @pytest.mark.parametrize("hurst", [0.3, 0.5, 0.9])
    def test_chunks_of_lags_match_one_pass(self, hurst, monkeypatch):
        # n = 16 runs in four chunks of 2^14 lags; with one chunk of 2^16 it
        # is the single pass over all lags: alpha (a max) and beta are
        # exact, and gamma differs only in the order of its two sums
        chunked = diagnostic_sums(hurst, 16, 2)
        monkeypatch.setattr(oracles, "_DIAGNOSTIC_CHUNK", 1 << 16)
        whole = diagnostic_sums(hurst, 16, 2)
        assert (chunked.alpha, chunked.beta) == (whole.alpha, whole.beta)
        assert chunked.gamma == pytest.approx(whole.gamma, rel=1e-14)

    def test_memory_stays_within_that_of_beta_sums(self):
        # at n = 20 the lag chunks add nothing to the peak of beta_sums,
        # which holds three arrays of 2^20 doubles
        import tracemalloc

        peaks = []
        for sums in (beta_sums, diagnostic_sums):
            tracemalloc.start()
            try:
                sums(0.75, 20, 2)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 2**20

    def test_level_caps(self):
        # the exact second moments, the library's own lag sums beside the
        # diagnostics: unweighted_second_moment(0.6, 2, -1) returned 0.25
        for sums, args in ((V.unweighted_second_moment, (0.6, 2, -1)),
                           (V.centered_power_second_moment, (0.6, 4, -3))):
            with pytest.raises(DomainError, match=r"^level must be an integer in \[1, 24\], got "):
                sums(*args)
        assert beta_sums(0.75, 16, 2)[2] > 0  # stationary path goes higher


def test_single_path_sums_reject_non_finite_terms_and_overflow():
    with pytest.raises(DomainError, match="demo: the sum overflows a double"):
        V.finite_fsum(np.array([1e308, 1e308]), "demo")
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(DomainError, match="demo: a term is not finite"):
            V.finite_fsum(np.array([1.0, bad]), "demo")
    assert V.finite_fsum(np.array([1e308, -1e308, 0.5]), "demo") == 0.5
    path = fbm.sample_fbm_circulant(0.6, 4, seed=0)
    with pytest.raises(DomainError, match="weighted Hermite variation"):
        V.weighted_hermite_variation(path, Polynomial((1e308,)), 2)
    with pytest.raises(DomainError, match="weighted power variation"):
        V.weighted_power_variation(path, Polynomial((1e308, 1e308)), 2)
    # an order outside [1, 150] or not an integer is refused before any term
    for call in (lambda: V.weighted_hermite_variation(path, ONE, 151),
                 lambda: V.weighted_power_variation(path, ONE, 2.5)):
        with pytest.raises(DomainError, match=r"order q must be an integer in \[1, 150\]"):
            call()
