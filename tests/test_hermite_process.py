import math

import numpy as np
import pytest

from fbmvar import fbm, hermite
from fbmvar.constants import hermite_process_variance_const
from fbmvar.errors import DomainError, GridAlignmentError, RegimeError
from fbmvar.hermite_process import (
    hermite_partial_sums,
    simulate_hermite,
    young_integral,
    young_integral_rows,
)
from fbmvar.variations import renormalize, scaled_hermite, weighted_hermite_variation
from fbmvar.weights import ONE, Cosine, Polynomial


def test_regime_contract():
    path = fbm.sample_fbm_circulant(0.75, 6, seed=0)
    with pytest.raises(RegimeError):
        simulate_hermite(path, 2, 4)
    ok = fbm.sample_fbm_circulant(0.76, 6, seed=0)
    assert simulate_hermite(ok, 2, 4).shape == (17,)


def test_out_level_contract():
    path = fbm.sample_fbm_circulant(0.9, 6, seed=0)
    with pytest.raises(DomainError):
        simulate_hermite(path, 2, 7)


def test_partial_sums_reject_terms_off_the_fine_grid():
    terms = scaled_hermite(fbm.sample_increments_circulant(0.9, 6, 0, 0, 2), 0.9, 6, 2)
    with pytest.raises(GridAlignmentError):
        hermite_partial_sums(terms[:, :-1], 0.9, 6, 2, 3)
    with pytest.raises(GridAlignmentError):
        hermite_partial_sums(terms, 0.9, 7, 2, 3)


def test_partial_sums_reject_out_level_outside_the_fine_levels():
    terms = scaled_hermite(fbm.sample_increments_circulant(0.9, 6, 0, 0, 2), 0.9, 6, 2)
    for out_level in (0, 7, 2.5):
        with pytest.raises(DomainError,
                           match=rf"^out_level must be an integer in \[1, 6\], got {out_level}$"):
            hermite_partial_sums(terms, 0.9, 6, 2, out_level)
    # a float fine level passed the grid test and failed as a float stride
    with pytest.raises(DomainError, match=r"^fine_level must be an integer in \[1, 24\], got 6.0$"):
        hermite_partial_sums(terms, 0.9, 6.0, 2, 3)


def partial_sums_oracle(values, hurst, m, q, n):
    """Z from a path's values by the definition: H_q of 2^{mH} dB, summed,
    every 2^(m-n)-th partial sum times 2^{m(q(1-H)-1)}."""
    hq = hermite.hermite_eval(q, 2.0 ** (m * hurst) * np.diff(values, axis=-1))
    csum = np.cumsum(hq, axis=-1)
    stride = 2 ** (m - n)
    out = np.zeros(values.shape[:-1] + (2**n + 1,))
    out[..., 1:] = 2.0 ** (m * (q * (1.0 - hurst) - 1.0)) * csum[..., stride - 1 :: stride]
    return out


def reshape_sum_oracle(terms, hurst, m, q, n):
    """Z from H_q terms summed by output interval: the 2^(m-n) terms of each
    interval in one pairwise sum, then the running sum of the 2^n sums."""
    sums = np.sum(terms.reshape(terms.shape[:-1] + (2**n, 2 ** (m - n))), axis=-1)
    out = np.zeros(terms.shape[:-1] + (2**n + 1,))
    out[..., 1:] = np.cumsum(sums, axis=-1) * 2.0 ** (m * (q * (1.0 - hurst) - 1.0))
    return out


def interval_order_oracle(values, hurst, m, q, n):
    """The definition summed by output interval."""
    hq = hermite.hermite_eval(q, 2.0 ** (m * hurst) * np.diff(values, axis=-1))
    return reshape_sum_oracle(hq, hurst, m, q, n)


@pytest.mark.parametrize("stride", [1, 2, 4, 8, 64])
@pytest.mark.parametrize("rows", [(), (3,)])
def test_partial_sums_equal_the_reshape_sum(stride, rows):
    # terms of many magnitudes, so that another order of addition shows,
    # and whole intervals of -0.0 and of mixed zeros
    m = 10
    n = m - stride.bit_length() + 1
    rng = np.random.default_rng(stride)
    terms = rng.standard_normal(rows + (2**m,)) * 10.0 ** rng.integers(-8, 9, rows + (2**m,))
    terms[..., : 2 * stride] = -0.0
    terms[..., 2 * stride : 4 * stride : 2] = 0.0
    terms[..., 2 * stride + 1 : 4 * stride : 2] = -0.0
    z = hermite_partial_sums(terms, 0.9, m, 2, n)
    assert z.tobytes() == reshape_sum_oracle(terms, 0.9, m, 2, n).tobytes()


@pytest.mark.parametrize("hurst,q,m,n", [(0.9, 2, 10, 4), (0.9, 3, 9, 9), (0.95, 4, 8, 1)])
def test_simulate_hermite_equals_the_definition(hurst, q, m, n):
    path = fbm.sample_fbm_circulant(hurst, m, seed=6)
    z = simulate_hermite(path, q, n)
    assert z.tobytes() == interval_order_oracle(path.values, hurst, m, q, n).tobytes()
    # each order of summation is within (2^m - 1) u sum |H_q| of the exact
    # partial sum, so the two are within twice that, times the prefactor
    definition = partial_sums_oracle(path.values, hurst, m, q, n)
    hq = hermite.hermite_eval(q, 2.0**(m * hurst) * np.diff(path.values))
    prefactor = 2.0 ** (m * (q * (1.0 - hurst) - 1.0))
    u = np.finfo(float).eps / 2  # unit roundoff
    bound = 2 * 2**m * u * np.sum(np.abs(hq)) * prefactor
    assert np.all(np.abs(z - definition) <= bound)
    if n == m:  # one term per interval: the two orders coincide
        assert z.tobytes() == definition.tobytes()


def test_identity_with_renormalized_variation():
    # at n_out = m, Z(1) is exactly the renormalized unweighted variation,
    # and the whole path matches the running renormalized partial sums
    path = fbm.sample_fbm_circulant(0.9, 10, seed=5)
    z = simulate_hermite(path, 2, 10)
    raw = weighted_hermite_variation(path, ONE, 2)
    target = renormalize(raw, 0.9, 2, 10)
    assert abs(z[-1] - target) <= 1e-12 * max(1.0, abs(target))
    assert z[0] == 0.0


def test_measurable_function_of_path():
    a = simulate_hermite(fbm.sample_fbm_circulant(0.85, 9, seed=3), 3, 5)
    b = simulate_hermite(fbm.sample_fbm_circulant(0.85, 9, seed=3), 3, 5)
    assert np.array_equal(a, b)


def test_variance_matches_constant():
    # Var Z(1) ~ q! c_{q,H} at moderate fine level
    hurst, q, m, reps = 0.9, 2, 12, 4000
    inc = fbm.sample_increments_circulant(hurst, m, 8, 0, reps)
    z = hermite_partial_sums(scaled_hermite(inc, hurst, m, q), hurst, m, q, 1)
    var = z[:, -1].var()
    target = math.factorial(q) * hermite_process_variance_const(q, hurst)
    assert abs(var / target - 1.0) < 0.10


def test_self_similarity_ratio():
    hurst, q, m, reps = 0.9, 2, 12, 4000
    inc = fbm.sample_increments_circulant(hurst, m, 9, 0, reps)
    z = hermite_partial_sums(scaled_hermite(inc, hurst, m, q), hurst, m, q, 1)
    ratio = z[:, 1].var() / z[:, -1].var()
    target = 0.5 ** (2 * (q * (hurst - 1) + 1))
    assert abs(ratio / target - 1.0) < 0.10


def test_stationary_increments_ks():
    # Z(1) - Z(1/2) and Z(1/2) agree in law (two-sample KS at 1%)
    from fbmvar.stats import ks_2samp

    hurst, q, m, reps = 0.9, 2, 11, 10_000
    inc_a = fbm.sample_increments_circulant(hurst, m, 21, 0, reps)
    inc_b = fbm.sample_increments_circulant(hurst, m, 22, 0, reps)
    za = hermite_partial_sums(scaled_hermite(inc_a, hurst, m, q), hurst, m, q, 1)
    zb = hermite_partial_sums(scaled_hermite(inc_b, hurst, m, q), hurst, m, q, 1)
    _, p = ks_2samp(za[:, -1] - za[:, 1], zb[:, 1])
    assert p > 0.01


def test_young_integral_linearity():
    path = fbm.sample_fbm_circulant(0.9, 10, seed=5)
    z = simulate_hermite(path, 2, 6)
    coarse = path.values[:: 2 ** (path.level - 6)]
    assert young_integral(ONE, coarse, z) == pytest.approx(z[-1], rel=1e-12)
    c = 3.5
    assert young_integral(Polynomial((c,)), coarse, z) == pytest.approx(
        c * z[-1], rel=1e-12
    )


def test_young_integral_grid_mismatch():
    path = fbm.sample_fbm_circulant(0.9, 10, seed=5)
    z = simulate_hermite(path, 2, 6)
    with pytest.raises(GridAlignmentError):
        young_integral(ONE, path.values[:: 2 ** (path.level - 5)], z)


def test_young_integral_rows_match_single_and_check_the_weight_grid():
    path = fbm.sample_fbm_circulant(0.9, 10, seed=5)
    z = simulate_hermite(path, 2, 6)
    coarse = path.values[:: 2 ** (path.level - 6)]
    f = Cosine(1.0)
    rows = young_integral_rows(f(coarse)[None, :-1], z[None, :])
    assert rows[0] == pytest.approx(young_integral(f, coarse, z), rel=1e-12)
    with pytest.raises(GridAlignmentError):
        young_integral_rows(f(coarse)[None, :], z[None, :])


def test_young_cauchy_refinement():
    # successive out-levels on the same realization form a Cauchy sequence;
    # averaged over realizations the refinement differences shrink at each step
    f = Cosine(1.0)
    diffs = np.zeros(3)
    n_paths = 40
    for i in range(n_paths):
        path = fbm.sample_fbm_circulant(0.9, 13, seed=2, stream_index=i)
        vals = []
        for n_out in (4, 5, 6, 7):
            z = simulate_hermite(path, 2, n_out)
            coarse = path.values[:: 2 ** (path.level - n_out)]
            vals.append(young_integral(f, coarse, z))
        diffs += [abs(b - a) for a, b in zip(vals, vals[1:])]
    diffs /= n_paths
    assert diffs[1] < diffs[0]
    assert diffs[2] < diffs[1]


def test_young_integral_rejects_an_overflowing_sum():
    path = fbm.sample_fbm_circulant(0.9, 10, seed=5)
    z = simulate_hermite(path, 2, 6)
    coarse = path.values[:: 2 ** (path.level - 6)]
    with pytest.raises(DomainError, match="Young integral"):
        young_integral(Polynomial((1e308,)), coarse, z)
    with pytest.raises(DomainError, match="Young integral"):
        young_integral(Polynomial((1e308, 1e308)), coarse, z)
