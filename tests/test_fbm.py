import io
import math
import struct
from decimal import Decimal, getcontext

import numpy as np
import pytest

from fbmvar import experiments, fbm
from fbmvar.cli import main
from fbmvar.errors import CirculantEmbeddingError, DomainError
from fbmvar.rng import stream
from fbmvar.stats import ks_2samp
from oracles import fbm_covariance


def test_covariance_values():
    assert fbm_covariance(1.0, 1.0, 0.3) == pytest.approx(1.0, abs=1e-15)
    assert fbm_covariance(0.5, 0.5, 0.5) == pytest.approx(0.5, abs=1e-15)
    # 0.5*(0.5^1.5 + 1 - 0.5^1.5) collapses to 1/2 exactly
    assert fbm_covariance(1.0, 0.5, 0.75) == pytest.approx(0.5, abs=1e-15)


def test_covariance_symmetry_and_domain():
    assert fbm_covariance(0.3, 0.8, 0.6) == fbm_covariance(0.8, 0.3, 0.6)
    with pytest.raises(DomainError):
        fbm_covariance(0.5, 0.5, 1.0)
    with pytest.raises(DomainError):
        fbm_covariance(1.5, 0.5, 0.5)


def test_rho_values():
    assert fbm.rho(0, 0.37) == pytest.approx(2.0, abs=1e-15)
    assert fbm.rho(5, 0.5) == pytest.approx(0.0, abs=1e-15)
    assert fbm.rho(1, 0.75) == pytest.approx(2.0**1.5 - 2.0, rel=1e-15)
    assert fbm.rho(-3, 0.31) == fbm.rho(3, 0.31)


def test_rho_asymptotics():
    for hurst in (0.2, 0.65, 0.9):
        r = 10_000
        expected = 2 * hurst * (2 * hurst - 1) * r ** (2 * hurst - 2)
        assert fbm.rho(r, hurst) == pytest.approx(expected, rel=1e-3)


def test_rho_accurate_at_large_lags():
    # a 40-digit reference of the three-term formula; in double precision
    # that formula loses a relative eps * r**2 to cancellation
    getcontext().prec = 40
    for hurst in (0.1, 0.3, 0.49, 0.51, 0.7, 0.9, 0.99):
        a = Decimal(repr(2 * hurst))
        for r in (65, 100, 1000, 10**5, 2**22):
            d = Decimal(r)
            exact = sum(c * (x.ln() * a).exp() for c, x in ((1, d + 1), (1, d - 1), (-2, d)))
            assert fbm.rho(r, hurst) == pytest.approx(float(exact), rel=1e-14)


def test_circulant_eigenvalues_nonnegative_near_h_one():
    # the fGn circulant embedding is nonnegative definite, so negative
    # eigenvalues can only come from rounding in the covariance row
    hurst, level = 0.99, 20
    n_inc = 2**level
    cov = fbm.increment_autocovariance(hurst, level, np.arange(n_inc + 1))
    lam = np.fft.fft(np.concatenate([cov, cov[1:n_inc][::-1]])).real
    assert lam.min() > 0.0
    assert fbm.sample_increments_circulant(hurst, level, 1, 0, 1).shape == (1, n_inc)


def test_negative_circulant_eigenvalue_refused(monkeypatch, capsys):
    # no fBm spectrum has a negative entry, so one is patched in: an
    # eigenvalue barely below 0 is refused, not clamped to 0
    def spectrum(cov):
        lam = np.ones(len(cov))
        lam[3] = -1e-300
        return lam

    fbm._circulant_sqrt_eigs.cache_clear()
    monkeypatch.setattr(fbm, "_even_row_spectrum", spectrum)
    message = "circulant eigenvalue -1.000e-300 below 0 for H=0.6, n=6"
    try:
        with pytest.raises(CirculantEmbeddingError, match=rf"^{message}$"):
            fbm.sample_fbm_circulant(0.6, 6, 0)
        assert main(["sample", "--H", "0.6", "--n", "6"]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
    finally:
        fbm._circulant_sqrt_eigs.cache_clear()


def _padded_row_eigenvalues(hurst, level):
    """Oracle: one real FFT of the 2**(n+1)-point even row of covariances."""
    n_inc = 2**level
    cov = fbm.increment_autocovariance(hurst, level, np.arange(n_inc + 1))
    return np.fft.rfft(np.concatenate([cov, cov[1:n_inc][::-1]])).real


@pytest.mark.parametrize("hurst,level", [(0.6, 1), (0.1, 9), (0.3, 12), (0.7, 15),
                                         (0.95, 16)])
def test_eigenvalues_up_to_level_16_are_the_padded_row_fft(hurst, level):
    sq = fbm._circulant_sqrt_eigs(hurst, level)
    assert sq.tobytes() == np.sqrt(_padded_row_eigenvalues(hurst, level)).tobytes()


@pytest.mark.parametrize("hurst,level", [(0.3, 17), (0.95, 18), (0.1, 19), (0.7, 20)])
def test_split_eigenvalues_agree_with_the_padded_row_fft(hurst, level):
    lam = fbm._circulant_sqrt_eigs(hurst, level) ** 2
    oracle = _padded_row_eigenvalues(hurst, level)
    assert np.max(np.abs(lam - oracle)) <= 1e-13 * np.max(oracle)


@pytest.mark.parametrize("hurst", [0.1, 0.5, 0.75, 0.95])
def test_split_spectrum_matches_a_long_double_cosine_sum(monkeypatch, hurst):
    # six rounds of the split (2**10 down to 2**4), against the direct DCT-I sum
    monkeypatch.setattr(fbm, "_SPLIT_MIN_POINTS", 2**4)
    n = 2**10
    x = fbm._covariances(hurst, 10)
    lam = fbm._even_row_spectrum(x.copy())
    pi = 4 * np.arctan(np.longdouble(1))
    k = np.arange(n + 1)
    phase = np.outer(k, np.arange(1, n)) % (2 * n)  # reduced exactly before the cosine
    xl = x.astype(np.longdouble)
    exact = xl[0] + np.where(k % 2 == 0, 1, -1) * xl[n] + 2 * (np.cos(pi * phase / n) @ xl[1:n])
    assert np.max(np.abs(lam - exact)) <= 1e-14 * np.max(np.abs(exact))


@pytest.mark.parametrize("level", [17, 20])
def test_split_spectrum_of_a_unit_spike_is_flat(level):
    # at H = 1/2 the increments are independent: the covariance row is
    # 2**-n at lag 0 and exactly 0 elsewhere, so every eigenvalue is 2**-n
    assert np.all(fbm._even_row_spectrum(fbm._covariances(0.5, level)) == 2.0**-level)
    assert np.all(fbm._circulant_sqrt_eigs(0.5, level) == np.sqrt(2.0**-level))


def test_eigenvalue_step_peak_allocation():
    import tracemalloc

    fbm._circulant_sqrt_eigs.cache_clear()
    tracemalloc.start()
    try:
        sq = fbm._circulant_sqrt_eigs(0.7, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.0 * sq.nbytes


def _dense_complex_synthesis(sq, z):
    """Oracle: the full length-m Hermitian spectrum through a complex FFT,
    in the documented draw order."""
    b, m = z.shape
    half = m // 2
    spec = np.zeros((b, m), dtype=complex)
    spec[:, 0] = sq[0] * z[:, 0]
    spec[:, half] = sq[half] * z[:, 1]
    k = np.arange(1, half)
    w = (z[:, 2 * k] + 1j * z[:, 2 * k + 1]) * (sq[k] / np.sqrt(2.0))
    spec[:, 1:half] = w
    spec[:, half + 1 :] = np.conj(w[:, ::-1])
    return (np.fft.fft(spec, axis=1).real / np.sqrt(m))[:, :half]


@pytest.mark.parametrize("hurst,level", [(0.6, 1), (0.4, 2), (0.3, 10), (0.6, 14),
                                         (0.9, 16), (0.7, 17)])
def test_synthesis_matches_dense_complex_fft(hurst, level):
    sq = fbm._circulant_sqrt_eigs(hurst, level)
    assert sq.shape == (2**level + 1,)
    m = 2 ** (level + 1)
    z = np.stack([stream(3, i).standard_normal(m) for i in range(4)])
    inc = fbm._increments_from_normals(sq, z.copy())
    oracle = _dense_complex_synthesis(sq, z)
    assert inc.shape == oracle.shape == (4, m // 2)
    assert np.max(np.abs(inc - oracle)) <= 1e-14 * np.max(np.abs(oracle))


def _strided_half_spectrum_synthesis(sq, z):
    """Oracle: the half spectrum filled by strided copies of the real and
    imaginary parts and a strided negate, then the same real inverse FFT."""
    b, m = z.shape
    half = m // 2
    weight = sq * np.sqrt(m)
    weight[1:half] /= np.sqrt(2.0)
    spec = np.empty((b, half + 1), dtype=complex)
    spec.real[:, 0] = z[:, 0]
    spec.real[:, half] = z[:, 1]
    spec.real[:, 1:half] = z[:, 2::2]
    spec.imag[:, 0] = spec.imag[:, half] = 0.0
    np.negative(z[:, 3::2], out=spec.imag[:, 1:half])
    spec *= weight
    return np.fft.irfft(spec, n=m, axis=1)[:, :half]


def test_synthesis_writes_into_the_normals():
    sq = fbm._circulant_sqrt_eigs(0.7, 10)
    z = np.stack([stream(4, i).standard_normal(2**11) for i in range(3)])
    inc = fbm._increments_from_normals(sq, z)
    assert inc.shape == (3, 2**10)
    assert np.shares_memory(inc, z)


def _half_spectrum_l1(sq, z):
    """sum_k |S_k| of each row's half spectrum, the scale of the synthesis's
    rounding error."""
    m = z.shape[1]
    w = sq * np.sqrt(m)
    w[1 : m // 2] /= np.sqrt(2.0)
    mag = np.empty((z.shape[0], m // 2 + 1))
    mag[:, 0], mag[:, -1] = np.abs(z[:, 0]), np.abs(z[:, 1])
    mag[:, 1:-1] = np.hypot(z[:, 2::2], z[:, 3::2])
    return np.sum(mag * w, axis=1, keepdims=True)


@pytest.mark.parametrize("level", [1, 3, 4, 7, 10, 14, 16, 17, 18])
@pytest.mark.parametrize("hurst", [0.1, 0.5, 0.7, 0.9, 0.99])
def test_packed_synthesis_agrees_with_the_real_inverse_fft(hurst, level):
    # two rows; five at level 1, and eight at level 14 as in an engine block
    rows = {1: 5, 14: 8}.get(level, 2)
    sq = fbm._circulant_sqrt_eigs(hurst, level)
    z = np.stack([stream(6, i).standard_normal(2 ** (level + 1)) for i in range(rows)])
    oracle = _strided_half_spectrum_synthesis(sq, z)
    tol = 4 * np.finfo(float).eps * _half_spectrum_l1(sq, z) / 2 ** (level + 1)
    inc = fbm._increments_from_normals(sq, z)
    assert np.all(np.abs(inc - oracle) <= tol)
    assert np.max(np.abs(inc - oracle)) <= 1e-14 * np.max(np.abs(oracle))


@pytest.mark.parametrize("level", [3, 4, 7, 10])
@pytest.mark.parametrize("hurst", [0.1, 0.5, 0.7, 0.9, 0.99])
def test_packed_synthesis_below_a_lowered_threshold(monkeypatch, hurst, level):
    # the pack at small M with 8 frequency pairs per chunk: one chunk,
    # several chunks, and M/2 = 2 pairs
    sq = fbm._circulant_sqrt_eigs(hurst, level)
    z = np.stack([stream(7, i).standard_normal(2 ** (level + 1)) for i in range(3)])
    oracle = _strided_half_spectrum_synthesis(sq, z)
    monkeypatch.setattr(fbm, "_CHUNK", 8)
    tol = 4 * np.finfo(float).eps * _half_spectrum_l1(sq, z) / 2 ** (level + 1)
    inc = fbm._increments_from_normals(sq, z)
    assert np.all(np.abs(inc - oracle) <= tol)
    assert np.shares_memory(inc, z)


def test_packed_synthesis_rows_are_independent():
    block = fbm.sample_increments_circulant(0.7, 17, 8, 5, 3)
    for i in range(3):
        row = fbm.sample_increments_circulant(0.7, 17, 8, 5 + i, 1)[0]
        assert block[i].tobytes() == row.tobytes()


@pytest.mark.parametrize("hurst,level,seed,first,count,digest", [
    (0.3, 12, 5, 0, 3, "f7e2157075c7879929529ae6bff53e82d75341bb7d1ed24b6afca5e2fa8ae09e"),
    (0.7, 16, 11, 3, 2, "14142e13c0985c69ac7b310f74745d9ccd4eae4a1f8fa47675cbdb87e4769554"),
    (0.99, 16, 2, 7, 1, "8d3ef19424a8a3248700d8a02ff492fbbf60034b6613864d87dd7b07edf7c4fb"),
    (0.6, 17, 9, 4, 2, "435c33991c3d35eae0434fb028ed7a76fd13096f74de39d2b99674a103fb0bee"),
])
def test_increments_keep_their_bytes(hurst, level, seed, first, count, digest):
    # sha256 of the increments of the packed complex FFT synthesis; the
    # level-17 bytes are those it has written since it first ran above level 16
    import hashlib

    inc = fbm.sample_increments_circulant(hurst, level, seed, first, count)
    assert hashlib.sha256(inc.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("n,start,count", [(2**22, 0, 2**20 + 1), (2**10, 0, 257),
                                           (2**17, 1, 2**15), (2**5, 3, 1), (8, 0, 3)])
def test_twiddles_match_a_long_double_table(n, start, count):
    out = fbm._twiddles(n, start, np.empty(count, dtype=complex))
    pi = 4 * np.arctan(np.longdouble(1))
    theta = pi * np.arange(start, start + count, dtype=np.longdouble) / n
    assert np.max(np.abs(out.real - np.cos(theta))) <= 4e-16
    assert np.max(np.abs(out.imag - np.sin(theta))) <= 4e-16
    if start == 0:
        assert out[0] == 1.0


def test_eigenvalue_cache_holds_the_one_key_a_run_samples():
    # every block of a report samples its top level, so one entry serves
    # the whole run: one miss, then a hit per further block
    cfg = experiments.ExperimentConfig("clt", hurst=0.6, order=2, levels=(8, 10),
                                       replicates=300, master_seed=4)
    blocks = -(-cfg.replicates // experiments._block_rows(max(cfg.levels)))
    assert blocks == 3
    fbm._circulant_sqrt_eigs.cache_clear()
    experiments.run_experiment(cfg)
    info = fbm._circulant_sqrt_eigs.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, blocks - 1, 1)
    # a second key evicts the first
    fbm._circulant_sqrt_eigs(0.7, 8)
    fbm._circulant_sqrt_eigs(0.6, 10)
    info = fbm._circulant_sqrt_eigs.cache_info()
    assert (info.misses, info.hits, info.currsize) == (3, blocks - 1, 1)


def test_circulant_sampler_peak_allocation():
    import tracemalloc

    fbm.sample_fbm_circulant(0.7, 4, 0)  # first-use set-up of the Philox streams
    fbm._circulant_sqrt_eigs.cache_clear()
    tracemalloc.start()
    try:
        path = fbm.sample_fbm_circulant(0.7, 18, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.5 * path.values.nbytes


def test_circulant_eigenvalues_read_only():
    sq = fbm._circulant_sqrt_eigs(0.6, 8)
    with pytest.raises(ValueError):
        sq[0] = 1.0
    assert fbm._circulant_sqrt_eigs(0.6, 8) is sq
    chol = fbm._cholesky_factor(0.6, 5)
    with pytest.raises(ValueError):
        chol[0, 0] = 1.0
    assert fbm._cholesky_factor(0.6, 5) is chol


@pytest.mark.parametrize("seed,index", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64),
                                        (1.0, 0), (0, "2")])
def test_stream_rejects_keys_outside_64_bits(seed, index):
    with pytest.raises(DomainError, match=r"\[0, 2\*\*64\)"):
        stream(seed, index)


def test_stream_keys_span_64_bits():
    top = 2**64 - 1
    a = stream(top, top).standard_normal(4)
    assert np.array_equal(a, stream(np.uint64(top), np.uint64(top)).standard_normal(4))
    assert not np.array_equal(a, stream(top - 1, top).standard_normal(4))


@pytest.mark.parametrize("count", [1, 37, 128])
def test_block_rows_independent_of_block_size(count):
    hurst, level, seed, first = 0.7, 8, 5, 11
    block = fbm.sample_increments_circulant(hurst, level, seed, first, count)
    for i in range(count):
        row = fbm.sample_increments_circulant(hurst, level, seed, first + i, 1)[0]
        assert np.array_equal(block[i], row)
    # a block has at least one row
    for bad in (2.5, -1, 0):
        with pytest.raises(DomainError, match=rf"^count must be an integer >= 1, got {bad}$"):
            fbm.sample_increments_circulant(hurst, level, seed, first, bad)


def test_engine_rows_equal_single_paths():
    hurst, level, seed, start, count = 0.4, 9, 19, 4, 37
    vals = fbm.values_from_increments(
        experiments._values_block(hurst, level, seed, start, count))
    for i in range(count):
        path = fbm.sample_fbm_circulant(hurst, level, seed, start + i)
        assert np.array_equal(vals[i], path.values)


def test_rho_power_summability_tail_ratio():
    # partial sums of |rho|^q converge iff H < 1 - 1/(2q)
    def partial(hurst, q, radius):
        lags = np.arange(1, radius + 1)
        return 2.0**q + 2.0 * float(np.sum(np.abs(fbm.rho(lags, hurst)) ** q))

    convergent = partial(0.6, 2, 10_000) / partial(0.6, 2, 1_000)
    divergent = partial(0.75, 2, 10_000) / partial(0.75, 2, 1_000)
    assert convergent < 1.05
    assert divergent > 1.05


def test_circulant_reproducible_and_invariants():
    a = fbm.sample_fbm_circulant(0.7, 8, seed=13)
    b = fbm.sample_fbm_circulant(0.7, 8, seed=13)
    c = fbm.sample_fbm_circulant(0.7, 8, seed=13, stream_index=1)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert a.values[0] == 0.0
    assert len(a.values) == 2**8 + 1
    assert len(a.increments) == 2**8


def test_circulant_marginal_variance():
    # B_1 ~ N(0,1): R_H(1,1) = 1 for every H
    for hurst in (0.3, 0.7):
        b1 = np.array(
            [
                fbm.sample_increments_circulant(hurst, 6, 5, i, 1).sum()
                for i in range(4000)
            ]
        )
        se = math.sqrt(2.0 / len(b1))  # SE of a variance estimate, known mean
        assert abs(b1.var() - 1.0) < 4 * se


def test_circulant_lag_one_correlation():
    hurst = 0.3
    inc = fbm.sample_increments_circulant(hurst, 6, 17, 0, 10_000)
    est = np.mean(inc[:, :-1] * inc[:, 1:], axis=1)
    scale = 2.0 ** (-2 * hurst * 6)
    target = scale * fbm.rho(1, hurst) / 2.0
    se = np.std(est) / math.sqrt(len(est))
    assert abs(est.mean() - target) < 3 * se


def test_self_similarity_slope():
    # log2 Var(B_2^-j) vs j has slope -2H
    hurst = 0.8
    inc = fbm.sample_increments_circulant(hurst, 6, 23, 0, 6000)
    vals = np.cumsum(inc, axis=1)
    js = np.arange(1, 6)
    log_vars = [math.log2(np.var(vals[:, 2 ** (6 - j) - 1])) for j in js]
    slope = np.polyfit(js, log_vars, 1)[0]
    assert abs(slope - (-2 * hurst)) < 0.05


def test_cholesky_level_cap():
    for level in (0, 13):
        with pytest.raises(DomainError,
                           match=rf"^level must be an integer in \[1, 12\], got {level}$"):
            fbm.sample_fbm_cholesky(0.2, level, seed=0)
    path = fbm.sample_fbm_cholesky(0.2, 5, seed=0)
    assert len(path.values) == 33


def test_cholesky_covariance_small_grid():
    # empirical covariance at n=3 matches min(s,t) for H=1/2
    paths = np.stack(
        [fbm.sample_fbm_cholesky(0.5, 3, 31, i).values for i in range(20_000)]
    )
    t = np.arange(9) / 8.0
    target = np.minimum(t[:, None], t[None, :])
    emp = paths.T @ paths / len(paths)
    se = np.sqrt((np.outer(t, t) + target**2) / len(paths))
    mask = se > 0
    assert np.all(np.abs(emp[mask] - target[mask]) < 4 * se[mask])


def test_samplers_agree_in_law():
    # two-sample KS on B_1, chol vs circulant, must not reject at 1%
    hurst, level, count = 0.7, 5, 4000
    b1_circ = np.array(
        [fbm.sample_increments_circulant(hurst, level, 41, i, 1).sum() for i in range(count)]
    )
    b1_chol = np.array(
        [fbm.sample_fbm_cholesky(hurst, level, 42, i).values[-1] for i in range(count)]
    )
    _, p = ks_2samp(b1_circ, b1_chol)
    assert p > 0.01


def test_coarsen():
    # every 2^(8-5)-th value of a level-8 path is a level-5 path
    path = fbm.sample_fbm_circulant(0.6, 8, seed=3)
    coarse = fbm.FbmPath(0.6, 5, path.values[:: 2 ** (path.level - 5)], 3)
    assert len(coarse.values) == 33
    assert coarse.values[0] == 0.0
    assert coarse.values[-1] == path.values[-1]
    assert np.array_equal(coarse.times, path.times[::8])


def test_csv_export():
    path = fbm.sample_fbm_circulant(0.5, 3, seed=0)
    buf = io.StringIO()
    fbm.write_csv(path, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "k,t,B"
    assert len(lines) == 1 + 9
    assert lines[1].startswith("0,0.0,0.0")


def test_csv_export_matches_per_row_format():
    path = fbm.sample_fbm_circulant(0.3, 12, seed=8)
    buf = io.StringIO()
    fbm.write_csv(path, buf)
    rows = [f"{k},{float(t)!r},{float(v)!r}\n"
            for k, (t, v) in enumerate(zip(path.times, path.values))]
    assert buf.getvalue() == "k,t,B\n" + "".join(rows)


def test_binary_round_trip():
    path = fbm.sample_fbm_circulant(0.62, 6, seed=91)
    buf = io.BytesIO()
    fbm.write_binary(path, buf)
    data = buf.getvalue()
    assert data[24:] == path.values.astype("<f8").tobytes()
    buf.seek(0)
    back = fbm.read_binary(buf)
    assert back.hurst == path.hurst
    assert back.level == path.level
    assert back.seed == path.seed
    assert np.array_equal(back.values.view(np.uint64), path.values.view(np.uint64))
    assert back.values.flags.writeable and back.values.flags.owndata


def test_binary_bad_magic():
    with pytest.raises(DomainError):
        fbm.read_binary(io.BytesIO(b"NOPE" + b"\0" * 100))


def test_binary_header_level_checked_before_read():
    for level in (-1, 0, fbm.CIRCULANT_MAX_LEVEL + 1, 2**31 - 1):
        header = b"FBM1" + struct.pack("<d", 0.5) + struct.pack("<i", level)
        with pytest.raises(DomainError):
            fbm.read_binary(io.BytesIO(header + struct.pack("<Q", 0) + b"\0" * 64))
    # nor can a path exist at a level its header would not carry back:
    # write_binary wrote level 25, and level 3.0 failed in struct.pack
    for level in (fbm.CIRCULANT_MAX_LEVEL + 1, 3.0):
        values = np.broadcast_to(0.0, int(2**level) + 1)  # no memory behind it
        with pytest.raises(DomainError,
                           match=rf"^level must be an integer in \[1, 24\], got {level}$"):
            fbm.FbmPath(0.5, level, values, seed=0)


def test_binary_trailing_bytes_rejected():
    path = fbm.sample_fbm_circulant(0.62, 4, seed=3)
    buf = io.BytesIO()
    fbm.write_binary(path, buf)
    with pytest.raises(DomainError):
        fbm.read_binary(io.BytesIO(buf.getvalue() + b"\0"))


def test_binary_truncated_values_rejected():
    path = fbm.sample_fbm_circulant(0.62, 4, seed=3)
    buf = io.BytesIO()
    fbm.write_binary(path, buf)
    with pytest.raises(DomainError):
        fbm.read_binary(io.BytesIO(buf.getvalue()[:-8]))
    with pytest.raises(DomainError, match=r"^truncated FBM1 values: 135 of 136 bytes$"):
        fbm.read_binary(io.BytesIO(buf.getvalue()[:-1]))


def test_binary_every_truncation_rejected():
    path = fbm.sample_fbm_circulant(0.62, 4, seed=3)
    buf = io.BytesIO()
    fbm.write_binary(path, buf)
    data = buf.getvalue()
    assert len(data) == 4 + 8 + 4 + 8 + 8 * 17
    for cut in range(len(data)):  # inside the magic, the header and the values
        with pytest.raises(DomainError):
            fbm.read_binary(io.BytesIO(data[:cut]))


def test_path_invariants_enforced():
    with pytest.raises(DomainError):
        fbm.FbmPath(hurst=0.5, level=2, values=np.array([1.0, 0.0, 0.0, 0.0, 0.0]), seed=0)
    with pytest.raises(DomainError):
        fbm.FbmPath(hurst=0.5, level=2, values=np.zeros(4), seed=0)
    # a seed the FBM1 header would store modulo 2**64
    with pytest.raises(DomainError, match="seed"):
        fbm.FbmPath(hurst=0.5, level=2, values=np.zeros(5), seed=-1)
    with pytest.raises(DomainError, match="stream index"):
        fbm.FbmPath(hurst=0.5, level=2, values=np.zeros(5), seed=0, stream_index=2**64)
