"""Exact sampling of fractional Brownian motion on dyadic grids.

A path lives on the grid t_k = k * 2**-n of [0, 1].  The covariance of the
process is

    R_H(t, s) = (s**(2H) + t**(2H) - |t - s|**(2H)) / 2,

so the unit-lag increment autocovariance at level n is

    E[dB_k dB_{k+r}] = 2**(-2Hn) * rho_H(r) / 2,
    rho_H(r) = |r+1|**(2H) + |r-1|**(2H) - 2|r|**(2H).

Two exact samplers are provided:

* ``sample_fbm_circulant`` embeds the increment autocovariance in a
  circulant of length m = 2**(n+1) and synthesises the stationary Gaussian
  increments through one complex inverse FFT of length 2**n on the packed
  half spectrum (Davies-Harte; see below).  The embedding row is real and
  symmetric, so its spectrum is real and even and the Gaussian spectrum
  of a path is Hermitian: only the half spectrum, frequencies
  0 .. 2**n, is used, and the square roots of the
  2**n + 1 eigenvalues it needs are cached as a read-only array for the
  last (H, n) only: a run samples one (H, n) at a time.  Cost O(n 2**n).

  The eigenvalues are the DCT-I of the 2**n + 1 covariances (computed
  2**15 lags at a time).  Up to n = 16 it is one real FFT of the padded
  2**(n+1)-point row.  Above, even/odd rounds halve it down to 2**16
  points, each odd half an inverse real FFT of half the round's points:
  about one real FFT of length 2**n in all, half the padded row's work,
  and at most 3.3 times the result's bytes at n >= 20 where the padded
  row takes 5; the eigenvalues then differ from the padded row by
  rounding (about 1e-15 of the largest).  At every level the synthesis
  packs the half spectrum pairwise, in place in the block's normals, into
  2**n complex points whose one complex inverse FFT, read as floats, is
  the m real outputs, with no spectrum array beside the normals.
  The twiddles of both steps come from ``_twiddles``.
* ``sample_fbm_cholesky`` factorises the dense increment covariance;
  it is O(2**(3n)) and capped at n <= 12, and serves as the independent
  oracle for the circulant sampler in tests.

Randomness: each path consumes a fixed number of standard normals from a
Philox stream keyed by (seed, stream); the circulant sampler draws all
2**(n+1) normals in one call and the Cholesky sampler draws 2**n, so
identical (H, n, seed, stream) always give bit-identical paths.
Eigenvalues of the embedded circulant are mathematically non-negative for
fBm increments, and a computed eigenvalue below 0 raises
``CirculantEmbeddingError``: no eigenvalue is ever repaired.

Path files: ``write_binary`` writes the path's values from their own
memory (no copy for little-endian float64 values) and ``read_binary`` reads
them straight into the array the returned path owns; the FBM1 bytes are
those of ``tobytes()``.  ``write_csv`` builds its text 2**16 rows at a time.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import IO, Iterator

import numpy as np

from .errors import CirculantEmbeddingError, DomainError, SizeLimitError, check_int
from .rng import check_key, stream

CHOLESKY_MAX_LEVEL = 12
CIRCULANT_MAX_LEVEL = 24
_EXACT_RHO_MAX_LAG = 64
# lags per covariance call and frequency pairs per step of the synthesis pack
_CHUNK = 1 << 15
# the even-row spectrum of more points is split into halves first
_SPLIT_MIN_POINTS = 1 << 16
# rows of CSV text built per string
_CSV_CHUNK_ROWS = 1 << 16

_BIN_MAGIC = b"FBM1"
_BIN_HEADER = struct.Struct("<diQ")


@dataclass(frozen=True)
class FbmPath:
    """One fBm sample on the dyadic grid {k 2**-level}, values[0] == 0."""

    hurst: float
    level: int
    values: np.ndarray
    seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        _check_h(self.hurst)
        check_level(self.level)
        if len(self.values) != 2**self.level + 1:
            raise DomainError(
                f"values must have 2**level+1 = {2**self.level + 1} entries, "
                f"got {len(self.values)}"
            )
        if self.values[0] != 0.0:
            raise DomainError("values[0] must be exactly 0")
        check_key(self.seed, "seed")
        check_key(self.stream_index, "stream index")

    @property
    def times(self) -> np.ndarray:
        return grid_times(self.level)

    @property
    def increments(self) -> np.ndarray:
        return np.diff(self.values)


def grid_times(level: int) -> np.ndarray:
    """The grid t_k = k 2**-level, k = 0 .. 2**level, of a path or of Z."""
    return np.arange(2**level + 1) * 2.0**-level


def _check_h(hurst: float) -> None:
    if not 0.0 < hurst < 1.0:
        raise DomainError(f"hurst must be in (0,1), got {hurst}")


def check_level(level: int, top=CIRCULANT_MAX_LEVEL, name="level", error=SizeLimitError) -> int:
    """The one level check: `level` if it is an integer in [1, top] (no ceiling
    when `top` is None), else `error` naming `name` and the range.  The default
    top, the circulant sampler's, bounds every path, path file and level-n sum."""
    return check_int(level, name, 1, top, error)


def rho(r, hurst: float):
    """Increment autocovariance kernel rho_H(r), vectorised over the lag.

    rho_H(0) = 2 for every H, and rho_H vanishes at nonzero lags for
    H = 1/2.  For large |r| it behaves as 2H(2H-1) |r|**(2H-2).

    The three-term formula loses a relative eps * r**2 to cancellation
    (the terms are ~r**2H, the difference ~r**(2H-2)), so beyond lag 64
    the expansion rho = a(a-1) r**(a-2) (1 + e1 x**2 + e2 x**4 + e3 x**6),
    a = 2H, x = 1/r, is used instead, exact to ~x**8/5 < 7e-16 relative.
    """
    _check_h(hurst)
    r = np.abs(np.asarray(r, dtype=float))
    a = 2.0 * hurst
    e1 = (a - 2.0) * (a - 3.0) / 12.0
    e2 = e1 * (a - 4.0) * (a - 5.0) / 30.0
    e3 = e2 * (a - 6.0) * (a - 7.0) / 56.0
    # the expansion is evaluated in place, one operation at a time in the
    # order of a(a-1) far**(a-2) (1 + x2 (e1 + x2 (e2 + x2 e3))): the same bits
    # with two lag-sized temporaries fewer
    out = np.maximum(r, _EXACT_RHO_MAX_LAG)
    x2 = out**-2.0
    psi = x2 * e3
    psi += e2
    psi *= x2
    psi += e1
    psi *= x2
    psi += 1.0
    del x2
    out **= a - 2.0
    out *= a * (a - 1.0)
    out *= psi
    del psi
    out = np.asarray(out)
    near = r <= _EXACT_RHO_MAX_LAG
    r = r[near]
    out[near] = (r + 1.0) ** a + np.abs(r - 1.0) ** a - 2.0 * r**a
    return float(out) if out.ndim == 0 else out


def increment_autocovariance(hurst: float, level: int, lags) -> np.ndarray:
    """E[dB_k dB_{k+r}] at the given level: 2**(-2Hn) rho_H(r) / 2."""
    cov = rho(lags, hurst)
    cov *= 0.5 * 2.0 ** (-2.0 * hurst * level)
    return cov


def _covariances(hurst: float, level: int) -> np.ndarray:
    """Increment autocovariances at lags 0 .. 2**n, _CHUNK lags per call:
    every lag goes through the same element-wise operations as in one call,
    so the bits are those of one call, with chunk-sized temporaries."""
    n_pts = 2**level + 1
    x = np.empty(n_pts)
    for start in range(0, n_pts, _CHUNK):
        stop = min(start + _CHUNK, n_pts)
        x[start:stop] = increment_autocovariance(hurst, level, np.arange(start, stop))
    return x


def _twiddles(n: int, start: int, out: np.ndarray) -> np.ndarray:
    """out[j] = e^{i pi (start + j) / n} for every j, as the outer product of a
    coarse table (steps of b = about sqrt(len(out)) from `start`) and a fine
    one (steps of 1 up to b): 2 sqrt(len(out)) cosines and sines instead of
    2 len(out), within about 3e-16 of the exact values."""
    count = len(out)
    b = 1 << ((count - 1).bit_length() + 1) // 2
    theta = np.arange(b) * (np.pi / n)
    fine = np.cos(theta) + 1j * np.sin(theta)
    theta = (start + b * np.arange(-(-count // b))) * (np.pi / n)
    coarse = np.cos(theta) + 1j * np.sin(theta)
    full = count - count % b
    np.multiply.outer(coarse[: full // b], fine, out=out[:full].reshape(-1, b))
    if full < count:
        np.multiply(coarse[-1], fine[: count - full], out=out[full:])
    return out


def _even_row_spectrum(x: np.ndarray) -> np.ndarray:
    """lam_k = x_0 + (-1)**k x_N + 2 sum_{j=1}^{N-1} x_j cos(pi j k / N), k = 0 .. N:
    the real spectrum of the even row x_0 .. x_N, x_{N-1} .. x_1 (a DCT-I).

    Up to N = _SPLIT_MIN_POINTS it is ``rfft(row).real``, bit for bit.  Above,
    each round halves N (M = N/2) by an even/odd split, in place in x:

    * u_j = x_j + x_{N-j}, u_M = 2 x_M, left in x[:M+1]: lam_{2p} is the DCT-I
      of u, the next round's input;
    * v_j = x_j - x_{N-j}, left in x[N-j] for j < M: lam_{2p+1} = v_0 + 2 sum_j
      v_j cos(pi j (2p+1) / 2M) is M times the length-M inverse real FFT y of
      Z_k = (v_k - i v_{M-k}) e^{i pi k / 2M}, k = 0 .. M/2 (v_M = 0), read back
      as lam_{4r+1} = y_r, lam_{4r+3} = y_{M-1-r}.

    The rounds cost one real FFT of length N in all; x is overwritten.  The
    odd halves are transformed smallest first, so the FFT's scratch grows
    from call to call and, in a fresh process, glibc maps each block afresh
    and unmaps it when freed.  Largest first, the freed 16 MiB scratch of
    N = 2**22 raises glibc's mmap threshold, the smaller blocks after it
    stay on the heap, and a fresh ``sample --n 22`` peaked 16 MiB higher.
    One work buffer holds the twiddles e^{i pi k / N} from ``_twiddles`` (round
    s takes every 2**(s-1)-th), then Z and the butterflies' scratch.
    """
    n = len(x) - 1
    lam = np.empty(n + 1)
    work = np.empty(n // 2 + 2 if n > _SPLIT_MIN_POINTS else 0, dtype=complex)
    table, z_buf = work[: n // 4 + 1], work[n // 4 + 1 :]
    _twiddles(n, 0, table)
    nc = n
    while nc > _SPLIT_MIN_POINTS:
        m = nc // 2
        head, tail = x[:m], x[nc:m:-1]
        scratch = z_buf.view(float)[:m]
        np.subtract(head, tail, out=scratch)
        head += tail
        tail[:] = scratch
        x[m] *= 2.0
        nc = m
    row = np.empty(2 * nc)
    row[: nc + 1] = x[: nc + 1]
    row[nc + 1 :] = x[1:nc][::-1]
    stride = n // nc
    lam[::stride] = np.fft.rfft(row).real
    del row
    while nc < n:
        m, nc, stride = nc, 2 * nc, stride // 2
        z = z_buf[: m // 2 + 1]
        z.real[:] = x[nc : nc - m // 2 - 1 : -1]
        np.negative(x[m + 1 : m + m // 2 + 1], out=z.imag[1:])
        z.imag[0] = 0.0
        z *= table[:: n // nc]
        y = np.fft.irfft(z, n=m, norm="forward", out=x[m + 1 : nc + 1])
        lam[stride :: 4 * stride] = y[: m // 2]
        lam[3 * stride :: 4 * stride] = y[: m // 2 - 1 : -1]
    return lam


@lru_cache(maxsize=1)
def _circulant_sqrt_eigs(hurst: float, level: int) -> np.ndarray:
    """sqrt of eigenvalues 0 .. 2**n of the length-2**(n+1) embedded circulant.

    The embedding row is real and symmetric, so its spectrum is real and
    even: eigenvalue m - k equals eigenvalue k, and the half spectrum, the
    DCT-I of the 2**n + 1 covariances, holds all of them.  The cached array
    is read-only.

    One entry, at most 32 MiB (n = 22), is kept: a run samples one
    (H, level) at a time, the replicate engine every block at its top level.
    """
    lam = _even_row_spectrum(_covariances(hurst, level))
    lam_min = lam.min()
    if lam_min < 0.0:
        raise CirculantEmbeddingError(
            f"circulant eigenvalue {lam_min:.3e} below 0 for H={hurst}, n={level}"
        )
    sq = np.sqrt(lam, out=lam)
    sq.flags.writeable = False
    return sq


def _increments_from_normals(sq: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Synthesise stationary increments from a (rows, m) matrix of normals.

    Draw order for a path at level n (m = 2**(n+1) normals, M = m/2): z[0]
    feeds frequency 0, z[1] feeds frequency M, and the pair (z[2k], z[2k+1])
    feeds frequency k for k = 1 .. M - 1.  The spectrum is Hermitian, so the
    increments are the real inverse FFT x of length m of its half S:
    S_0 = w_0 z[0], S_M = w_M z[1] and S_k = w_k (z[2k] - i z[2k+1]), with
    w = sq sqrt(m), divided by sqrt(2) for 0 < k < M.  The conjugate keeps x
    equal to Re FFT(D) / sqrt(m), D the full drawn spectrum with
    D_k = sq_k (z[2k] + i z[2k+1]) / sqrt(2).

    x is one complex inverse FFT of length M.  The normals, read as M complex
    points c_k = z[2k] + i z[2k+1], are packed in place into W with
    ifft(W) = x_0 + i x_1, x_2 + i x_3, ..  With t_k = e^{i pi k/M},

        W_k = E + F,  E = (S_k + conj S_{M-k}) / 2,  F = i t_k (S_k - conj S_{M-k}) / 2,

    and t_{M-k} = -conj t_k gives W_{M-k} = conj(E - F): each pair (k, M - k)
    is read and written together, _CHUNK pairs at a time, W_0 =
    (S_0 + S_M) / 2 + i (S_0 - S_M) / 2 and W_{M/2} = conj S_{M/2}.  The
    inverse FFT is written into z itself; the rows returned are views into z.
    """
    c = z.view(complex)
    half = c.shape[1]
    m = 2 * half
    s_0 = c[:, 0].real * (sq[0] * np.sqrt(m))
    s_m = c[:, 0].imag * (sq[half] * np.sqrt(m))
    c[:, 0].real = 0.5 * (s_0 + s_m)
    c[:, 0].imag = 0.5 * (s_0 - s_m)
    c[:, half // 2] *= sq[half // 2] * (np.sqrt(m) / np.sqrt(2.0))
    # w_k / 2 for 0 < k < M
    scale = 0.5 * np.sqrt(m) / np.sqrt(2.0)
    # F of one chunk is the only block-sized array beside the normals: each
    # fresh block-sized temporary is a fresh mapping whose pages fault again
    scratch = np.empty((c.shape[0], min(_CHUNK, half // 2)), dtype=complex)
    twiddle = np.empty(scratch.shape[1], dtype=complex)
    for lo in range(1, half // 2, _CHUNK):
        hi = min(lo + _CHUNK, half // 2)
        low, high = c[:, lo:hi], c[:, half - lo : half - hi : -1]
        f = scratch[:, : hi - lo]
        # low = S_k / 2, high = conj S_{M-k} / 2
        np.conjugate(low, out=low)
        low *= sq[lo:hi] * scale
        high *= sq[half - lo : half - hi : -1] * scale
        np.subtract(low, high, out=f)
        low += high
        # i t_k = e^{i pi (k + M/2) / M}
        f *= _twiddles(half, lo + half // 2, twiddle[: hi - lo])
        np.subtract(low, f, out=high)
        low += f
        np.conjugate(high, out=high)
    np.fft.ifft(c, axis=1, out=c)
    return z[:, :half]


def values_from_increments(inc: np.ndarray) -> np.ndarray:
    """Path values from increments along the last axis: 0, then their running sum."""
    values = np.empty(inc.shape[:-1] + (inc.shape[-1] + 1,))
    values[..., 0] = 0.0
    np.cumsum(inc, axis=-1, out=values[..., 1:])
    return values


def sample_fbm_circulant(
    hurst: float, level: int, seed: int, stream_index: int = 0
) -> FbmPath:
    """Exact fBm sample at `level` via circulant embedding of the increments."""
    _check_h(hurst)
    inc = sample_increments_circulant(hurst, level, seed, stream_index, 1)[0]
    return FbmPath(hurst, level, values_from_increments(inc), seed, stream_index)


def sample_increments_circulant(
    hurst: float, level: int, seed: int, first_stream: int, count: int
) -> np.ndarray:
    """Increment rows for streams first_stream .. first_stream+count-1.

    Row i is bit-identical to the increments of
    ``sample_fbm_circulant(hurst, level, seed, first_stream + i)``.
    """
    check_level(level)
    check_int(count, "count", 1)
    sq = _circulant_sqrt_eigs(hurst, level)
    m = 2 ** (level + 1)
    z = np.empty((count, m))
    for i in range(count):
        stream(seed, first_stream + i).standard_normal(out=z[i])
    return _increments_from_normals(sq, z)


def sample_fbm_cholesky(
    hurst: float, level: int, seed: int, stream_index: int = 0
) -> FbmPath:
    """Exact fBm sample through a dense Cholesky factor of the increments.

    Same law as the circulant sampler (used as its oracle in tests); the
    O(2**(3n)) factorisation caps the level at 12.  The path consumes the
    first 2**n normals of the (seed, stream) Philox stream.
    """
    _check_h(hurst)
    check_level(level, CHOLESKY_MAX_LEVEL)
    chol = _cholesky_factor(hurst, level)
    z = stream(seed, stream_index).standard_normal(2**level)
    return FbmPath(hurst, level, values_from_increments(chol @ z), seed, stream_index)


@lru_cache(maxsize=1)
def _cholesky_factor(hurst: float, level: int) -> np.ndarray:
    """Read-only lower Cholesky factor of the level-n increment covariance;
    one entry is kept, as for the circulant eigenvalues (128 MiB at n = 12)."""
    n_inc = 2**level
    lag = np.abs(np.subtract.outer(np.arange(n_inc), np.arange(n_inc)))
    cov = increment_autocovariance(hurst, level, lag)
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - should not occur
        raise CirculantEmbeddingError(
            f"increment covariance not positive definite for H={hurst}, n={level}"
        ) from exc
    chol.flags.writeable = False
    return chol


def csv_rows(times: np.ndarray, values: np.ndarray) -> Iterator[str]:
    """`k,t,value` rows in full precision (repr of each double), as strings
    of up to 2**16 rows each."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    for start in range(0, len(values), _CSV_CHUNK_ROWS):
        stop = start + _CSV_CHUNK_ROWS
        yield "".join(
            f"{k},{t!r},{v!r}\n"
            for k, t, v in zip(
                range(start, stop), times[start:stop].tolist(), values[start:stop].tolist()
            )
        )


def write_csv(path: FbmPath, fh: IO[str]) -> None:
    """Write `k,t,B` rows in full precision."""
    fh.write("k,t,B\n")
    for chunk in csv_rows(path.times, path.values):
        fh.write(chunk)


def write_binary(path: FbmPath, fh: IO[bytes]) -> None:
    """Binary layout: magic 'FBM1', H float64, n int32, seed uint64, values."""
    fh.write(_BIN_MAGIC)
    fh.write(_BIN_HEADER.pack(path.hurst, path.level, path.seed))
    fh.write(memoryview(np.ascontiguousarray(path.values, dtype="<f8").view(np.uint8)))


def _read_exact(fh: IO[bytes], buf, what: str) -> None:
    """Fill the writable byte buffer `buf` from fh, or raise on a short read."""
    view = memoryview(buf)
    got = 0
    while got < len(view):
        n = fh.readinto(view[got:])
        if not n:
            raise DomainError(f"truncated FBM1 {what}: {got} of {len(view)} bytes")
        got += n


def read_binary(fh: IO[bytes]) -> FbmPath:
    magic = fh.read(4)
    if magic != _BIN_MAGIC:
        raise DomainError(f"bad magic {magic!r}, expected {_BIN_MAGIC!r}")
    header = bytearray(_BIN_HEADER.size)
    _read_exact(fh, header, "header")
    hurst, level, seed = _BIN_HEADER.unpack(header)
    check_level(level, name="header level")  # before the level sizes the read below
    values = np.empty(2**level + 1, dtype="<f8")
    _read_exact(fh, values.view(np.uint8), "values")
    if fh.read(1):
        raise DomainError("trailing bytes after the FBM1 values")
    return FbmPath(hurst, level, values, seed)
