"""Hermite process simulation and pathwise Young-type integrals.

The order-q Hermite process is realised through its discrete
approximation from a concrete fine fBm path at level m:

    Z_m(t) = 2^{m(q(1-H)-1)} sum_{j <= 2^m t} H_q(2^{mH} dB_{j2^-m}),

which converges in L^2 to Z_t as m grows (H > 1 - 1/(2q)).  Working from
a path (rather than the abstract chaos kernel) couples Z to B on the same
probability space, which is what the L^2 verification experiments need.
At t = 1 the construction is, by definition, the renormalised unweighted
Hermite variation of the path.

On the output grid of level n, Z is summed by interval: each of the 2^n
intervals adds its 2^(m-n) terms in one pairwise sum, and Z at the grid
points is the running sum of those interval sums, so no running sum of
length 2^m is built.  The rounding error of Z_m(t) is about
(m - n + 2^n) u sum |H_q| times the prefactor (u the unit roundoff),
against (2^m - 1) u sum |H_q| for one running sum over all 2^m terms.
At n = m the two orders coincide bit for bit.

``simulate_hermite`` returns Z's values on that grid, a plain array whose
times are ``fbm.grid_times(n)``.  Integrals of the form int f(B) dZ are
left-endpoint Riemann-Young sums of those values on an aligned coarse grid.
"""

from __future__ import annotations

import numpy as np

from .constants import RegimeCase, require_regime
from .errors import DomainError
from .fbm import FbmPath, check_level
from .variations import _weighted, finite_fsum, left_weights, scaled_hermite, weighted_rows
from .weights import WeightFunction


def hermite_partial_sums(
    terms: np.ndarray, hurst: float, fine_level: int, q: int, out_level: int
) -> np.ndarray:
    """Z values on the coarse grid along the last axis of `terms`: the
    H_q(2^{mH} dB) of a path at level m = fine_level, as
    ``variations.scaled_hermite`` forms them, not its increments.

    Each output interval's 2^(m-n) terms are summed by one reshape
    reduction, and Z is the running sum of the interval sums.
    """
    check_level(out_level, check_level(fine_level, name="fine_level"), "out_level")
    if terms.shape[-1] != 2**fine_level:
        raise DomainError(
            f"grid mismatch: {terms.shape[-1]} H_q terms per path vs "
            f"2^{fine_level} increments at fine level {fine_level}"
        )
    prefactor = 2.0 ** (fine_level * (q * (1.0 - hurst) - 1.0))
    stride = 2 ** (fine_level - out_level)
    out = np.empty(terms.shape[:-1] + (2**out_level + 1,))
    out[..., 0] = 0.0
    sums = out[..., 1:]
    terms.reshape(terms.shape[:-1] + (2**out_level, stride)).sum(axis=-1, out=sums)
    np.cumsum(out, axis=-1, out=out)
    sums *= prefactor
    return out


def _check_request(hurst: float, q: int, level: int, out_level: int) -> None:
    """Raise unless Z^(q) can be built from a level-`level` path of Hurst
    index `hurst` on the grid of `out_level`; needs no path."""
    require_regime(hurst, q, RegimeCase.NONCENTRAL, "the Hermite process")
    check_level(level)
    check_level(out_level, level, "out_level")


def simulate_hermite(path: FbmPath, q: int, out_level: int) -> np.ndarray:
    """Approximate Z^(q) from a fine fBm path, sampled on a coarser grid: the
    2^out_level + 1 values of Z at t_j = j 2^-out_level, the first 0.

    Requires the non-central regime H > 1 - 1/(2q) and out_level <= the
    path's level.  Deterministic given the path: same seed, same Z.
    """
    _check_request(path.hurst, q, path.level, out_level)
    terms = scaled_hermite(path.increments, path.hurst, path.level, q)
    return hermite_partial_sums(terms, path.hurst, path.level, q, out_level)


def young_integral(f: WeightFunction, coarse_values: np.ndarray, z: np.ndarray) -> float:
    """Left-endpoint Riemann-Young sum sum_j f(B_(j-1)h) (Z_jh - Z_(j-1)h) of
    the values `z` of Z on the grid of `coarse_values`, exactly accumulated;
    DomainError when it overflows a double."""
    coarse_values = np.asarray(coarse_values, dtype=float)
    if coarse_values.shape != z.shape:
        raise DomainError(
            f"grid mismatch: {len(coarse_values)} path points vs {len(z)} Z points"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # finite_fsum reports it
        terms = _weighted(np.diff(z), left_weights(f, coarse_values))
    return finite_fsum(terms, "Young integral")


def young_integral_rows(left, z_values: np.ndarray) -> np.ndarray:
    """Batched Young sums for a (replicates, grid) matrix of Z values; `left`
    holds f at the left endpoint of each Z interval, or is None for f = 1."""
    return weighted_rows(np.diff(z_values, axis=-1), left)
