"""Hermite polynomial algebra, Gaussian moments, monomial expansions.

Normalisation convention (used everywhere in this package): H_q is the
probabilists' Hermite polynomial divided by q!, i.e.

    H_q(x) = ((-1)**q / q!) * exp(x**2/2) * d^q/dx^q exp(-x**2/2),

so H_0 = 1, H_1(x) = x, H_2(x) = (x**2 - 1)/2, H_3(x) = (x**3 - 3x)/6 and

    (q+1) H_{q+1}(x) = x H_q(x) - H_{q-1}(x).

Under this convention, for jointly standard Gaussian (X, Y) with
correlation c, E[H_p(X) H_q(Y)] = 0 for p != q and c**q / q! for p == q.
Evaluation goes through the recurrence (stable upward for the degrees and
arguments used here); no coefficient expansion is performed at runtime.
Each step of the recurrence allocates one array, the next H_k, and never
writes into its argument.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import check_int


def hermite_eval(q: int, x):
    """Evaluate H_q (probabilists' Hermite / q!) at scalar or array x."""
    check_int(q, "degree", 0)
    scalar = np.isscalar(x)
    x = np.asarray(x, dtype=float)
    if q == 0:
        return 1.0 if scalar else np.ones_like(x)
    if q == 1:
        return float(x) if scalar else x.copy()
    # (x * cur - prev) / (k + 1), one operation at a time into the one new
    # array of the step: the same bits, and x, prev and cur are only read
    prev, cur = 1.0, x
    for k in range(1, q):
        nxt = x * cur
        nxt -= prev
        nxt /= k + 1
        prev, cur = cur, nxt
    return float(cur) if scalar else cur


def gaussian_moment(q: int) -> float:
    """q-th moment of a standard Gaussian: (q-1)!! for even q, 0 for odd."""
    check_int(q, "moment order", 0)
    if q % 2 == 1:
        return 0.0
    return float(_double_factorial_odd(q - 1))


def _double_factorial_odd(k: int) -> int:
    # (q-1)!! for even q, as an exact integer; (-1)!! == 1
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def monomial_in_hermite(m: int) -> tuple[int, ...]:
    """Expand x**m in the basis {H_0, ..., H_m}: the tuple (c_0, ..., c_m)
    with x**m = sum_p c_p H_p(x).

    The p-th coefficient is p! * C(m, p) * mu_{m-p}, an exact Python int for
    every degree (mu is a double factorial); it vanishes when p and m have
    different parity, the leading coefficient is m!, and the H_0 coefficient
    equals mu_m (so x**m - mu_m has no constant part).
    """
    check_int(m, "monomial degree", 1)
    return tuple(
        math.factorial(p) * math.comb(m, p) * _double_factorial_odd(m - p - 1)
        if (m - p) % 2 == 0 else 0
        for p in range(m + 1)
    )
