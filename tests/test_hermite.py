import math

import numpy as np
import pytest

from fbmvar import hermite
from fbmvar.errors import DomainError
from fbmvar.rng import stream
from oracles import hermite_expansion, nonzero_coefficients


def hermite_via_integer_coefficients(q, x):
    """Oracle: exact integer coefficients of He_q via He_{n+1} = x He_n - n He_{n-1},
    then divide by q! (independent of the evaluator's normalised recurrence)."""
    prev, cur = [1], [0, 1]  # He_0, He_1 coefficient lists
    if q == 0:
        cur = prev
    for n in range(1, q):
        shifted = [0] + cur
        nxt = [a - n * b for a, b in zip(shifted, prev + [0] * (len(shifted) - len(prev)))]
        prev, cur = cur, nxt
    acc = 0.0
    for k, c in enumerate(cur[: q + 1]):
        acc += c * x**k
    return acc / math.factorial(q)


def test_low_degree_values():
    assert hermite.hermite_eval(0, 3.7) == 1.0
    assert hermite.hermite_eval(1, -2.5) == -2.5
    assert hermite.hermite_eval(2, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert hermite.hermite_eval(3, 2.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
    for q in (-1, 2.5, True):
        with pytest.raises(DomainError, match=rf"^degree must be an integer >= 0, got {q}$"):
            hermite.hermite_eval(q, np.ones(3))


@pytest.mark.parametrize("q", range(0, 11))
def test_matches_coefficient_oracle(q):
    # the upward recurrence must stay stable over the documented range
    # q <= 10, |x| <= 40
    for x in (-40.0, -3.2, -1.0, 0.0, 0.7, 2.5, 4.0, 40.0):
        assert hermite.hermite_eval(q, x) == pytest.approx(
            hermite_via_integer_coefficients(q, x), rel=1e-11, abs=1e-12
        )


def test_vectorised_evaluation():
    x = np.linspace(-2, 2, 7)
    out = hermite.hermite_eval(2, x)
    assert out.shape == x.shape
    assert np.allclose(out, (x**2 - 1) / 2)


def test_gaussian_moments():
    assert hermite.gaussian_moment(1) == 0.0
    assert hermite.gaussian_moment(2) == 1.0
    assert hermite.gaussian_moment(6) == 15.0
    for q in (-1, 2.5):  # 2.5 returned 1.5
        with pytest.raises(DomainError, match=rf"^moment order must be an integer >= 0, got {q}$"):
            hermite.gaussian_moment(q)
    # quadrature oracle
    nodes, weights = np.polynomial.hermite_e.hermegauss(60)
    w = weights / math.sqrt(2 * math.pi)
    for q in range(0, 11):
        assert hermite.gaussian_moment(q) == pytest.approx(
            float(np.sum(w * nodes**q)), abs=1e-8
        )


def test_monomial_table():
    table = {m: nonzero_coefficients(hermite.monomial_in_hermite(m)) for m in (2, 3, 4, 5)}
    assert table[2] == {2: 2, 0: 1}
    assert table[3] == {3: 6, 1: 3}
    assert table[4] == {4: 24, 2: 12, 0: 3}
    assert table[5] == {5: 120, 3: 60, 1: 15}
    for m in (0, 2.5):
        with pytest.raises(DomainError,
                           match=rf"^monomial degree must be an integer >= 1, got {m}$"):
            hermite.monomial_in_hermite(m)


def test_monomial_structure():
    for m in range(1, 11):
        coeffs = hermite.monomial_in_hermite(m)
        assert len(coeffs) == m + 1
        assert all(type(c) is int for c in coeffs)  # exact, never a float
        assert coeffs[m] == math.factorial(m)  # leading coefficient
        assert coeffs[0] == hermite.gaussian_moment(m)  # centering
        for p, c in enumerate(coeffs):
            if (m - p) % 2 == 1:
                assert c == 0


def test_monomial_reconstruction():
    rng = stream(2718, 0)
    xs = rng.uniform(-3.0, 3.0, 100)
    for m in range(1, 7):
        rebuilt = hermite_expansion(hermite.monomial_in_hermite(m), xs)
        assert np.allclose(rebuilt, xs**m, rtol=1e-10, atol=1e-12)


def test_orthogonality_quadrature():
    # E[H_p(X) H_q(X)] = 1{p=q}/q! exactly (c = 1), by Gauss-Hermite quadrature
    nodes, weights = np.polynomial.hermite_e.hermegauss(40)
    w = weights / math.sqrt(2 * math.pi)
    for p in range(0, 7):
        hp = hermite.hermite_eval(p, nodes)
        for q in range(0, 7):
            hq = hermite.hermite_eval(q, nodes)
            val = float(np.sum(w * hp * hq))
            target = 1.0 / math.factorial(q) if p == q else 0.0
            assert val == pytest.approx(target, abs=1e-10)


@pytest.mark.parametrize("p,q,c", [(2, 2, 0.5), (3, 2, 0.5), (3, 3, -0.3)])
def test_orthogonality_monte_carlo(p, q, c):
    rng = stream(314, 0)
    z1 = rng.standard_normal(200_000)
    z2 = rng.standard_normal(200_000)
    x = z1
    y = c * z1 + math.sqrt(1 - c * c) * z2
    prod = hermite.hermite_eval(p, x) * hermite.hermite_eval(q, y)
    target = c**q / math.factorial(q) if p == q else 0.0
    se = prod.std() / math.sqrt(len(prod))
    assert abs(prod.mean() - target) < 3 * se


def textbook_recurrence(q, x):
    """H_q by (k+1) H_{k+1} = x H_k - H_{k-1}, one expression per step."""
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if q == 0:
        return prev
    cur = x.copy()
    for k in range(1, q):
        prev, cur = cur, (x * cur - prev) / (k + 1)
    return cur


EVAL_INPUTS = {
    "python float": lambda: -1.3716,
    "0-d array": lambda: np.array(2.0625),
    "1-d array": lambda: 2.0 * stream(17, 0).standard_normal(41),
    "strided 2-d view": lambda: (2.0 * stream(18, 0).standard_normal((6, 20)))[::2, 1::3],
}


@pytest.mark.parametrize("kind", EVAL_INPUTS)
@pytest.mark.parametrize("q", range(9))
def test_eval_matches_the_textbook_recurrence_and_leaves_x_alone(q, kind):
    x = EVAL_INPUTS[kind]()
    before = np.array(x, copy=True)
    got = hermite.hermite_eval(q, x)
    want = textbook_recurrence(q, x)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got, dtype=float).tobytes() == np.asarray(want).tobytes()
    assert np.array(x).tobytes() == before.tobytes()
    if isinstance(x, np.ndarray):
        assert not np.shares_memory(got, x)
    else:
        assert type(got) is float
