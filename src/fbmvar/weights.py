"""Weight functions with exact derivatives of every order.

The experiments only admit weights whose derivatives are available in
closed form (numerical differentiation would contaminate the limit
targets, which involve f'', f^(q), ...).  Five families are provided,
selected by the grammar used on the command line:

    one            constant 1 (also spelt poly:1, cos:0 or exp:0)
    poly:c0,c1,... polynomial c0 + c1 x + ...
    cos:a          cos(a x)
    sin:a          sin(a x)
    exp:a          exp(a x), |a| <= 1

Each family also knows its antiderivative vanishing at 0 (used for
closed-form targets of the form integral of f from 0 to B_1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class WeightFunction:
    """Base weight; subclasses implement derivative() and antiderivative()."""

    def __call__(self, x):
        return self.derivative(0, x)

    def derivative(self, order: int, x):
        raise NotImplementedError

    def antiderivative(self, x):
        raise NotImplementedError


@dataclass(frozen=True)
class Polynomial(WeightFunction):
    coefficients: tuple[float, ...]

    def derivative(self, order: int, x):
        coeffs = np.asarray(self.coefficients, dtype=float)
        for _ in range(order):
            coeffs = coeffs[1:] * np.arange(1, len(coeffs))
            if len(coeffs) == 0:
                coeffs = np.zeros(1)
        return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), coeffs)

    def antiderivative(self, x):
        coeffs = np.concatenate(
            ([0.0], np.asarray(self.coefficients, dtype=float)
             / np.arange(1, len(self.coefficients) + 1))
        )
        return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), coeffs)


@dataclass(frozen=True)
class Cosine(WeightFunction):
    frequency: float = 1.0

    def derivative(self, order: int, x):
        a = self.frequency
        ax = a * np.asarray(x, dtype=float)
        if order == 0:
            # cos is even, so the phase + 0.0 (which only turns -0.0 into
            # +0.0) and the factor 1.0 leave every bit as it is; an array
            # a * x is a new temporary, which cos overwrites
            return np.cos(ax, out=ax) if ax.ndim else np.cos(ax)
        return a**order * np.cos(ax + order * math.pi / 2)

    def antiderivative(self, x):
        a = self.frequency
        if a == 0.0:
            return np.asarray(x, dtype=float)
        return np.sin(a * np.asarray(x, dtype=float)) / a


@dataclass(frozen=True)
class Sine(WeightFunction):
    frequency: float = 1.0

    def derivative(self, order: int, x):
        a = self.frequency
        return a**order * np.sin(a * np.asarray(x, dtype=float) + order * math.pi / 2)

    def antiderivative(self, x):
        a = self.frequency
        if a == 0.0:
            return np.zeros_like(np.asarray(x, dtype=float))
        return (1.0 - np.cos(a * np.asarray(x, dtype=float))) / a


@dataclass(frozen=True)
class Exponential(WeightFunction):
    rate: float = 1.0

    def __post_init__(self) -> None:
        if not abs(self.rate) <= 1.0:
            raise DomainError(f"exp weight requires |a| <= 1, got {self.rate}")

    def derivative(self, order: int, x):
        a = self.rate
        values = np.exp(a * np.asarray(x, dtype=float))
        return values if order == 0 else a**order * values

    def antiderivative(self, x):
        a = self.rate
        if a == 0.0:
            return np.asarray(x, dtype=float)
        return (np.exp(a * np.asarray(x, dtype=float)) - 1.0) / a


def _parameter(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"parameter {text.strip()!r} is not finite")
    return value


# the one weight that is identically zero, and the one that is identically
# 1, which weights nothing: the f = 1 fast paths compare a weight with ONE
ZERO = Polynomial((0.0,))
ONE = Polynomial((1.0,))


def parse_weight(spec: str) -> WeightFunction:
    """Parse the CLI weight grammar: one | poly:c0,c1,... | cos:a | sin:a | exp:a.

    Every spelling of f = 1 (one, poly:1,0,..., cos:0, exp:0) gives
    ``ONE``, so a caller decides f = 1 by ``f == ONE`` alone; every
    spelling of f = 0 (poly:0,0,..., sin:0) gives ``ZERO``."""
    spec = spec.strip()
    if spec == "one":
        return ONE
    if ":" not in spec:
        raise DomainError(f"cannot parse weight spec {spec!r}")
    kind, _, args = spec.partition(":")
    try:
        if kind == "poly":
            coefficients = tuple(_parameter(c) for c in args.split(","))
            if coefficients[0] == 1.0 and not any(coefficients[1:]):
                return ONE
            return Polynomial(coefficients) if any(coefficients) else ZERO
        if kind in ("cos", "exp") and _parameter(args) == 0.0:
            return ONE
        if kind == "sin" and _parameter(args) == 0.0:
            return ZERO
        if kind == "cos":
            return Cosine(_parameter(args))
        if kind == "sin":
            return Sine(_parameter(args))
        if kind == "exp":
            return Exponential(_parameter(args))
    except ValueError as exc:
        raise DomainError(f"cannot parse weight spec {spec!r}: {exc}") from exc
    raise DomainError(f"unknown weight kind {kind!r}")
