"""Exception types shared across the package, and its one integer rule."""

import numpy as np


class FbmvarError(Exception):
    """Base class for all library errors."""


class DomainError(FbmvarError, ValueError):
    """A parameter lies outside the mathematical domain of an operation."""


class RegimeError(FbmvarError, ValueError):
    """The (H, q) pair is not in the regime an operation requires."""


class SeriesDivergenceError(FbmvarError, ValueError):
    """A correlation-power series diverges for the requested parameters."""


class CirculantEmbeddingError(FbmvarError, RuntimeError):
    """The circulant embedding produced a negative eigenvalue."""


class SizeLimitError(DomainError):
    """A level lies outside the range an algorithm supports, or a run needs more
    memory than the machine has: a ceiling is part of an operation's domain."""


class GridAlignmentError(FbmvarError, ValueError):
    """Two dyadic grids that must coincide do not."""


class ConfigError(FbmvarError, ValueError):
    """An experiment configuration is malformed."""


def integer_in(value, low: int, high: int | None = None) -> bool:
    """The one integer rule, for every level, order, degree, count, radius and
    key: an int or a numpy integer, never a bool, in [low, high] (no ceiling
    when `high` is None)."""
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and low <= value and (high is None or value <= high))


def check_int(value, name: str, low: int, high: int | None = None, error=DomainError):
    """`value` if ``integer_in(value, low, high)``, else `error` in the one
    wording, which names the input and its range."""
    if not integer_in(value, low, high):
        span = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise error(f"{name} must be an integer {span}, got {value!r}")
    return value
