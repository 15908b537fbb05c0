"""Exception types shared across the package, its one integer rule and its
one JSON writer (``json_text``), which every JSON output goes through."""

import json

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


def _plain(obj):
    # json.dumps hook for the numpy values json cannot encode itself
    # (np.float64 subclasses float and is encoded as one)
    return obj.tolist() if isinstance(obj, np.ndarray) else obj.item()


def json_text(payload) -> str:
    """Canonical JSON text: sorted keys, indent 2, each float its shortest repr.
    A number that is not finite has no JSON spelling and raises DomainError."""
    try:
        return json.dumps(payload, sort_keys=True, indent=2, default=_plain,
                          allow_nan=False) + "\n"
    except ValueError as exc:
        raise DomainError(f"an output value is not finite ({exc})") from None
