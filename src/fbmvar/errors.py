"""Exception types shared across the package, its one integer rule and its
one JSON writer (``json_text``), which every JSON output goes through.  Every
refused input raises DomainError; a class stays apart from it only if library
code catches it apart or the failure is not the input's fault."""

import json

import numpy as np


class FbmvarError(Exception):
    """Base class for all library errors."""


class DomainError(FbmvarError, ValueError):
    """A refused input, outside an operation's domain, (H, q) regime, size or
    memory ceiling, or grid: the one class for every input's fault."""


class SeriesDivergenceError(FbmvarError, ValueError):
    """A correlation-power series diverges for the requested parameters."""


class CirculantEmbeddingError(FbmvarError, RuntimeError):
    """The circulant embedding produced a negative eigenvalue."""


def integer_in(value, low: int, high: int | None = None) -> bool:
    """The one integer rule, for every level, order, degree, count, radius and
    key: an int or a numpy integer, never a bool, in [low, high] (no ceiling
    when `high` is None)."""
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and low <= value and (high is None or value <= high))


def check_int(value, name: str, low: int, high: int | None = None):
    """`value` if ``integer_in(value, low, high)``, else DomainError in the one
    wording, which names the input and its range."""
    if not integer_in(value, low, high):
        span = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise DomainError(f"{name} must be an integer {span}, got {value!r}")
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
