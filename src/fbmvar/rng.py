"""Reproducible random-number streams.

Every stochastic routine in the package draws from a Philox-4x64
counter-based generator keyed by the pair ``(seed, stream)``.  Distinct
stream indices give statistically independent streams for the same master
seed, which is how experiments assign one stream per Monte Carlo
replicate before any parallel fan-out.  Gaussian variates are produced by
``numpy.random.Generator.standard_normal`` (ziggurat method); together
with the fixed draw order documented in each sampler this makes results
bit-reproducible across platforms and across worker counts.  Seeds and
stream indices are the two 64-bit words of the Philox key: ``check_key``
rejects any other value rather than reducing it modulo 2**64.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, integer_in

_KEY_LIMIT = 1 << 64


def check_key(value: int, name: str) -> int:
    """`value` if it is an integer in [0, 2**64), a word of the Philox key;
    DomainError otherwise, so that no seed or stream index aliases another."""
    if not integer_in(value, 0, _KEY_LIMIT - 1):
        raise DomainError(f"{name} must be an integer in [0, 2**64), got {value!r}")
    return value


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Return the generator for replicate `index` of master seed `seed`."""
    key = np.array([check_key(seed, "seed"), check_key(index, "stream index")],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
