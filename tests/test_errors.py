"""Every refused input raises DomainError: a class stays apart from it only if
library code catches it apart or the failure is not the input's fault."""

import inspect

import numpy as np
import pytest

from fbmvar import errors, fbm, variations
from fbmvar.constants import RegimeCase, require_regime
from fbmvar.errors import DomainError
from fbmvar.experiments import ExperimentConfig


def test_one_class_for_every_refused_input():
    classes = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, BaseException)}
    assert classes == {"FbmvarError", "DomainError", "SeriesDivergenceError",
                       "CirculantEmbeddingError"}
    for check in (errors.check_int, fbm.check_level):
        assert "error" not in inspect.signature(check).parameters
    # a configuration, a level ceiling, a regime window and a grid
    refusals = (
        (lambda: ExperimentConfig("clt", 0.6, 2, replicates=99),
         "replicates must be an integer >= 100, got 99"),
        (lambda: fbm.check_level(25), "level must be an integer in [1, 24], got 25"),
        (lambda: require_regime(0.75, 2, RegimeCase.CLT, "clt"),
         "clt needs 1/(2q) = 0.25 < H < 1 - 1/(2q) = 0.75, got H=0.75, q=2"),
        (lambda: variations._weighted(np.ones(4), np.ones(3)),
         "grid mismatch: weight (3,) vs increments (4,)"),
    )
    for refuse, message in refusals:
        with pytest.raises(DomainError) as caught:
            refuse()
        assert type(caught.value) is DomainError
        assert str(caught.value) == message
