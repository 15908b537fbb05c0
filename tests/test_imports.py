"""The package runs on numpy and the standard library alone."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
import numpy
before = set(sys.modules)
import fbmvar
import fbmvar.cli
print(" ".join(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def test_import_loads_no_module_beyond_numpy_and_the_standard_library():
    # a fresh interpreter, so no test dependency (scipy, hypothesis) is loaded yet
    env = dict(os.environ, PYTHONPATH=str(SRC))
    loaded = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "fbmvar" in loaded
    assert [m for m in loaded if m != "fbmvar" and m not in sys.stdlib_module_names] == []
