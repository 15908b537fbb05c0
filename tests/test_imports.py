"""The package runs on numpy and the standard library alone, and its tests
import the sources that PYTHONPATH names."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_pytest_imports_the_sources_that_pythonpath_names(tmp_path):
    # pytest adds no path of its own, so another tree's sources named by
    # PYTHONPATH are the ones a test run imports
    other = tmp_path / "src" / "fbmvar"
    other.mkdir(parents=True)
    (other / "__init__.py").write_text("")
    probe = tmp_path / "test_probe.py"
    probe.write_text(
        "import fbmvar\n\n\ndef test_probe():\n"
        f"    assert fbmvar.__file__ == {str(other / '__init__.py')!r}\n"
    )
    root = SRC.parent
    env = dict(os.environ, PYTHONPATH=str(other.parent))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(root / "pyproject.toml"), "--rootdir", str(root), str(probe)],
        env=env, cwd=root, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stdout


REQUEST = """
import sys
from fbmvar.cli import main
assert main(sys.argv[1:]) == 0
print(" ".join(sorted(sys.modules)))
"""
# what a constants, sample or variation request never runs
ENGINE = {"fbmvar.experiments", "fbmvar.stats", "concurrent.futures"}


@pytest.mark.parametrize("argv, runs, absent", [
    (("constants", "--H", "0.6", "--q", "2"), "fbmvar.constants", ENGINE),
    (("sample", "--H", "0.6", "--n", "6", "--format", "bin", "--out", "{dir}/p.fbm"),
     "fbmvar.fbm",
     ENGINE | {"fbmvar.constants", "fbmvar.variations", "fbmvar.hermite_process"}),
    (("variation", "--H", "0.6", "--n", "6", "--q", "2"), "fbmvar.variations", ENGINE),
    (("experiment", "--id", "clt", "--H", "0.6", "--q", "2", "--levels", "6",
      "--replicates", "100", "--threads", "1", "--out", "{dir}/r.json"),
     "fbmvar.experiments", {"concurrent.futures"}),
], ids=["constants", "sample-bin", "variation", "experiment-one-thread"])
def test_a_request_loads_only_the_modules_it_runs(tmp_path, argv, runs, absent):
    # a fresh interpreter per request, as the console script starts one
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [a.replace("{dir}", str(tmp_path)) for a in argv]
    loaded = set(subprocess.run(
        [sys.executable, "-c", REQUEST, *argv], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    ).stdout.split())
    assert runs in loaded
    assert loaded & absent == set()
