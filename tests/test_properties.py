"""Property tests of the input boundary: FBM1 bytes, report JSON and config
text.  A CLI request ends in exit 0, or in exit 1 or 2 with an error line,
and never in a traceback.  Also ``constants.exact_sum`` against
``math.fsum``, bit for bit."""

import contextlib
import io
import json
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fbmvar import cli, experiments, fbm
from fbmvar.constants import exact_sum
from fbmvar.errors import DomainError
from fbmvar.variations import finite_fsum
from fbmvar.experiments import ExperimentReport

_HEADER = struct.Struct("<diQ")


def _valid_fbm1() -> bytes:
    fh = io.BytesIO()
    fbm.write_binary(fbm.sample_fbm_circulant(0.7, 3, 1), fh)
    return fh.getvalue()


def _edited(data: bytes, cut: int, tail: bytes, flips: list) -> bytes:
    out = bytearray(data[:cut] + tail)
    for pos, byte in flips:
        if out:
            out[pos % len(out)] = byte
    return bytes(out)


fbm1_bytes = st.one_of(
    st.binary(max_size=64),
    st.builds(
        lambda hurst, level, seed, body: b"FBM1" + _HEADER.pack(hurst, level, seed) + body,
        st.floats(),
        st.integers(-(2**31), 2**31 - 1),
        st.integers(0, 2**64 - 1),
        st.binary(max_size=200),
    ),
    st.builds(
        _edited,
        st.just(_valid_fbm1()),
        st.integers(0, 120),
        st.binary(max_size=16),
        st.lists(st.tuples(st.integers(0, 200), st.integers(0, 255)), max_size=3),
    ),
)


@settings(max_examples=300, deadline=None)
@given(data=fbm1_bytes)
def test_read_binary_returns_a_path_or_raises_domain_error(data):
    try:
        path = fbm.read_binary(io.BytesIO(data))
    except DomainError:
        return
    assert len(path.values) == 2**path.level + 1 and path.values[0] == 0.0


def _run(argv) -> tuple[int, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stderr.getvalue()


def _assert_clean_exit(code: int, err: str) -> None:
    assert code in (0, 1, 2)
    if code:
        assert "error:" in err


# lone surrogates and separators are JSON text too
_text = st.text(st.sampled_from(["a", ",", "=", "#", " ", "\x00", "\u00e9", "\ud800",
                                 "\udfff"]) | st.characters(), max_size=8)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _text,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_text, children, max_size=4),
    max_leaves=20,
)
report_like = st.fixed_dictionaries(
    {"config": st.dictionaries(st.sampled_from(["hurst", "order", "weight", "levels"]),
                               json_values)},
    optional={"experiment": json_values, "verdict": json_values},
)


@settings(max_examples=100, deadline=None)
@given(reports=st.lists(json_values | report_like, min_size=1, max_size=2),
       fmt=st.sampled_from(["table", "json"]))
def test_report_merge_of_any_json_exits_cleanly(reports, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        names = []
        for i, rep in enumerate(reports):
            names.append(str(Path(tmp) / f"r{i}.json"))
            Path(names[-1]).write_text(json.dumps(rep))
        out = str(Path(tmp) / "merged")
        _assert_clean_exit(*_run(["report", "--merge", *names, "--format", fmt,
                                  "--out", out]))


_KEYS = ("id", "H", "hurst", "q", "order", "weight", "levels", "replicates", "seed",
         "master_seed", "fine-offset", "threads", "final_ratio")
_config_line = st.text(max_size=24) | st.builds(
    "{}{}{}".format,
    st.sampled_from(_KEYS),
    st.sampled_from(["=", " = ", "=="]),
    st.text(max_size=10)
    | st.integers().map(str)
    | st.floats().map(repr)
    # p/q ratios, exact critical points among them; huge or zero q included
    | st.builds("{}/{}".format, st.integers(), st.integers())
    | st.builds("{}/{}".format, st.integers(-1, 7), st.sampled_from([4, 6, 12, 0]))
    | st.lists(st.integers(-2, 30), min_size=1, max_size=4).map(
        lambda xs: ",".join(map(str, xs))),
)
config_bytes = st.binary(max_size=40) | st.builds(
    lambda bom, lines: bom + "\n".join(lines).encode(),
    st.sampled_from([b"", b"\xef\xbb\xbf"]),
    st.lists(_config_line, max_size=8),
)


def _no_run(cfg):
    return ExperimentReport(cfg.canonical_dict(), [], {}, [], "PASS", wall_clock_seconds=0.0)


@settings(max_examples=200, deadline=None)
@given(data=config_bytes)
def test_experiment_config_of_any_text_exits_cleanly(data):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "run_experiment", _no_run)
        cfg = Path(tmp) / "exp.cfg"
        cfg.write_bytes(data)
        _assert_clean_exit(*_run(["experiment", "--id", "clt", "--config", str(cfg),
                                  "--out", str(Path(tmp) / "rep.json")]))


def _sum_outcome(fn, x):
    """The bytes of fn(x), or the overflow it raises."""
    try:
        return np.float64(fn(x)).tobytes()
    except OverflowError:
        return "overflow"


def _float_array(seed, size, lo, span, zero_share, cancel):
    """`size` doubles (2 size with `cancel`) with binary exponents in
    [lo, lo + span], subnormals from lo = -1074 on, a share of +-0.0 and,
    with `cancel`, the negated terms appended in another order plus a tiny
    remainder."""
    rng = np.random.default_rng(seed)
    exps = rng.integers(lo, min(lo + span, 1020) + 1, size).astype(float)
    x = rng.standard_normal(size) * np.exp2(exps)
    x[rng.random(size) < zero_share] = 0.0
    x[rng.random(size) < zero_share / 2] = -0.0
    if cancel:
        x = np.concatenate([x, -rng.permutation(x)])
        if x.size:
            x[rng.integers(x.size)] += np.exp2(float(lo))
    return x


float_arrays = st.builds(
    _float_array,
    st.integers(0, 2**32 - 1),
    st.integers(0, 2048),
    st.integers(-1074, 1020),
    st.sampled_from([0, 1, 20, 60, 200, 2100]),
    st.sampled_from([0.0, 0.1, 1.0]),
    st.booleans(),
) | st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=64).map(
    lambda xs: np.array(xs, dtype=float))


@settings(max_examples=300, deadline=None)
@given(x=float_arrays)
# ties that only a correctly rounded last step of the partial sums breaks
@example(x=np.array([1.0, 2.0**-53, 2.0**-106]))
@example(x=np.array([2.0**-1000, 2.0**-1053, 5e-324, 1e300, -1e300]))
@example(x=np.array([1e16, 1.0, -1e16, -(2.0**-60), 2.0**-53]))
def test_exact_sum_is_math_fsum_bit_for_bit(x):
    assert x.size <= 4096
    assert _sum_outcome(exact_sum, x) == _sum_outcome(math.fsum, x)


def test_finite_fsum_still_reports_an_overflowing_partial_sum():
    with pytest.raises(DomainError, match="overflows"):
        finite_fsum([1e308, 1e308, -1e308], "demo")
