"""The three workloads, their inputs (all drawn from the workload seed) and the
output check of every op.

An op is one ``fbmvar.cli.main`` call (plus, for binary samples, reading the
file back with ``fbm.read_binary``).  A pass is one run through a workload's
op list; the inputs change from pass to pass but the shape of the work does
not, so passes cost the same for every seed.

Checks:

* deterministic outputs (constants, regimes, sigma^2 in a report) match the
  values recorded in ``reference.py`` to 1e-9 relative;
* exact identities: the FBM1 file parsed independently equals what
  ``read_binary`` returns, bit for bit, and the CSV export equals an
  in-process sample of the same path, bit for bit;
* ``hermite-process`` Z(1) equals the renormalised ``variation`` with f = 1
  of the same path up to the rounding bound of the two summation orders
  (a running cumsum against ``math.fsum``), which is far below the size of
  any single term;
* stochastic statistics stay within a z-bound chosen so that a correct
  program fails on less than one seed in 10^6:
  - Z_CHAOS2 = 35 for single-path sums in the second Wiener chaos, where
    hypercontractivity gives P(|X| >= t sd) <= exp(-1 - t/e) < 1e-6;
  - Z_MEAN = 8 for means over >= 128 replicates; the Cornish-Fisher
    1e-6 quantile of the noncentral mean (skew 3.3, excess kurtosis 24 per
    replicate) is 6.3 standard errors.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import struct
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from fbmvar import cli, fbm

from . import reference as ref

Z_CHAOS2 = 35.0
Z_MEAN = 8.0

CLT_REPORTS, CLT_REPLICATES, CLT_LEVEL = 4, 256, 14
NC_REPORTS, NC_REPLICATES, NC_LEVELS, NC_OFFSET = 2, 128, (6, 7, 8, 9, 10), 6
SAMPLE_LEVELS = (20, 21, 22)
VARIATION_LEVEL, CSV_LEVEL, HP_OUT_LEVEL = 20, 16, 10
# every circulant eigenvalue stays positive for these H up to n = 22 (the
# defect needs H near 0.9); the Hermite-process pair needs H > 3/4.
SAMPLE_H, NONCENTRAL_H = (0.3, 0.7), (0.76, 0.84)
DEFECT_PROBE = ("sample", "--H", "0.9", "--n", "22")


class CheckError(Exception):
    """An op's output failed its check."""


@dataclass
class Op:
    key: str  # position in the pass: latencies are grouped by it
    argv: list[str]
    check: Callable[["Result"], None]
    increments: int = 0  # fBm increments the op samples, from its config
    readback: Path | None = None  # FBM1 file read back inside the op
    cold: bool = False  # starts with an empty eigenvalue cache, as a fresh process would


@dataclass
class Result:
    rc: int | None
    out: str
    err: str
    latency: float
    path: object = None  # FbmPath read back from an FBM1 file
    error: BaseException | None = None


def clear_eigen_cache() -> None:
    """Empty the circulant-eigenvalue cache, if this version of fbm has one."""
    clear = getattr(getattr(fbm, "_circulant_sqrt_eigs", None), "cache_clear", None)
    if clear is not None:
        clear()


def _read_fbm1(file: Path):
    """(FbmPath, None) or (None, the exception read_binary raised)."""
    try:
        with open(file, "rb") as fh:
            return fbm.read_binary(fh), None
    except Exception as exc:  # a read that raises fails the op
        return None, exc


def run_op(op: Op, tracer=None) -> Result:
    """Run one op in-process, timing the CLI call and the read-back."""
    out, err = io.StringIO(), io.StringIO()
    rc = path = error = None
    if tracer is not None:
        tracer.begin_op()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(op.argv)
        except Exception as exc:  # an op that raises counts as failed
            error = exc
        if rc == 0 and op.readback is not None:
            path, error = _read_fbm1(op.readback)
    latency = perf_counter() - t0
    if tracer is not None:
        tracer.end_op(latency)
    return Result(rc, out.getvalue(), err.getvalue(), latency, path, error)


def verify(op: Op, res: Result) -> str | None:
    """None if the op succeeded, else why it failed."""
    if res.error is not None:
        return f"{op.key}: raised {res.error!r}"
    if res.rc != 0:
        return f"{op.key}: exit {res.rc}: {res.err.strip()[-200:]}"
    try:
        op.check(res)
    except (CheckError, KeyError, TypeError, ValueError, OSError) as exc:
        return f"{op.key}: {type(exc).__name__}: {exc}"
    return None


# -- check helpers -----------------------------------------------------------

def _require(cond, msg):
    if not cond:
        raise CheckError(msg)


def _match(got, want, what, rel=1e-9):
    if isinstance(want, float):
        ok = isinstance(got, (int, float)) and abs(got - want) <= rel * abs(want)
    else:
        ok = got == want and type(got) is type(want)
    _require(ok, f"{what} = {got!r}, expected {want!r}")


def _within(value, expected, sd, z, what):
    _require(math.isfinite(value) and abs(value - expected) <= z * sd,
             f"{what} = {value!r}, outside {expected!r} +- {z} * {sd!r}")


def _increment_chaos2(values: np.ndarray, hurst: float, level: int) -> None:
    """sum_k (X_k^2 - 1) of the normalised increments against its exact sd."""
    x = 2.0 ** (level * hurst) * np.diff(values)
    _within(float(np.sum(x * x - 1.0)), 0.0, ref.chaos2_sd(hurst, level), Z_CHAOS2,
            f"sum of X^2 - 1 (H={hurst}, n={level})")


def _report(res: Result, experiment: str, config: dict) -> dict:
    rep = json.loads(res.out)
    _require(rep["schema"] == "fbmvar-report/1", f"schema {rep['schema']!r}")
    _require(rep["experiment"] == experiment, f"experiment {rep['experiment']!r}")
    for key, want in config.items():
        _match(rep["config"][key], want, f"config.{key}")
    _require(rep["verdict"] in ("PASS", "FAIL"), f"verdict {rep['verdict']!r}")
    return rep


def check_clt(res: Result, seed: int, replicates: int, level: int) -> None:
    rep = _report(res, "clt", {"hurst": 0.6, "order": 2, "weight": "one", "levels": [level],
                               "replicates": replicates, "master_seed": seed})
    s = rep["summary"]
    _match(s["sigma2"], ref.CLT_SIGMA2, "summary.sigma2")
    _match(s["truncation_radius"], ref.CLT_TRUNCATION_RADIUS, "summary.truncation_radius")
    (entry,) = rep["levels"]
    var = entry["variance"]
    _require(entry["level"] == level and entry["stat"] == var, "level entry")
    _match(s["variance_rel_err"], abs(var / s["sigma2"] - 1.0), "variance_rel_err", 1e-12)
    _require(0.0 <= s["ks_p"] <= 1.0, f"ks_p {s['ks_p']!r}")
    ok = s["variance_rel_err"] <= 0.05 and s["ks_p"] > 0.01
    _require(rep["verdict"] == ("PASS" if ok else "FAIL"), "verdict disagrees with summary")
    exact = ref.h2_variance(0.6, level)
    _within(var, exact, math.sqrt(2.0 / replicates) * exact, Z_MEAN, "variance")


def check_noncentral(res: Result, seed: int) -> None:
    rep = _report(res, "noncentral", {
        "hurst": 0.9, "order": 2, "weight": "cos:1.0", "levels": list(NC_LEVELS),
        "fine_offset": NC_OFFSET, "replicates": NC_REPLICATES, "master_seed": seed})
    levels = rep["levels"]
    _require([e["level"] for e in levels] == list(NC_LEVELS), "levels")
    for e in levels:
        _require(e["fine_level"] == e["level"] + NC_OFFSET, "fine_level")
        _require(e["mean_sq_distance"] >= 0.0 and e["mean_sq_value"] > 0.0, "mean squares")
        _match(e["stat"], math.sqrt(e["mean_sq_distance"] / e["mean_sq_value"]),
               f"stat at level {e['level']}", 1e-12)
    rels = [e["stat"] for e in levels]
    s = rep["summary"]
    inversions = sum(b > a for a, b in zip(rels, rels[1:]))
    _require(s["initial"] == rels[0] and s["final"] == rels[-1]
             and s["inversions"] == inversions, "summary disagrees with levels")
    ok = inversions <= 1 and rels[-1] < 0.15
    _require(rep["verdict"] == ("PASS" if ok else "FAIL"), "verdict disagrees with summary")
    _within(levels[0]["mean_sq_value"], ref.NONCENTRAL_MSQ6,
            ref.NONCENTRAL_MSQ6_SD / math.sqrt(NC_REPLICATES), Z_MEAN, "mean_sq_value at level 6")


def check_constants(res: Result, hurst: float, q: int, seed: int) -> None:
    got = json.loads(res.out)
    want = {"H": hurst, "q": q, "seed": seed, **ref.CONSTANTS[(hurst, q)]}
    _require(set(got) == set(want), f"keys {sorted(got)}")
    for key, value in want.items():
        _match(got[key], value, key)


def parse_fbm1(data: bytes) -> tuple[float, int, int, np.ndarray]:
    """Independent FBM1 parser: magic, H <f8, n <i4, seed <u8, then 2^n + 1 <f8."""
    _require(data[:4] == b"FBM1", f"magic {data[:4]!r}")
    hurst, level, seed = struct.unpack_from("<diQ", data, 4)
    _require(len(data) == 24 + 8 * (2**level + 1), f"{len(data)} bytes for n={level}")
    return hurst, level, seed, np.frombuffer(data, dtype="<f8", offset=24)


def check_sample_bin(res: Result, file: Path, hurst: float, level: int, seed: int) -> None:
    _require(res.out == f"wrote {file} (seed {seed})\n", f"stdout {res.out!r}")
    f_h, f_n, f_seed, values = parse_fbm1(file.read_bytes())
    _require((f_h, f_n, f_seed) == (hurst, level, seed), "FBM1 header")
    p = res.path
    _require((p.hurst, p.level, p.seed) == (hurst, level, seed), "read_binary header")
    _require(np.array_equal(p.values.view(np.uint64), values.view(np.uint64)),
             "read_binary values differ from the file bits")
    _require(values[0] == 0.0 and bool(np.all(np.isfinite(values))), "path values")
    _increment_chaos2(values, hurst, level)


def check_sample_csv(res: Result, file: Path, hurst: float, level: int, seed: int) -> None:
    _require(res.err == f"seed {seed} stream 0\n", f"stderr {res.err!r}")
    lines = file.read_text().splitlines()
    _require(lines[0] == "k,t,B" and len(lines) == 2**level + 2, "CSV shape")
    rows = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    _require(np.array_equal(rows[:, 0], np.arange(2**level + 1)), "CSV k column")
    _require(np.array_equal(rows[:, 1], np.arange(2**level + 1) * 2.0**-level), "CSV t column")
    want = fbm.sample_fbm_circulant(hurst, level, seed).values
    _require(np.array_equal(rows[:, 2].view(np.uint64), want.view(np.uint64)),
             "CSV values differ from an in-process sample")
    _increment_chaos2(rows[:, 2], hurst, level)


def check_variation(res: Result, hurst, seed, power: bool, shared: dict) -> None:
    got = json.loads(res.out)
    want = {"H": hurst, "n": VARIATION_LEVEL, "q": 2, "weight": "one", "seed": seed,
            "stream": 0, "kind": "power" if power else "hermite", "centered": power}
    for key, value in want.items():
        _match(got[key], value, key)
    sd = ref.chaos2_sd(hurst, VARIATION_LEVEL)  # raw is S for power, S / 2 for Hermite
    _within(got["raw_value"], 0.0, sd if power else sd / 2.0, Z_CHAOS2, "raw_value")
    if not power:
        _match(got["regime"], "NONCENTRAL", "regime")
        factor = 2.0 ** (VARIATION_LEVEL * (2.0 * (1.0 - hurst) - 1.0))
        _match(got["renormalized_value"], factor * got["raw_value"], "renormalized_value", 1e-12)
        shared["variation"] = got


def check_hermite_process(res: Result, hurst, seed, shared: dict) -> None:
    got = json.loads(res.out)
    for key, value in {"q": 2, "H": hurst, "m": VARIATION_LEVEL, "n_out": HP_OUT_LEVEL,
                       "seed": seed, "stream": 0}.items():
        _match(got[key], value, key)
    z = got["values"]
    _require(len(z) == 2**HP_OUT_LEVEL + 1 and z[0] == 0.0, "Z grid")
    var = shared.pop("variation", None)
    _require(var is not None and var["H"] == hurst and var["seed"] == seed,
             "no variation of the same path to compare with")
    # |cumsum - fsum| <= (N - 1) u sum|H_2(X_k)|, sum|H_2(X_k)| <= N + |raw|,
    # plus one rounding of each product with the prefactor
    n, u, v = 2**VARIATION_LEVEL, 2.0**-53, var["renormalized_value"]
    factor = 2.0 ** (VARIATION_LEVEL * (2.0 * (1.0 - hurst) - 1.0))
    bound = factor * n * u * (n + abs(var["raw_value"])) + 4.0 * u * abs(v)
    _require(abs(z[-1] - v) <= bound, f"Z(1) = {z[-1]!r} vs renormalised variation {v!r}")


# -- workloads ---------------------------------------------------------------

@dataclass
class Workload:
    """Op lists for one workload and seed; pass p is a function of (seed, p)."""

    name: str
    seed: int
    workdir: Path

    def __post_init__(self):
        self.workdir.mkdir(parents=True, exist_ok=True)

    def ops(self, p: int) -> list[Op]:
        """The op list of pass p."""
        rnd = random.Random(f"{self.name}/{self.seed}/{p}")
        build = {"mc-clt": self._mc_clt, "mc-noncentral": self._mc_noncentral,
                 "cli-requests": self._cli_requests}[self.name]
        return build(rnd)

    def _mc_clt(self, rnd) -> list[Op]:
        ops = []
        for i in range(CLT_REPORTS):
            s = rnd.randrange(2**32)
            argv = ["experiment", "--id", "clt", "--H", "0.6", "--q", "2", "--weight", "one",
                    "--levels", str(CLT_LEVEL), "--replicates", str(CLT_REPLICATES),
                    "--seed", str(s)]
            ops.append(Op(f"clt-{i}", argv,
                          lambda r, s=s: check_clt(r, s, CLT_REPLICATES, CLT_LEVEL),
                          CLT_REPLICATES * 2**CLT_LEVEL))
        return ops

    def _mc_noncentral(self, rnd) -> list[Op]:
        ops = []
        for i in range(NC_REPORTS):
            s = rnd.randrange(2**32)
            argv = ["experiment", "--id", "noncentral", "--H", "0.9", "--q", "2",
                    "--weight", "cos:1.0", "--levels", ",".join(map(str, NC_LEVELS)),
                    "--fine-offset", str(NC_OFFSET), "--replicates", str(NC_REPLICATES),
                    "--seed", str(s)]
            ops.append(Op(f"noncentral-{i}", argv, lambda r, s=s: check_noncentral(r, s),
                          NC_REPLICATES * sum(2 ** (n + NC_OFFSET) for n in NC_LEVELS)))
        return ops

    def _cli_requests(self, rnd) -> list[Op]:
        ops = []
        for hurst, q in ref.CONSTANTS:
            s = rnd.randrange(1000)
            ops.append(Op(f"constants-{hurst}-{q}",
                          ["constants", "--H", str(hurst), "--q", str(q), "--seed", str(s)],
                          lambda r, h=hurst, q=q, s=s: check_constants(r, h, q, s)))
        for n in SAMPLE_LEVELS:
            h, s = round(rnd.uniform(*SAMPLE_H), 6), rnd.randrange(2**32)
            file = self.workdir / f"sample-{n}.fbm"
            ops.append(Op(f"sample-bin-{n}",
                          ["sample", "--H", str(h), "--n", str(n), "--seed", str(s),
                           "--format", "bin", "--out", str(file)],
                          lambda r, f=file, h=h, n=n, s=s: check_sample_bin(r, f, h, n, s),
                          2**n, readback=file))
        shared: dict = {}
        h, s = round(rnd.uniform(*SAMPLE_H), 6), rnd.randrange(2**32)
        ops.append(Op("variation-power",
                      ["variation", "--H", str(h), "--n", str(VARIATION_LEVEL), "--q", "2",
                       "--weight", "one", "--power", "--centered", "--seed", str(s)],
                      lambda r, h=h, s=s: check_variation(r, h, s, True, shared),
                      2**VARIATION_LEVEL))
        h, s = round(rnd.uniform(*NONCENTRAL_H), 6), rnd.randrange(2**32)
        ops.append(Op("variation-hermite",
                      ["variation", "--H", str(h), "--n", str(VARIATION_LEVEL), "--q", "2",
                       "--weight", "one", "--renormalize", "--seed", str(s)],
                      lambda r, h=h, s=s: check_variation(r, h, s, False, shared),
                      2**VARIATION_LEVEL))
        ops.append(Op("hermite-process",
                      ["hermite-process", "--q", "2", "--H", str(h), "--m", str(VARIATION_LEVEL),
                       "--n-out", str(HP_OUT_LEVEL), "--seed", str(s)],
                      lambda r, h=h, s=s: check_hermite_process(r, h, s, shared),
                      2**VARIATION_LEVEL))
        h, s = round(rnd.uniform(*SAMPLE_H), 6), rnd.randrange(2**32)
        file = self.workdir / "export.csv"
        ops.append(Op("sample-csv",
                      ["sample", "--H", str(h), "--n", str(CSV_LEVEL), "--seed", str(s),
                       "--format", "csv", "--out", str(file)],
                      lambda r, f=file, h=h, s=s: check_sample_csv(r, f, h, CSV_LEVEL, s),
                      2**CSV_LEVEL))
        for op in ops:  # each request is a fresh `fbmvar` process in real use
            op.cold = True
        return ops

    def defect_probe(self) -> Op | None:
        """The known failing request, run outside the timed passes."""
        if self.name != "cli-requests":
            return None
        file = self.workdir / "probe.fbm"
        return Op("defect-probe", [*DEFECT_PROBE, "--seed", str(self.seed),
                                   "--format", "bin", "--out", str(file)], lambda r: None)


def selftest(workdir: Path) -> dict:
    """Show that the checks catch a perturbed report and a truncated FBM1 file."""
    seed, reps, level = 7, 100, 10
    clt = Op("selftest-clt", ["experiment", "--id", "clt", "--H", "0.6", "--q", "2",
                              "--weight", "one", "--levels", str(level),
                              "--replicates", str(reps), "--seed", str(seed)],
             lambda r: check_clt(r, seed, reps, level))
    res = run_op(clt)
    out = {"clean_report_passes": verify(clt, res) is None}

    def perturbed(edit):
        rep = json.loads(res.out)
        edit(rep)
        return Result(0, json.dumps(rep), "", 0.0)

    def scale_variance(rep):  # four times the variance, summary kept consistent
        e, s = rep["levels"][0], rep["summary"]
        e["variance"] = e["stat"] = 4.0 * e["variance"]
        s["variance_rel_err"] = abs(e["variance"] / s["sigma2"] - 1.0)
        ok = s["variance_rel_err"] <= 0.05 and s["ks_p"] > 0.01
        rep["verdict"] = "PASS" if ok else "FAIL"

    def nudge_sigma2(rep):
        rep["summary"]["sigma2"] *= 1.0 + 1e-6

    out["perturbed_report_fails"] = all(
        verify(clt, perturbed(edit)) is not None for edit in (scale_variance, nudge_sigma2))

    file = workdir / "selftest.fbm"
    sample = Op("selftest-bin", ["sample", "--H", "0.6", "--n", "10", "--seed", str(seed),
                                 "--format", "bin", "--out", str(file)],
                lambda r: check_sample_bin(r, file, 0.6, 10, seed), readback=file)
    res = run_op(sample)
    out["clean_fbm1_passes"] = verify(sample, res) is None
    with open(file, "r+b") as fh:
        fh.truncate(file.stat().st_size - 8)
    path, error = _read_fbm1(file)
    truncated = Result(res.rc, res.out, res.err, 0.0, path, error)
    out["truncated_fbm1_fails"] = verify(sample, truncated) is not None
    return out
