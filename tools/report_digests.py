"""Print the SHA-256 of the outputs a refactor must leave byte-identical.

Run it on two checkouts of the repository, on the same machine, and diff
the two listings:

    PYTHONPATH=src python tools/report_digests.py > digests.txt

With ``--dump DIR`` it also writes each covered output to ``DIR/<name>``,
named after its listing line, so the outputs of two checkouts whose digests
differ can be compared number by number.

Each line is ``<sha256>  <name>``.  The outputs covered are:

* every experiment runner (corollary items 1-6 each), at threads 1 and 2,
  as report JSON, per-level CSV and plot TSV; among them corollary item 5
  at q = 2, where its two readings coincide, item 1 under the sin and exp
  weights (at q = 3 and q = 1), and clt at fine level 17, where a block
  takes 16 rows of the engine's large-block tier;
* ``sample`` as json, csv and bin (the FBM1 bytes), and as bin at n = 17,
  where the eigenvalues take a split round and the synthesis two chunks
  of frequency pairs;
* ``variation`` for five weights, each as Hermite, power, centred power
  and renormalised Hermite variation, and the Hermite variation at q = 1;
* ``constants`` at the benchmark's five (H, q) pairs, at q = 4, 6, 12, at
  H = 0.7499, q = 2, just inside the edge of the CLT window, and at
  H = 0.25, q = 2, the conjectural critical point;
* ``hermite-process`` as json and csv, at partial-sum strides 32, 64, 2
  and 4;
* ``experiment`` through the CLI: one request given by flags, and one by a
  config file with a byte order mark, comments and aliased keys, writing
  ``--csv`` and ``--plot-data`` files (the wall-clock seconds of its stderr
  line are masked);
* ``--precision`` 1, 4 and 17 JSON from ``sample``, ``variation``,
  ``constants`` and ``hermite-process``;
* ``report --merge`` of two runner reports, as table and as JSON;
* a few requests the CLI rejects, as exit code, stdout and stderr,
  among them a report that would hold inf, and merged files holding NaN,
  an empty object or another schema.

A CLI digest covers the exit code, stdout, stderr and any file written
with --out, --csv or --plot-data.  This is a script, not a test: FFT bits
may differ between machines, so only digests made on one machine compare.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

from fbmvar.cli import main
from fbmvar.experiments import ExperimentConfig, run_experiment

# (experiment id, H, q, weight, levels, replicates, seed, fine_offset); the
# weights cos:0, poly:1 and poly:1,0 spell f = 1 another way.  Then come the
# constant weights judged by the identity check and the two trapezoid arms
# at a weight whose symmetric sums are exact; last corollary item 5 at
# q = 2, where the two readings coincide, item 1 under the sin and exp
# antiderivatives (at q = 3 and 1), and clt at fine level 17, whose blocks
# of 16 rows take the large-block tier of the engine
RUNNER_CONFIGS = (
    ("small_h", 0.2, 2, "cos:1.0", (6, 7, 8, 9), 200, 1, 6),
    ("small_h", 0.1, 3, "poly:0.5,-1,0.25", (6, 8), 100, 2, 6),
    ("clt", 0.6, 2, "one", (8, 10), 300, 3, 6),
    ("clt", 0.6, 2, "cos:0", (8, 10), 300, 3, 6),
    ("clt", 0.35, 2, "cos:1.0", (8, 10), 300, 4, 6),
    ("critical_high", 0.75, 2, "one", (8, 10), 200, 5, 6),
    ("critical_high", 0.75, 2, "exp:0.5", (8, 10), 200, 6, 6),
    ("noncentral", 0.9, 2, "one", (5, 6, 7), 150, 10, 6),
    ("noncentral", 0.8, 2, "one", (5, 6, 7), 200, 49, 6),
    ("noncentral", 0.8, 2, "poly:1", (5, 6, 7), 200, 49, 6),
    ("noncentral", 0.9, 3, "cos:1.0", (5, 6), 100, 11, 4),
    ("corollary", 0.7, 3, "cos:1.0", (6, 8, 10), 200, 12, 6),
    ("corollary", 0.2, 2, "cos:1.0", (6, 8, 10), 200, 13, 6),
    ("corollary", 0.25, 2, "cos:1.0", (8, 10), 200, 14, 6),
    ("corollary", 0.5, 4, "sin:0.5", (8, 10), 200, 15, 6),
    ("corollary", 0.6, 2, "one", (8, 10), 200, 16, 6),
    ("corollary", 0.75, 4, "one", (8, 10), 200, 17, 6),
    ("corollary", 0.9, 2, "one", (5, 6), 100, 18, 4),
    ("corollary", 0.9, 2, "poly:1,0", (5, 6), 100, 18, 4),
    ("corollary", 0.85, 4, "cos:1.0", (5, 6), 100, 19, 4),
    ("trapezoid", 0.3, 2, "sin:1.0", (6, 8, 10), 200, 20, 6),
    ("trapezoid", 1 / 6, 2, "poly:0,0,0,1", (6, 8, 10), 200, 21, 6),
    ("conjecture_quarter", 0.25, 2, "cos:1.0", (8, 10), 200, 22, 6),
    ("conjecture_quarter", 1 / 6, 3, "one", (8, 10), 200, 23, 6),
    ("noncentral", 0.9, 2, "poly:2", (4, 5, 6, 7), 100, 0, 2),
    ("corollary", 0.9, 2, "poly:3", (4, 5, 6, 7), 100, 0, 2),
    ("corollary", 0.9, 1, "one", (4, 5, 6, 7), 100, 0, 2),
    ("trapezoid", 0.1, 2, "poly:0,0,1", (6, 8, 10), 200, 0, 6),
    ("trapezoid", 0.5, 2, "poly:0,0,1e6", (6, 8, 10), 200, 0, 6),
    ("corollary", 0.75, 2, "one", (8, 10), 200, 24, 6),
    ("corollary", 0.7, 3, "sin:0.5", (6, 8, 10), 200, 26, 6),
    ("corollary", 0.7, 1, "exp:0.5", (6, 8, 10), 200, 27, 6),
    ("clt", 0.6, 2, "one", (15, 17), 100, 28, 6),
)

WEIGHTS = ("one", "poly:0.5,-1,0.25", "cos:1.0", "sin:0.5", "exp:0.5")
VARIATION_MODES = {
    "hermite": (),
    "power": ("--power",),
    "centred": ("--power", "--centered"),
    "renormalised": ("--renormalize",),
}
CONSTANT_PAIRS = (
    (0.2, 2), (0.6, 2), (0.75, 2), (0.9, 2), (0.3, 3),
    (0.3, 4), (0.6, 4), (0.3, 6), (0.6, 6), (0.3, 12), (0.6, 12), (0.7499, 2), (0.25, 2),
)
# the Hermite variation of order 1, where H_1(x) = x is a copy of x
VARIATION_ORDER_1 = ("variation", "--H", "0.6", "--n", "10", "--q", "1", "--weight",
                     "exp:0.5", "--seed", "4")
# name: (q, H, m, n_out); the last two sum 2 and 4 terms per output interval
HERMITE_PROCESS = {
    "q=2": ("2", "0.9", "10", "5"),
    "q=3": ("3", "0.9", "10", "4"),
    "q=2 n-out=9": ("2", "0.9", "10", "9"),
    "q=2 n-out=8": ("2", "0.9", "10", "8"),
}
PRECISION_REQUESTS = {
    "sample": ("sample", "--H", "0.7", "--n", "8", "--seed", "3", "--format", "json"),
    "variation": ("variation", "--H", "0.6", "--n", "10", "--q", "3", "--weight",
                  "sin:0.5", "--seed", "4", "--renormalize"),
    "constants": ("constants", "--H", "0.3", "--q", "3", "--seed", "5"),
    "hermite-process": ("hermite-process", "--q", "2", "--H", "0.9", "--m", "10",
                        "--n-out", "5", "--seed", "6"),
}
# files written to the work directory before the CLI requests run
CONFIG_FILES = {
    "exp.cfg": "\ufeff# noncentral check\nid = noncentral\nH = 0.9  # aliases: h, hurst\n"
               "q = 2\nweight = cos:1.0\nlevels = 5,6\nreplicates = 100\nseed = 10\n"
               "fine-offset = 4\n",
    "twice.cfg": "H = 0.6\nq = 2\nhurst = 0.7\nlevels = 6\nreplicates = 100\n",
    "nan.json": '{"config": {"hurst": NaN, "levels": [6]}, "experiment": "clt"}\n',
    "empty.json": "{}\n",
    "other.json": '{"schema": "other/9", "config": {"levels": [6]}, "experiment": "clt"}\n',
}
EXPERIMENT_REQUESTS = {
    "flags": ("experiment", "--id", "clt", "--H", "0.6", "--q", "2", "--weight", "cos:1.0",
              "--levels", "8,10", "--replicates", "200", "--seed", "3", "--threads", "2",
              "--out", "{dir}/e.json"),
    "config": ("experiment", "--id", "noncentral", "--config", "{dir}/exp.cfg",
               "--csv", "{dir}/e.csv", "--plot-data", "{dir}/e.tsv"),
}
REJECTED = {
    "variation-centred-hermite": ("variation", "--H", "0.6", "--n", "8", "--q", "2",
                                  "--centered"),
    "variation-power-renormalised": ("variation", "--H", "0.8", "--n", "8", "--q", "4",
                                     "--power", "--renormalize"),
    "sample-csv-precision": ("sample", "--H", "0.7", "--n", "6", "--format", "csv",
                             "--precision", "4"),
    "sample-bin-precision": ("sample", "--H", "0.7", "--n", "6", "--format", "bin",
                             "--out", "{dir}/p.bin", "--precision", "4"),
    "hermite-process-csv-precision": ("hermite-process", "--q", "2", "--H", "0.9",
                                      "--m", "8", "--n-out", "4", "--export", "csv",
                                      "--precision", "4"),
    # orders above 150, where the limit constants overflow a double
    "variation-order-151": ("variation", "--H", "0.5", "--n", "10", "--q", "151"),
    "hermite-process-order-151": ("hermite-process", "--q", "151", "--H", "0.9999",
                                  "--m", "8", "--n-out", "3"),
    "experiment-order-1000": ("experiment", "--id", "noncentral", "--H", "0.9999",
                              "--q", "1000", "--levels", "2,3", "--replicates", "100",
                              "--fine-offset", "1"),
    # levels outside [1, 24] ([1, 12] for Cholesky) and output levels below 1
    "sample-level-25": ("sample", "--H", "0.7", "--n", "25"),
    "sample-cholesky-level-0": ("sample", "--H", "0.7", "--n", "0", "--sampler", "cholesky"),
    "hermite-process-level-0": ("hermite-process", "--q", "2", "--H", "0.9", "--m", "0",
                                "--n-out", "1"),
    "experiment-level-0": ("experiment", "--id", "clt", "--H", "0.6", "--q", "2",
                           "--levels", "0,8", "--replicates", "100"),
    "experiment-finest-level-25": ("experiment", "--id", "noncentral", "--H", "0.9",
                                   "--q", "2", "--levels", "6,19", "--replicates", "100",
                                   "--fine-offset", "6"),
    # seeds and stream indices that are not integers
    "sample-seed-abc": ("sample", "--H", "0.7", "--n", "6", "--seed", "abc"),
    "sample-stream-1e3": ("sample", "--H", "0.7", "--n", "6", "--stream", "1e3"),
    # a config key given twice, under two spellings, and an output path
    # that cannot be written
    "experiment-config-key-twice": ("experiment", "--id", "clt", "--config",
                                    "{dir}/twice.cfg"),
    "experiment-csv-missing-dir": ("experiment", "--id", "clt", "--H", "0.6", "--q", "2",
                                   "--levels", "6", "--replicates", "100",
                                   "--csv", "{dir}/missing/r.csv"),
    # a Young-sum runner on the variation's own grid, and two output flags
    # that name one file
    "experiment-fine-offset-0": ("experiment", "--id", "noncentral", "--H", "0.9",
                                 "--q", "2", "--weight", "cos:1.0", "--levels", "4,5,6,7",
                                 "--replicates", "100", "--fine-offset", "0"),
    "experiment-out-csv-one-file": ("experiment", "--id", "clt", "--H", "0.6", "--q", "2",
                                    "--levels", "6", "--replicates", "100",
                                    "--out", "{dir}/r.txt", "--csv", "{dir}/r.txt"),
    # a report whose standard errors overflow to inf, report files holding
    # NaN, an empty object and another schema, and the series tolerance,
    # which is not an option
    "experiment-stat-se-inf": ("experiment", "--id", "noncentral", "--H", "0.9", "--q", "2",
                               "--weight", "poly:1e100,1", "--levels", "4,5,6,7",
                               "--replicates", "100", "--fine-offset", "2"),
    "report-merge-nan": ("report", "--merge", "{dir}/nan.json"),
    "report-merge-empty-object": ("report", "--merge", "{dir}/empty.json"),
    "report-merge-schema-other": ("report", "--merge", "{dir}/other.json"),
    "constants-rel-tol": ("constants", "--H", "0.6", "--q", "2", "--rel-tol", "1e-9"),
    # an experiment id that names no runner
    "experiment-id-bogus": ("experiment", "--id", "bogus", "--H", "0.6", "--q", "2"),
}
# requests rejected for an environment variable: name: (variables, argv)
REJECTED_ENV = {
    "experiment-fbmvar-threads-abc": ({"FBMVAR_THREADS": "abc"}, (
        "experiment", "--id", "clt", "--H", "0.6", "--q", "2", "--levels", "6",
        "--replicates", "100")),
}
OUTPUT_FLAGS = ("--out", "--csv", "--plot-data")


def _cli(workdir: Path, argv, env=None) -> bytes:
    """Exit code, stdout, stderr and the output files of one CLI request,
    with `env` added to the environment; a run's wall-clock seconds are
    masked."""
    argv = [a.replace("{dir}", str(workdir)) for a in argv]
    files = [Path(argv[argv.index(flag) + 1]) for flag in OUTPUT_FLAGS if flag in argv]
    for file in files:
        file.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            mock.patch.dict(os.environ, env or {}):
        code = main(argv)
    written = b"\0".join(file.read_bytes() for file in files if file.exists())
    err = re.sub(r"\(\d+\.\ds\)$", "(<seconds>)", stderr.getvalue(), flags=re.M)
    text = f"{code}\0{stdout.getvalue()}\0{err}\0".replace(str(workdir), "DIR")
    return text.encode() + written


def outputs(workdir: Path):
    """(name, bytes) of every covered output, in a fixed order."""
    for name, text in CONFIG_FILES.items():
        (workdir / name).write_text(text, encoding="utf-8")
    merged = []  # the report files of the first two configs, for report --merge
    names = set()  # a name that repeats an earlier config's also gives the levels
    for exp_id, hurst, q, weight, levels, reps, seed, offset in RUNNER_CONFIGS:
        for threads in (1, 2):
            rep = run_experiment(ExperimentConfig(
                exp_id, hurst=hurst, order=q, weight=weight, levels=levels,
                replicates=reps, master_seed=seed, fine_offset=offset, threads=threads,
            ))
            name = f"experiment {exp_id} H={hurst} q={q} {weight} threads={threads}"
            if exp_id == "corollary":
                name += f" item={rep.summary['item']}"
            if name in names:
                name += " levels=" + ",".join(map(str, levels))
            names.add(name)
            if threads == 1 and len(merged) < 2:
                merged.append(str(workdir / f"report{len(merged)}.json"))
                Path(merged[-1]).write_text(rep.to_json())
            yield f"{name} json", rep.to_json().encode()
            yield f"{name} csv", rep.per_level_csv().encode()
            yield f"{name} tsv", rep.plot_tsv().encode()

    for sampler in ("circulant", "cholesky"):
        base = ("sample", "--H", "0.7", "--n", "8", "--seed", "3", "--stream", "2",
                "--sampler", sampler)
        yield f"sample {sampler} json", _cli(workdir, (*base, "--format", "json"))
        yield f"sample {sampler} csv", _cli(workdir, (*base, "--format", "csv"))
        yield f"sample {sampler} bin", _cli(
            workdir, (*base, "--format", "bin", "--out", "{dir}/s.bin"))
    yield "sample circulant n=17 bin", _cli(workdir, (
        "sample", "--H", "0.7", "--n", "17", "--seed", "3", "--format", "bin",
        "--out", "{dir}/p17.bin"))

    for weight in WEIGHTS:
        for q in (2, 3):
            for mode, flags in VARIATION_MODES.items():
                argv = ("variation", "--H", "0.6", "--n", "10", "--q", str(q),
                        "--weight", weight, "--seed", "4", *flags)
                yield f"variation {weight} q={q} {mode}", _cli(workdir, argv)
    yield "variation exp:0.5 q=1 hermite", _cli(workdir, VARIATION_ORDER_1)

    for hurst, q in CONSTANT_PAIRS:
        argv = ("constants", "--H", str(hurst), "--q", str(q), "--seed", "5")
        yield f"constants H={hurst} q={q}", _cli(workdir, argv)

    for name, (q, hurst, m, n_out) in HERMITE_PROCESS.items():
        for export in ("json", "csv"):
            argv = ("hermite-process", "--q", q, "--H", hurst, "--m", m, "--n-out", n_out,
                    "--seed", "6", "--export", export)
            yield f"hermite-process {name} {export}", _cli(workdir, argv)

    for name, argv in EXPERIMENT_REQUESTS.items():
        yield f"experiment cli {name}", _cli(workdir, argv)

    for name, argv in PRECISION_REQUESTS.items():
        for precision in ("1", "4", "17"):
            yield f"{name} precision={precision}", _cli(
                workdir, (*argv, "--precision", precision))

    for fmt in ("table", "json"):
        argv = ("report", "--merge", *merged, "--format", fmt, "--seed", "7")
        yield f"report merge {fmt}", _cli(workdir, argv)

    for name, argv in REJECTED.items():
        yield f"rejected {name}", _cli(workdir, argv)
    for name, (env, argv) in REJECTED_ENV.items():
        yield f"rejected {name}", _cli(workdir, argv, env)


def _main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dump", type=Path, metavar="DIR",
                        help="also write each output to DIR/<name>")
    args = parser.parse_args(argv)
    if args.dump is not None:
        args.dump.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in outputs(Path(tmp)):
            sys.stdout.write(f"{hashlib.sha256(data).hexdigest()}  {name}\n")
            if args.dump is not None:
                (args.dump / name).write_bytes(data)


if __name__ == "__main__":
    _main()
