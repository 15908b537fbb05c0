"""fbmvar benchmark: three workloads driven through ``fbmvar.cli.main``.

    python3 perfbench/run.py --workload mc-clt --seed 1 --seconds 30 --trace 0

Run it from the repository root; it needs ``src/fbmvar`` next to this
directory and builds nothing (the package is pure Python and is imported
from ``src``).  Every workload process runs alone with FBMVAR_THREADS=1 and
the BLAS/OpenMP thread variables set to 1.

Workloads (inputs drawn from ``--seed``):

* ``mc-clt`` - ``experiment --id clt --H 0.6 --q 2 --weight one --levels 14``
  reports, 256 replicates each: bound by the circulant sampler.
* ``mc-noncentral`` - ``experiment --id noncentral --H 0.9 --q 2 --weight
  cos:1.0 --levels 6,...,10 --fine-offset 6`` reports, 128 replicates each:
  resamples every replicate at fine levels 12 to 16, then runs the weighted
  Hermite kernel, the Hermite partial sums and the Young sums.
* ``cli-requests`` - constants over a fixed (H, q) grid, binary samples at
  n = 20, 21, 22 read back with ``read_binary``, a Hermite and a centred
  power variation at n = 20, ``hermite-process --m 20`` and a CSV export;
  every sample misses the circulant-eigenvalue cache.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:

* ``setup_s`` - median over nine fresh interpreters of the time from process
  start to the end of workload preparation (import of fbmvar included),
  each scaled by the start-up time of a bare interpreter importing numpy,
  run just before it, to a host where that takes ``BARE_REFERENCE_S``;
* ``run_s`` - time of one pass over the workload's op list: the sum over
  the op list of each op's median latency across passes;
* ``op_s_p50`` / ``op_s_p95`` - percentiles over the op list of each op's
  median latency across passes (the sample count is in the detail line);
* ``increments_per_s`` - fBm increments one pass samples (rows * 2^level,
  from the configs) over ``run_s``;

  these four are in seconds of the reference host: every op's latency is
  scaled by the host speed measured around it (``calibration.py``),
  because this shared host drifts by a quarter over minutes.  The wall
  times and the calibration times are in the detail line;
* ``ok_ratio`` - ops that passed their output check over ops attempted;
* ``peak_rss_mb`` - ``getrusage`` peak resident memory of the workload process.

With ``--trace 1`` it carries the per-layer metrics of ``tracing.py``.
Output checks are always on (see ``workloads.py``); a run whose checks or
self-test fail reports ``"correct": false``.  The lines before the last
one record the environment and the run's detail.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_RUNS = 9
TIMEOUT_S = 170.0
THREAD_VARS = ("FBMVAR_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOADS = ("mc-clt", "mc-noncentral", "cli-requests")
# A bare interpreter that imports numpy: started before every workload
# process, it measures how fast this host starts Python now, and set-up time
# is scaled to a host where it takes BARE_REFERENCE_S.
BARE_CMD = [sys.executable, "-c", "import numpy; print('ready')"]
BARE_REFERENCE_S = 0.14


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def environment() -> dict:
    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpu_model = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(index / "level"), read(index / "type")
        if level in ("2", "3") and kind == "Unified":
            caches[f"L{level}"] = read(index / "size")
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    import numpy

    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "thread_env": {var: "1" for var in THREAD_VARS},
    }


def until_ready(cmd: list[str], deadline: float) -> tuple[float, str]:
    """Run cmd; (seconds to its ``ready`` line, rest of its stdout)."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(1.0, deadline - t0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready != "ready\n" or code != 0:
        raise RuntimeError(f"{cmd[1:3]} exited {code} (ready line {ready!r})")
    return setup, rest


def run_worker(args, setup_only: bool, deadline: float) -> tuple[float, str, float]:
    """Start one workload process right after a bare one.

    Returns (seconds to the worker's ready line, rest of its stdout, seconds
    to the ready line of the bare interpreter).
    """
    bare, _ = until_ready(BARE_CMD, deadline)
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    setup, rest = until_ready(cmd, deadline)
    return setup, rest, bare


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fbmvar" / "__init__.py").is_file():
        sys.stderr.write(f"no fbmvar sources under {ROOT / 'src'}; "
                         "run the benchmark from a full checkout\n")
        return 2

    deadline = perf_counter() + TIMEOUT_S
    try:
        extra = 0 if args.trace else SETUP_RUNS - 1
        pairs = [run_worker(args, True, deadline) for _ in range(extra)]
        pairs.append(run_worker(args, False, deadline))
    except RuntimeError as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    result = json.loads(pairs[-1][1].strip().splitlines()[-1])
    detail = result.pop("detail")
    if not args.trace:
        scaled = [setup * BARE_REFERENCE_S / bare for setup, _, bare in pairs]
        result["metrics"]["setup_s"] = {"value": statistics.median(scaled), "unit": "s"}
        detail["setup_wall_s"] = [setup for setup, _, _ in pairs]
        detail["bare_wall_s"] = [bare for _, _, bare in pairs]
    print("perfbench env " + json.dumps(environment(), sort_keys=True))
    print("perfbench detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
