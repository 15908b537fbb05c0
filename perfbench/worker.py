"""One workload process: set up, print ``ready``, measure, print one JSON line.

    python3 -m perfbench.worker --workload W --seed N --seconds S --trace 0|1 [--setup-only]

``run.py`` starts it with ``src`` on PYTHONPATH and times set-up from the
process start to the ``ready`` line.  With ``--setup-only`` it exits there.

Untraced (``--trace 0``) it runs whole passes of the workload until the next
pass would end after ``--seconds``, and at least two, and times the
calibration kernel of ``calibration.py`` between the ops: the end-to-end
times are in seconds of the reference host, and the wall times are in the
detail line.  Traced (``--trace 1``)
it runs one untraced warm-up pass, then alternates traced and untraced passes
(at least two traced and one untraced) under the same time rule; the
layer metrics are means over the traced passes and the tracing overhead is
the traced minus the untraced mean pass time.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from .calibration import REFERENCE_S, Calibration
from .tracing import COUNT_METRICS, TIME_METRICS, Tracer
from .workloads import Workload, clear_eigen_cache, run_op, selftest, verify

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 2


class Passes:
    """Latencies and outcomes of the ops of a series of passes.

    With a calibration, each op's latency is also kept scaled to the
    reference host (``scaled``), by the mean of the kernel times measured
    just before and just after it: the host's speed changes within seconds,
    and the bracket follows it more closely than either side alone.
    """

    def __init__(self, calibration: Calibration | None = None):
        self.calibration = calibration
        self.times: list[float] = []
        self.latencies: dict[str, list[float]] = {}
        self.scaled: dict[str, list[float]] = {}
        self.attempted = self.failed = self.increments = 0
        self.failures: list[str] = []

    def run(self, ops, tracer=None) -> None:
        total = 0.0
        if self.calibration is not None and not self.calibration.samples:
            self.calibration.measure()
        for op in ops:
            if op.cold:
                clear_eigen_cache()
            if tracer is not None:
                tracer.install()
            try:
                res = run_op(op, tracer)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            why = verify(op, res)
            self.attempted += 1
            if why is None:
                self.increments += op.increments
            else:
                self.failed += 1
                self.failures.append(why)
            self.latencies.setdefault(op.key, []).append(res.latency)
            if self.calibration is not None:
                before = self.calibration.samples[-1]
                host_s = (before + self.calibration.measure()) / 2.0
                self.scaled.setdefault(op.key, []).append(res.latency * REFERENCE_S / host_s)
            total += res.latency
        self.times.append(total)

    def end_to_end(self) -> dict:
        # each op's median over the passes, then the sum and percentiles over
        # the op list, so the figures do not depend on how many passes fit
        per_op = [statistics.median(v) for v in self.scaled.values()]
        run_s = sum(per_op)
        return {
            "run_s": (run_s, "s"),
            "op_s_p50": (float(np.percentile(per_op, 50)), "s"),
            "op_s_p95": (float(np.percentile(per_op, 95)), "s"),
            "increments_per_s": (self.increments / len(self.times) / run_s, "1/s"),
            "ok_ratio": ((self.attempted - self.failed) / self.attempted, "ratio"),
        }


def measure(workload, ops, seconds: float) -> Passes:
    passes = Passes(Calibration())
    start = perf_counter()
    p = 0
    while True:
        passes.run(ops)
        p += 1
        if p >= MIN_PASSES and (perf_counter() - start) * (p + 1) / p > seconds:
            return passes
        ops = workload.ops(p)


def _delta(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def measure_traced(workload, ops, seconds: float):
    tracer = Tracer()
    warm, plain, traced = Passes(), Passes(), Passes()
    start = perf_counter()
    warm.run(ops)
    per_pass: list[tuple[dict, dict]] = []  # (self times, counts) of each traced pass
    p = 1
    while True:
        if len(traced.times) <= len(plain.times):
            times, counts = dict(tracer.self_time), dict(tracer.counts)
            traced.run(workload.ops(p), tracer)
            per_pass.append((_delta(tracer.self_time, times), _delta(tracer.counts, counts)))
        else:
            plain.run(workload.ops(p))
        p += 1
        elapsed = perf_counter() - start
        if len(traced.times) >= 2 and plain.times and elapsed * (p + 1) / p > seconds:
            break

    problems = []
    counts = per_pass[0][1]
    if any(c != counts for _, c in per_pass[1:]):
        problems.append(f"counters differ between traced passes: {[c for _, c in per_pass]}")
    for (times, _), run_s in zip(per_pass, traced.times):
        total = sum(times.values())
        if abs(total - run_s) > 1e-9 * run_s or min(times.values()) < -1e-9:
            problems.append(f"self times add up to {total!r}, traced run_s is {run_s!r}")
    n = len(per_pass)
    metrics = {m: (sum(t.get(m, 0.0) for t, _ in per_pass) / n, "s")
               for m in (*TIME_METRICS, "trace.unattributed_s")}
    metrics.update({m: (counts.get(m, 0), unit) for m, unit in COUNT_METRICS.items()})
    run_s = statistics.fmean(traced.times)
    metrics["trace.run_s"] = (run_s, "s")
    metrics["trace.overhead_s"] = (run_s - statistics.fmean(plain.times), "s")
    detail = {"traced_passes": n, "untraced_passes": len(plain.times),
              "unhooked": tracer.unhooked, "trace_problems": problems}
    return [warm, plain, traced], metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import fbmvar

    if Path(fbmvar.__file__).resolve().parent != ROOT / "src" / "fbmvar":
        sys.stderr.write(f"fbmvar imported from {fbmvar.__file__}, not from {ROOT / 'src'}\n")
        return 2
    workdir = ROOT / ".perfbench_work" / args.workload
    workload = Workload(args.workload, args.seed, workdir)
    ops = workload.ops(0)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if args.setup_only:
        return 0

    if args.trace:
        series, metrics, detail = measure_traced(workload, ops, args.seconds)
    else:
        passes = measure(workload, ops, args.seconds)
        series, metrics = [passes], passes.end_to_end()
        host = passes.calibration.samples
        detail = {"wall_pass_s": passes.times, "ops_per_pass": len(passes.latencies),
                  "op_samples": sum(map(len, passes.latencies.values())),
                  "op_median_s": {k: statistics.median(v) for k, v in passes.scaled.items()},
                  "op_median_wall_s": {k: statistics.median(v)
                                       for k, v in passes.latencies.items()},
                  "calibration_s": {"median": statistics.median(host), "min": min(host),
                                    "max": max(host), "reference": REFERENCE_S}}
        # ru_maxrss is in KiB on Linux
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")

    probe = workload.defect_probe()
    probe_failed = 0
    if probe is not None:
        res = run_op(probe)
        probe_failed = int(res.rc != 0)
        detail["defect_probe"] = {"argv": probe.argv, "exit": res.rc,
                                  "stderr": res.err.strip()[-300:]}
    if args.trace:
        metrics["cli.defect_probe_exit_nonzero"] = (probe_failed, "count")
    detail["selftest"] = selftest(workdir)
    shutil.rmtree(workdir)
    attempted = sum(s.attempted for s in series)
    failed = sum(s.failed for s in series)
    detail["failures"] = [f for s in series for f in s.failures][:5]
    correct = (failed == 0 and all(detail["selftest"].values())
               and not detail.get("trace_problems"))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                      "detail": detail}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
