"""Layer tracing by attribute: wraps fbmvar functions from outside the package.

Each wrapped function becomes a span.  A span's self time is its duration
minus the time of the spans it called; the benchmark's own op frame is the
root, and the root's self time is reported as ``trace.unattributed_s``, so
the self times of all metrics add up to the traced op time exactly.

Wrapping replaces module attributes (and weight-class methods) in every
fbmvar module that holds the original object, and ``uninstall`` puts the
originals back.  A target that a later version of the package no longer
has is skipped and listed in ``Tracer.unhooked``, so a refactor can leave
a layer metric at zero but cannot break the benchmark.
"""

from __future__ import annotations

import importlib
import math
import re
from collections import defaultdict
from time import perf_counter

MODULES = ("rng", "fbm", "hermite", "weights", "variations", "hermite_process",
           "constants", "stats", "experiments", "cli")

# (module, attribute) -> time metric that receives the span's self time.
SPANS = {
    ("rng", "stream"): "rng.normals_s",
    ("fbm", "_circulant_sqrt_eigs"): "fbm.eigs_s",
    ("fbm", "sample_increments_circulant"): "fbm.synth_s",
    ("fbm", "_increments_from_normals"): "fbm.synth_s",
    ("fbm", "sample_fbm_circulant"): "fbm.cumsum_s",
    ("experiments", "_values_block"): "fbm.cumsum_s",
    ("fbm", "write_binary"): "fbm.io_s",
    ("fbm", "read_binary"): "fbm.io_s",
    ("fbm", "write_csv"): "fbm.io_s",
    ("hermite", "hermite_eval"): "hermite.eval_s",
    ("variations", "hermite_variation_rows"): "variations.rows_s",
    ("variations", "power_variation_rows"): "variations.rows_s",
    ("variations", "riemann_sum_rows"): "variations.rows_s",
    ("variations", "weighted_hermite_variation"): "variations.single_path_s",
    ("variations", "weighted_power_variation"): "variations.single_path_s",
    ("variations", "renormalize"): "variations.single_path_s",
    ("hermite_process", "hermite_partial_sums"): "hermite_process.partial_sums_s",
    ("hermite_process", "simulate_hermite"): "hermite_process.partial_sums_s",
    ("hermite_process", "young_integral_rows"): "hermite_process.young_s",
    ("hermite_process", "young_integral"): "hermite_process.young_s",
    ("constants", "rho_power_sum"): "constants.series_s",
    ("constants", "_rho_powers_stable"): "constants.series_s",
    ("constants", "sigma_clt"): "constants.series_s",
    ("constants", "sigma_tilde"): "constants.series_s",
    ("constants", "hermite_process_variance_const"): "constants.series_s",
    ("experiments", "run_experiment"): "experiments.engine_self_s",
    ("experiments", "_collect"): "experiments.engine_self_s",
    ("cli", "main"): "cli.self_s",
}
SPANS.update({("stats", name): "stats.reduce_s" for name in (
    "normal_cdf", "kolmogorov_sf", "ks_1samp_normal", "ks_2samp", "least_squares_slope",
    "through_origin_slope", "mean_and_se", "variance_and_se", "median_and_se",
    "count_inversions")})
_RUNNER = re.compile(r"^run_\w+$")
_BLOCK = re.compile(r"^_\w+_block$")

TIME_METRICS = (
    "rng.normals_s", "fbm.eigs_s", "fbm.synth_s", "fbm.cumsum_s", "fbm.io_s",
    "hermite.eval_s", "weights.eval_s", "variations.rows_s", "variations.single_path_s",
    "hermite_process.partial_sums_s", "hermite_process.young_s", "constants.series_s",
    "stats.reduce_s", "experiments.engine_self_s", "cli.self_s",
)
COUNT_METRICS = {
    "rng.normals": "count",
    "fbm.eigs_hits": "count",
    "fbm.eigs_misses": "count",
    "fbm.fft_points": "count",
    "fbm.fft_flops_computed": "flop",
    "fbm.synth_bytes_computed": "B",
    "fbm.io_bytes": "B",
    "constants.series_lags": "count",
    "constants.series_unconverged": "count",
    "experiments.blocks": "count",
    "experiments.rows": "count",
    "cli.exit_nonzero": "count",
    "trace.spans": "count",
}


def _count_synth(counts, args, result):
    m = args[1].shape[-1]
    rows = args[1].size // m
    counts["fbm.fft_points"] += rows * m
    counts["fbm.fft_flops_computed"] += round(rows * 5 * m * math.log2(m))
    # the complex spectrum and the complex FFT output, 16 bytes per point each
    counts["fbm.synth_bytes_computed"] += rows * m * 32


def _count_series(counts, args, result):
    counts["constants.series_lags"] += int(args[2])


def _count_series_result(counts, args, result):
    counts["constants.series_unconverged"] += int(not result.converged)


def _count_rows(counts, args, result):
    counts["experiments.rows"] += int(args[4])


def _count_block(counts, args, result):
    counts["experiments.blocks"] += 1


def _count_exit(counts, args, result):
    counts["cli.exit_nonzero"] += int(result != 0)


COUNTERS = {
    ("fbm", "_increments_from_normals"): _count_synth,
    ("constants", "_rho_powers_stable"): _count_series,
    ("constants", "rho_power_sum"): _count_series_result,
    ("experiments", "_values_block"): _count_rows,
    ("cli", "main"): _count_exit,
}

# file-handle argument of each binary I/O function, for the byte counter; CSV
# text is left out because its length depends on the sampled values
_IO_FILE_ARG = {("fbm", "write_binary"): 1, ("fbm", "read_binary"): 0}


class _TracedGenerator:
    """Generator proxy that records standard_normal draws as rng spans."""

    def __init__(self, tracer, gen):
        self._tracer = tracer
        self._gen = gen

    def standard_normal(self, *args, **kwargs):
        out = self._tracer.call("rng.normals_s", self._gen.standard_normal, args, kwargs)
        self._tracer.counts["rng.normals"] += int(getattr(out, "size", 1))
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    """Self-time and counter accumulators plus the attribute patches."""

    def __init__(self):
        self.mods = {m: importlib.import_module(f"fbmvar.{m}") for m in MODULES}
        self.mods["fbmvar"] = importlib.import_module("fbmvar")
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.unhooked: list[str] = []
        self._stack: list[list[float]] = []
        self._build()

    # -- spans -------------------------------------------------------------
    def call(self, metric, fn, args, kwargs):
        self.counts["trace.spans"] += 1
        frame = [0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            self._stack.pop()
            self.self_time[metric] += dt - frame[0]
            self._stack[-1][0] += dt

    def begin_op(self):
        self._stack.append([0.0])

    def end_op(self, duration: float):
        frame = self._stack.pop()
        if self._stack:
            raise RuntimeError("unbalanced tracing stack")
        self.self_time["trace.unattributed_s"] += duration - frame[0]

    # -- patching ----------------------------------------------------------
    def _wrap(self, metric, fn, counter=None):
        tracer = self

        def traced(*args, **kwargs):
            result = tracer.call(metric, fn, args, kwargs)
            if counter is not None:
                counter(tracer.counts, args, result)
            return result

        return traced

    def _wrap_eigs(self, fn):
        tracer = self

        def traced(*args, **kwargs):
            before = fn.cache_info()
            try:
                return tracer.call("fbm.eigs_s", fn, args, kwargs)
            finally:
                after = fn.cache_info()
                tracer.counts["fbm.eigs_hits"] += after.hits - before.hits
                tracer.counts["fbm.eigs_misses"] += after.misses - before.misses

        return traced

    def _wrap_io(self, fn, fh_index):
        tracer = self

        def traced(*args, **kwargs):
            fh = args[fh_index]
            start = fh.tell()
            result = tracer.call("fbm.io_s", fn, args, kwargs)
            tracer.counts["fbm.io_bytes"] += fh.tell() - start
            return result

        return traced

    def _wrap_stream(self, fn):
        tracer = self

        def traced(*args, **kwargs):
            return _TracedGenerator(tracer, tracer.call("rng.normals_s", fn, args, kwargs))

        return traced

    def _targets(self):
        """(module, attribute, metric, counter) for every span to install."""
        exp = self.mods["experiments"]
        extra = {}
        for name in dir(exp):
            if _RUNNER.match(name) or (_BLOCK.match(name) and name != "_values_block"):
                extra[("experiments", name)] = "experiments.engine_self_s"
        for (mod, attr), metric in {**SPANS, **extra}.items():
            counter = COUNTERS.get((mod, attr))
            if _BLOCK.match(attr) and attr != "_values_block":
                counter = _count_block
            yield mod, attr, metric, counter

    def _build(self):
        self._plan = []
        for mod, attr, metric, counter in self._targets():
            fn = getattr(self.mods[mod], attr, None)
            if not callable(fn):
                self.unhooked.append(f"{mod}.{attr}")
                continue
            if attr == "_circulant_sqrt_eigs" and hasattr(fn, "cache_info"):
                wrapper = self._wrap_eigs(fn)
            elif (mod, attr) in _IO_FILE_ARG:
                wrapper = self._wrap_io(fn, _IO_FILE_ARG[(mod, attr)])
            elif (mod, attr) == ("rng", "stream"):
                wrapper = self._wrap_stream(fn)
            else:
                wrapper = self._wrap(metric, fn, counter)
            for holder in self.mods.values():
                for name, value in vars(holder).items():
                    if value is fn:
                        self._plan.append((holder, name, fn, wrapper))
        weights = self.mods["weights"]
        base = getattr(weights, "WeightFunction", None)
        for value in vars(weights).values():
            if isinstance(value, type) and base is not None and issubclass(value, base):
                fn = value.__dict__.get("derivative")
                if fn is not None and value is not base:
                    self._plan.append((value, "derivative", fn,
                                       self._wrap("weights.eval_s", fn)))

    def install(self):
        for holder, name, _, wrapper in self._plan:
            setattr(holder, name, wrapper)

    def uninstall(self):
        for holder, name, fn, _ in self._plan:
            setattr(holder, name, fn)
