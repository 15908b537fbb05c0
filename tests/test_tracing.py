"""The benchmark's layer tracer hooks what the library calls.

``perfbench.tracing`` wraps fbmvar functions by name and lists a name it
cannot find in ``Tracer.unhooked``; a renamed function would otherwise
leave its layer metric silently at zero.
"""

from pathlib import Path
from time import perf_counter

from fbmvar import cli, fbm
from fbmvar.experiments import ExperimentConfig, run_experiment

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_hooks_every_layer_of_a_noncentral_run(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))  # perfbench sits at the repository root
    from perfbench.tracing import Tracer

    tracer = Tracer()
    assert tracer.unhooked == []
    cfg = ExperimentConfig("noncentral", hurst=0.9, order=2, weight="cos:1.0",
                           levels=(5, 6), replicates=100, master_seed=3,
                           fine_offset=3, threads=1)
    tracer.install()
    try:
        tracer.begin_op()
        start = perf_counter()
        run_experiment(cfg)
        tracer.end_op(perf_counter() - start)
    finally:
        tracer.uninstall()
    assert tracer.self_time["hermite.eval_s"] > 0.0
    assert tracer.self_time["hermite_process.partial_sums_s"] > 0.0
    assert tracer.counts["experiments.blocks"] > 0


def test_tracer_times_the_layers_of_single_requests(monkeypatch, tmp_path):
    # small versions of the benchmark's single-request ops, each traced as one op
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.tracing import Tracer

    tracer = Tracer()
    assert tracer.unhooked == []
    binary = tmp_path / "path.fbm"
    ops = [
        ["constants", "--H", "0.6", "--q", "2"],
        ["sample", "--H", "0.7", "--n", "10", "--seed", "1", "--format", "bin",
         "--out", str(binary)],
        ["sample", "--H", "0.3", "--n", "9", "--seed", "2", "--format", "csv",
         "--out", str(tmp_path / "path.csv")],
        ["variation", "--H", "0.6", "--n", "10", "--q", "2", "--renormalize"],
        ["variation", "--H", "0.6", "--n", "10", "--q", "2", "--power", "--centered"],
        ["hermite-process", "--q", "2", "--H", "0.8", "--m", "10", "--n-out", "5"],
    ]
    fbm._circulant_sqrt_eigs.cache_clear()  # a fresh process starts with it empty
    tracer.install()
    try:
        for argv in ops:
            tracer.begin_op()
            start = perf_counter()
            assert cli.main(argv) == 0
            if "bin" in argv:  # read back, as the benchmark's binary ops do
                with open(binary, "rb") as fh:
                    fbm.read_binary(fh)
            tracer.end_op(perf_counter() - start)
    finally:
        tracer.uninstall()
    for metric in ("fbm.eigs_s", "fbm.synth_s", "fbm.io_s", "variations.single_path_s",
                   "hermite_process.partial_sums_s", "constants.series_s"):
        assert tracer.self_time[metric] > 0.0, metric
    assert tracer.counts["fbm.eigs_misses"] > 0
    assert tracer.counts["fbm.io_bytes"] > 0
    assert tracer.counts["cli.exit_nonzero"] == 0
