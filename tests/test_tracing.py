"""The benchmark's layer tracer hooks what the library calls.

``perfbench.tracing`` wraps fbmvar functions by name and lists a name it
cannot find in ``Tracer.unhooked``; a renamed function would otherwise
leave its layer metric silently at zero.
"""

from pathlib import Path
from time import perf_counter

from fbmvar.experiments import ExperimentConfig, run_noncentral

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
        run_noncentral(cfg)
        tracer.end_op(perf_counter() - start)
    finally:
        tracer.uninstall()
    assert tracer.self_time["hermite.eval_s"] > 0.0
    assert tracer.self_time["hermite_process.partial_sums_s"] > 0.0
    assert tracer.counts["experiments.blocks"] > 0
