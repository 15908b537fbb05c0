"""Outside-in benchmark of fbmvar: workloads, output checks and layer tracing.

Run ``python3 perfbench/run.py --workload mc-clt --seed 1 --seconds 30 --trace 0``
from the repository root; see ``run.py`` for the metrics it prints.
"""
