"""Host-speed calibration: a fixed numpy kernel timed between the ops.

The benchmark shares a few cores of a host whose speed drifts by a quarter
over minutes (neighbours' load on the shared caches and memory), so raw wall
times of the same code spread further than any useful bound.  The kernel
below does the same kind of work as the circulant sampler - Philox normals,
a complex spectrum, a batched FFT and a cumulative sum - but on fixed inputs
and with numpy alone, so no change to fbmvar changes its cost.  It runs at
three sizes, because the workloads' FFT rows fit in L2 (level 14, mc-clt),
spill from it (level 16, mc-noncentral) or reach main memory (levels 20-22,
cli-requests), and the neighbours slow each of these by a different share.
Each op's latency is scaled by ``REFERENCE_S`` over the kernel's mean time
just before and just after it, which gives the op's time in seconds of the
reference host (the 2-vCPU Xeon the benchmark was defined on, where the
kernel takes ``REFERENCE_S``).  Its transient memory (under 100 MiB) stays
well below every workload's own peak, so ``peak_rss_mb`` remains the
program's.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# (level, rows) of each part: 2^20 normals apiece
PARTS = ((14, 32), (16, 8), (19, 1))
REFERENCE_S = 0.2


def _kernel() -> float:
    total = 0.0
    for level, rows in PARTS:
        m = 2 ** (level + 1)
        half = m // 2
        z = np.empty((rows, m))
        for i in range(rows):
            z[i] = np.random.Generator(np.random.Philox(key=[level, i])).standard_normal(m)
        spec = np.zeros((rows, m), dtype=complex)
        spec[:, 1:half] = z[:, 2:m - 1:2] + 1j * z[:, 3:m:2]
        x = np.fft.fft(spec, axis=1).real[:, :half]
        total += float(np.sum(np.cumsum(x, axis=1) ** 2))
    return total


class Calibration:
    """Times the kernel and checks that it computes the same value every time."""

    def __init__(self):
        self.value = _kernel()  # also warms numpy's FFT plan cache
        self.samples: list[float] = []

    def measure(self) -> float:
        """Seconds the kernel takes now."""
        t0 = perf_counter()
        value = _kernel()
        elapsed = perf_counter() - t0
        if value != self.value:
            raise RuntimeError(f"calibration kernel gave {value!r}, first {self.value!r}")
        self.samples.append(elapsed)
        return elapsed
