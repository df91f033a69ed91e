"""Host speed, measured with a fixed reference kernel.

On the shared host the benchmark was built on, the same deterministic gomp
call ran up to 40% slower for minutes at a time, so the medians of two sets
of runs made 40 minutes apart differed by up to 25%. A fixed kernel of the
same kind of work slows down with gomp: tiny complex products and norms in
an interpreted loop, the pattern of the estimator's refinement step. Over
7 minutes of alternating calls, 20 s medians of an estimate, of a design
run and of a fresh ``import gomp.cli`` varied with inter-quartile spreads
of 0.12, 0.07 and 0.09. Their ratios to the kernel's time varied with
0.04, 0.02 and 0.05.

The end-to-end timings are therefore reported at a nominal host speed.
Each timing is scaled by REFERENCE_S over the kernel's median time in the
same phase of the run. The raw timings stay in the run record. The kernel
uses no gomp code, so no change to gomp moves it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# median kernel time on the host that recorded baseline.json (Intel Xeon,
# 2 vCPUs, Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31, one BLAS thread)
REFERENCE_S = 0.0144

_B = np.random.default_rng(0).standard_normal((16, 64)) * (1 + 1j)
_K = np.arange(64)


def reference_kernel() -> float:
    """Run the kernel once and return its wall time in seconds."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(1000):
        w = _B @ np.exp(1j * (0.001 * i) * _K)
        acc += float(np.linalg.norm(w) ** 2) + float(np.real(np.vdot(w, w)))
    return time.perf_counter() - start


class HostSpeed:
    """Kernel timings taken between the timed calls of one run."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, repeats: int = 2) -> None:
        self.samples.extend(reference_kernel() for _ in range(repeats))

    @property
    def scale(self) -> float:
        """Factor that turns a time measured in this run into one at the
        nominal host speed."""
        return REFERENCE_S / statistics.median(self.samples)
