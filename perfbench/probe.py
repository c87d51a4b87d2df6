"""Host-speed probe: fixed kernels, independent of the package, timed between operations.

The benchmark host is shared with other tenants, and the speed it gives one
process drifts by up to 2x over seconds to minutes, with no steal time to
show for it.  A median over one 20-second run cannot average that out.  So
the runner times a probe before every operation and reports times at
reference speed: measured seconds x the probe's factor.

The probe is the same for every workload and every commit, so no figure
depends on a guess of what kind of work the package does.  It runs three
kernels back to back, one per kind of work the package does today: a Python
loop reading and writing numpy scalars (the slot simulator), tuple keys in a
dict (the chain build) and whole-array sweeps (value iteration).  The factor
is the kernels' total reference seconds over their total measured seconds.
It corrects a head that changes the kind of work (a compiled simulator, say)
less well than one that does not; run records and ``compare.py`` keep the
raw seconds beside the scaled ones for that case.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Seconds per probe kernel at reference speed, about their times on the
#: benchmark's 2-CPU host when that host is quiet.
REFERENCE_S = {"loop": 0.0034, "dict": 0.0008, "array": 0.0010}
#: Kernel runs per probe; the probe takes the median of each kernel's runs.
REPEATS = 3


class Probe:
    """Times every kernel and returns the factor to reference speed."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.draws = rng.random(6000)
        self.sums = np.zeros(8, dtype=np.int64)
        self.grid = rng.random((100, 100))
        self.samples: list[dict[str, float]] = []

    def loop(self) -> None:
        a = z = 0
        for k in range(self.draws.shape[0]):
            if self.draws[k] < 0.3:
                a, z = z + 1, 0
            else:
                a, z = a + 1, z + 1
            self.sums[k & 7] += a

    def dict(self) -> None:
        index = {}
        for i in range(3000):
            index[(i, i & 15)] = len(index)

    def array(self) -> None:
        grid = self.grid
        for _ in range(30):
            grid = np.minimum(grid[::-1] + 1.0, 0.5 * grid.T + 2.0)

    def __call__(self) -> float:
        """Factor converting seconds measured now into seconds at reference speed."""
        seconds = {}
        for kind in REFERENCE_S:
            kernel = getattr(self, kind)
            times = []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                kernel()
                times.append(time.perf_counter() - t0)
            seconds[kind] = statistics.median(times)
        self.samples.append(seconds)
        return factor(seconds)


def factor(seconds: dict[str, float]) -> float:
    """Total reference seconds of the kernels over their total measured seconds."""
    return sum(REFERENCE_S.values()) / sum(seconds.values())
