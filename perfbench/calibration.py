"""Machine-speed calibration for the pure-Python timings (set-up, eval pass).

On the 2-core VM this benchmark was written on, the speed of the same code
drifts between regimes that last from seconds to minutes; pure-Python parsing
and formatting run up to ~1.8x slower in the slow regime. Medians over the
samples of one run cannot remove a drift that spans the whole run, so each
set-up and each CLI command is bracketed by a fixed kernel owned by the
benchmark (never by the program under test), timed right before and right
after it: format 40000 floats with repr and parse them back, the work of the
dataset, checkpoint and embedding files.

A sample's normalised time is its raw time times REFERENCE_S divided by the
mean kernel time around it: the time the operation would take on a machine
where the kernel takes REFERENCE_S. The program cannot change the kernel, so
a change to the program moves normalised and raw times alike. Pretrain
timings are not normalised: numpy kernels at the workloads' own sizes,
timed in the worker around the pretrain call, tracked them worse than no
correction at all.
"""

import time

import numpy as np

# Kernel time on the reference machine: about its time on the 2-core VM
# above in its fast regime. Fixed: changing it rescales every normalised time,
# so results before and after such a change do not compare.
REFERENCE_S = 0.05


class Calibration:
    def __init__(self):
        self._floats = np.random.default_rng(20201013).standard_normal(40000).tolist()

    def measure(self) -> float:
        started = time.perf_counter()
        text = " ".join(map(repr, self._floats))
        total = sum(map(float, text.split()))
        elapsed = time.perf_counter() - started
        if not np.isfinite(total):
            raise RuntimeError("calibration kernel produced a non-finite sum")
        return elapsed


def speed_factor(before: float, after: float) -> float:
    """REFERENCE_S over the mean kernel time around one operation."""
    return REFERENCE_S / ((before + after) / 2.0)
