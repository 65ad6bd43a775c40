"""Machine-speed calibration kernel.

On a shared host the speed of a CPU can drift by 2x over tens of seconds
(CPU time tracks wall time, so this is not scheduling).  The worker runs this
fixed kernel between jobs and scales each job's wall time by ``REFERENCE_S``
over the mean of the kernel times just before and after it.  Scaling by the
run's median kernel time instead spread 17% across runs, against 5-7% this
way (10 runs each of counts_grid and cli_sweep): the drift within one run
matters.  The kernel imports nothing from leofim, so a change to the program
never changes it; its mix follows the jobs': Python-level calls on tiny numpy
arrays, small dense eigenproblems and BLAS products.  Its arrays take under
1 MB, so it does not move peak RSS.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel time on an uncontended 2-vCPU x86-64 host with numpy 2.4 and one
# OpenBLAS thread; normalized job times are seconds at that speed.
REFERENCE_S = 0.046

_RNG = np.random.default_rng(0)
_VEC = _RNG.standard_normal(3)
_SMALL = _RNG.standard_normal((40, 40))
_MID = _RNG.standard_normal((300, 300))


def scaled(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """``seconds`` at the speed where the kernel takes ``REFERENCE_S``."""
    return seconds * REFERENCE_S * 2 / (kernel_before + kernel_after)


def kernel_seconds() -> float:
    """Wall time of one run of the fixed kernel."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(1500):
        v = np.array([_VEC[0] + i, _VEC[1], _VEC[2]])
        acc += float(np.linalg.norm(np.cross(v, _VEC)))
    for _ in range(60):
        np.linalg.eigvalsh(_SMALL @ _SMALL.T)
    for _ in range(3):
        _MID @ _MID
    return time.perf_counter() - start
