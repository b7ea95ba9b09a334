"""Host-speed calibration: a fixed kernel timed between workload calls.

On a shared virtual machine the speed of identical work drifts by up to 1.6x
over seconds to minutes, as other tenants load the physical cores.  The
benchmark therefore runs this kernel, which does not touch qdiscord, every few
milliseconds of workload time and expresses every time it reports at
reference speed: a measured CPU time t is reported as t * REFERENCE_S / k,
where k is the kernel's local median time.  REFERENCE_S is the kernel's time
on the machine the baseline was measured on (2-vCPU Intel Xeon, Python 3.11,
numpy 2.4), so there reported times read as CPU seconds.

The kernel mixes what the library does per call: interpreted Python, small
numpy expressions over 720 axes, a 4x4 eigen-solve and scalar math.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Median kernel time on the baseline machine.
REFERENCE_S = 8.0e-4
# Calibration samples on each side of a call that make its local median.
HALF_WINDOW = 5

_N = 720
_Z = (np.arange(_N) + 0.5) / _N * 2.0 - 1.0
_PHI = np.arange(_N) * math.pi * (3.0 - math.sqrt(5.0))
_AXES = np.stack([np.sqrt(1.0 - _Z**2) * np.cos(_PHI), np.sqrt(1.0 - _Z**2) * np.sin(_PHI), _Z], axis=1)
_M = np.array([[2.0, 0.5, 0.0, 0.1], [0.5, 1.0, 0.3, 0.0], [0.0, 0.3, 0.5, 0.2], [0.1, 0.0, 0.2, 0.25]])


def kernel() -> float:
    total = 0.0
    for k in range(16):
        p = 0.5 * (1.0 + _AXES @ np.array([0.3, 0.05 * k, 0.5]))
        q = 1.0 - p
        total += float(np.max(-(p * np.log2(p) + q * np.log2(q))))
        total += float(np.linalg.eigvalsh(_M + k * np.eye(4))[0])
        for j in range(30):
            total += math.sqrt(j + k)
    return total


def sample() -> float:
    """CPU seconds of one kernel run."""
    began = time.process_time()
    kernel()
    return time.process_time() - began


def local_scales(kernel_s, kernel_after, calls: int) -> np.ndarray:
    """Per-call factors REFERENCE_S / (median of the nearest kernel samples).

    kernel_s[j] is the j-th kernel sample, taken right after call
    kernel_after[j]; the result has one factor for each of `calls` calls.
    """
    kernel_s = np.asarray(kernel_s, dtype=float)
    n = len(kernel_s)
    local = np.array([np.median(kernel_s[max(j - HALF_WINDOW, 0): j + HALF_WINDOW + 1]) for j in range(n)])
    nearest = np.minimum(np.searchsorted(np.asarray(kernel_after), np.arange(calls)), n - 1)
    return REFERENCE_S / local[nearest]
