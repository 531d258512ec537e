"""Machine-speed calibration for the benchmark's timings.

The machines this benchmark runs on drift in speed by +-25 % within
minutes.  Measured on a 2-vCPU x86-64 VM: ten wall-time runs of one
``jet-algebra`` cycle spread by 25 % (IQR over median), and a fixed
pure-Python loop sped up and slowed down with them.  That is as wide as
any bound worth setting.  So every timed call is bracketed by runs of a
fixed kernel of benchmark code, which no fsjet change touches, and its
wall time is rescaled to the speed at which the kernel takes
``REFERENCE_S``:

    reference seconds = wall seconds * REFERENCE_S / kernel seconds now

A faster fsjet reads faster at any machine speed, and a slow minute of
the machine no longer reads as a regression.  Wall times are kept in the
run record next to the rescaled ones.
"""

from __future__ import annotations

import statistics
import time

# Seconds the kernel takes at reference speed: its median on the VM above
# with CPython 3.11, so that reference seconds read like wall seconds there.
REFERENCE_S = 0.004


def kernel() -> complex:
    """Truncated product of two dense polynomials kept as exponent dicts:
    the same kind of interpreter work (tuples, dicts, complex floats) as
    the fsjet hot loops."""
    a = {(i, j, k): complex(i + 1, j - k) for i in range(9) for j in range(9) for k in range(9)
         if i + j + k <= 8}
    out: dict = {}
    for ea, ca in a.items():
        da = ea[0] + ea[1] + ea[2]
        for eb, cb in a.items():
            if da + eb[0] + eb[1] + eb[2] > 8:
                continue
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            out[e] = out.get(e, 0) + ca * cb
    return sum(out.values())


def kernel_s(repeats: int = 5) -> float:
    """Median wall seconds of the kernel right now."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
