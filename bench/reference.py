"""Fixed reference work that gauges the host's current speed.

The benchmark shares a few cores with other tenants, and their load changes
how fast the same code runs by up to 2x within minutes.  Timing fixed work
right after each operation and dividing by it cancels most of that drift.
The reference uses no ofbmkit code, so a change to the package cannot move it.

There are two references, one for each kind of operation:

* :func:`kernel`, for the in-process workloads (mc, sliding): the same kind of
  work as the package (small convolutions, 4 x 4 matrix products and
  eigenvalues, logs, a line fit, numpy calls from Python) on fixed inputs.
  One unit is one call, 64 passes of its loop, about 20 ms on a 2-vCPU cloud
  sandbox.
* :func:`cold`, for the cold CLI commands and set-up, whose time is mostly
  interpreter start and imports: a fresh interpreter that imports numpy.
  In-process compute tracks the speed of cold starts poorly.  Set-up time is
  reported in seconds on a host where this takes ``COLD_NOMINAL_S``, about
  what it takes on a quiet 2-vCPU cloud sandbox.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

PASSES = 64
COLD_NOMINAL_S = 0.15
_rng = np.random.default_rng(20231103)
_X = _rng.standard_normal((4, 4096))
_H = _rng.standard_normal(8)
_T = np.arange(4.0)


def kernel() -> float:
    """One reference unit of work; returns a checksum so it cannot be skipped."""
    total = 0.0
    for _ in range(PASSES):
        a = _X
        logs = []
        for _ in range(4):
            a = np.stack([np.convolve(row, _H, "valid")[::2] for row in a])
            logs.append(np.log(np.linalg.eigvalsh(a @ a.T / a.shape[1])))
        total += np.polyfit(_T, np.stack(logs), 1)[0].sum()
    return float(total)


def timed(units: int) -> float:
    """Wall seconds per reference unit, over ``units`` consecutive units."""
    t = time.perf_counter()
    for _ in range(units):
        kernel()
    return (time.perf_counter() - t) / units


def cold(cwd) -> float:
    """Wall seconds of a fresh interpreter that imports numpy."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=cwd, check=True, timeout=60)
    return time.perf_counter() - t
