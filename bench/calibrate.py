"""Machine-speed calibration for the end-to-end throughput.

On a shared machine the speed of one core drifts by up to a half over
seconds (other tenants, frequency changes), far more than the effects the
benchmark must resolve.  A fixed kernel that shares no code with the package
is timed right before and after every experiment, and the experiment's rate
is scaled to the machine speed at which the kernel takes its nominal time:

    reported rate = measured rate * kernel time / nominal time

Different code slows by different amounts, so each workload is scaled by a
kernel doing the same kind of work:

- ``interpreter``: random numbers, list appends and comparisons in pure
  Python, like the simulator and the Monte Carlo loop;
- ``quadrature``: scipy.integrate.quad over a Python integrand, like the
  theory curves (compiled QUADPACK calling back into Python).

Over 20-second windows this left 2.2% spread on theory_curves with the
quadrature kernel against 6% with the interpreter one (27% unscaled).  The
raw wall-clock rates are printed and recorded next to the scaled ones.
Set-up time is not scaled: import speed follows neither kernel.
"""

from __future__ import annotations

import math
import random
import statistics
import time

# kernel times on an idle core of the machine the baseline was taken on
NOMINAL_S = {"interpreter": 0.002, "quadrature": 0.0005}

_REPEATS = 5


def _interpreter() -> None:
    rng = random.Random(12345)
    draw = rng.random
    xs: list[float] = []
    for _ in range(10_000):
        u = draw()
        xs.append(u)
        if u >= 0.5 and len(xs) > 64:
            xs[int(u * 64)] = xs[-1]
            xs.pop()


def _quadrature() -> None:
    from scipy.integrate import quad

    for k in range(12):
        a = 0.002 * (k + 1)
        quad(
            lambda s: math.exp(0.7 * s - a * math.exp(0.7 * s)) * (1.0 - math.exp(-1.5 * s)),
            0.0,
            12.0,
            epsabs=1e-12,
            epsrel=1e-11,
            limit=400,
        )


_KERNELS = {"interpreter": _interpreter, "quadrature": _quadrature}


def measure(kind: str) -> float:
    """Median wall time of a few runs of one kernel, in seconds."""
    kernel = _KERNELS[kind]
    times = []
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
