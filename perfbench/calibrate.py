"""Machine-speed calibration for the timings.

The benchmark host is shared: over seconds to minutes the same job can take
1.5x as long, with no change to the program.  A fixed kernel of the kinds of
work rittforge does is timed right before and right after every job: a
Gaussian-rational polynomial product in ``fractions.Fraction`` (from this
directory's ``exact``) and compositions of relations stored as integer
bitmask rows with dictionary lookups (as in ``corrfinite``).  Dividing the
job's time by the kernel's time at that moment, and scaling by the kernel's
time on a quiet host (``REFERENCE_S``), gives the job's time on that quiet
host.

The kernel never calls the program, so no change to the program can move it;
it runs with the cyclic garbage collector paused, so heap left behind by the
program does not slow it either.
"""

from __future__ import annotations

import gc
import random
import time
from fractions import Fraction

import exact as E

# the kernel's time on the host the baseline was recorded on, at its quietest
REFERENCE_S = 0.0025


def _poly(rng, n):
    return tuple((Fraction(rng.randint(-99, 99), rng.randint(1, 99)),
                  Fraction(rng.randint(-99, 99), rng.randint(1, 99))) for _ in range(n))


_RNG = random.Random(20100917)
_P, _Q = _poly(_RNG, 12), _poly(_RNG, 12)
_RELATIONS = [tuple(_RNG.randint(1, 15) for _ in range(4)) for _ in range(20)]


def _compose_all():
    """Compose every pair of relations on a 4-point set, counting the products."""
    seen = {}
    for r2 in _RELATIONS:
        for r1 in _RELATIONS:
            prod = []
            for row in r1:
                acc = 0
                for y in range(4):
                    if row >> y & 1:
                        acc |= r2[y]
                prod.append(acc)
            key = tuple(prod)
            seen[key] = seen.get(key, 0) + 1
    return len(seen)


def kernel_s():
    """Seconds one run of the kernel takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        E.pmul(_P, _Q)
        _compose_all()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def slowdown(samples=5):
    """How much slower than the reference host this one runs now (median)."""
    times = sorted(kernel_s() for _ in range(samples))
    return times[len(times) // 2] / REFERENCE_S
