"""Machine speed, read from a fixed reference kernel.

The sandboxes this benchmark runs in share their cores with other tenants,
and their speed drifts by up to 2x in phases of tens of seconds, longer
than a run. A raw time then says more about the phase than about socone.
So every timed region is bracketed by runs of a fixed kernel of exact
rational arithmetic (the kind of work socone does), and the time is scaled
to the speed at which the kernel takes NOMINAL_S:

    scaled = measured * NOMINAL_S / kernel time around the measurement

As with a reference machine in SPEC-style scores, a scaled time is
comparable across runs and machines, and it equals wall time when the
machine runs at the nominal speed. The kernel does not import socone, so
no change to socone can move it. Raw times are kept beside the scaled ones
in every record.
"""

from __future__ import annotations

import time
from fractions import Fraction

# about the kernel's time on the 2-core Xeon sandbox of the baseline in a fast
# phase; it only sets the scale of the reported times
NOMINAL_S = 0.024
ROUNDS = 2400


def _kernel():
    acc = {}
    a, b = Fraction(3, 7), Fraction(-5, 11)
    for i in range(1, ROUNDS):
        x = Fraction(i, 13)
        re = a * x - b * x
        im = a * b + x
        acc[i % 17] = acc.get(i % 17, 0) + re * im
    return acc


def kernel_seconds() -> float:
    """Time of one run of the reference kernel."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def scaled(measured: float, before: float, after: float) -> float:
    """A time measured between two kernel runs, at nominal speed."""
    return measured * NOMINAL_S * 2 / (before + after)
