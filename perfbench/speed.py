"""Host-speed calibration, so that times from a shared host compare.

On a host whose cores are shared with other tenants, the same exact
computation can take a third more or less time from one minute to the
next.  The benchmark therefore interleaves a fixed calibration kernel
with the timed operations, spending about :data:`SHARE` of each
operation's time on it, and scales every time of a pass by

    REFERENCE_S / mean kernel time in that pass.

The kernel does the three kinds of work homlie spends its time in (exact
elimination, a dense ``Fraction`` matrix product and sparse identity
residuals), with code written in the benchmark itself, so no change to
homlie can change it: a faster homlie moves the scaled times, a slower
host moves kernel and operations together and cancels out.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter

import exact

SHARE = 0.1
# kernel time on an unloaded host: 2.1 GHz Xeon, CPython 3.11.7
REFERENCE_S = 0.0035

_RNG = random.Random(5)
_ELIM = [[Fraction(_RNG.randint(-3, 3), _RNG.randint(1, 4)) for _ in range(10)]
         for _ in range(14)]
_DENSE = tuple(Fraction(_RNG.randint(-3, 3), _RNG.randint(1, 3))
               if _RNG.random() < 0.6 else Fraction(0) for _ in range(100))


def _h5_brackets():
    zero = (Fraction(0),) * 5
    z = (Fraction(0),) * 4 + (Fraction(1),)
    table = [[zero] * 5 for _ in range(5)]
    for i, j in ((0, 2), (1, 3)):
        table[i][j] = z
        table[j][i] = tuple(-x for x in z)
    return table


class _Twist:
    @staticmethod
    def at(r, c):
        return Fraction((1, 1, 2, 2, 2)[r]) if r == c else Fraction(0)


class _H5:
    """h5 with twist diag(1, 1, 2, 2, 2), as plain data."""

    n = 5
    degrees = (0,) * 5
    brackets = _h5_brackets()
    alpha = _Twist


_ALGEBRA = exact.Algebra(_H5)
_MAP = [[(0, 0, Fraction(1)), (1, 1, Fraction(2, 3)), (2, 2, Fraction(-1, 2)),
         (4, 4, Fraction(5))]]


def _matmul(a, b, n: int) -> tuple:
    out = []
    for r in range(n):
        row = a[r * n:(r + 1) * n]
        for c in range(n):
            acc = Fraction(0)
            for k in range(n):
                if row[k]:
                    acc += row[k] * b[k * n + c]
            out.append(acc)
    return tuple(out)


def kernel() -> None:
    """One calibration sample."""
    exact.rank(_ELIM, 10)
    _matmul(_DENSE, _DENSE, 10)
    for _ in range(3):
        exact.defining_residuals(_ALGEBRA, "Der", 1, 0, _MAP)


class Speedometer:
    """Kernel samples collected since the last :meth:`factor` call."""

    def __init__(self):
        self.samples: list[float] = []

    def sample_for(self, busy_s: float, at_least: int = 1) -> None:
        """Run the kernel for SHARE of ``busy_s``, at least ``at_least``
        times."""
        spent, count = 0.0, 0
        while count < at_least or spent < SHARE * busy_s:
            t0 = perf_counter()
            kernel()
            dt = perf_counter() - t0
            self.samples.append(dt)
            spent += dt
            count += 1

    def factor(self) -> float:
        """How much slower than the reference the host ran, over the
        samples since the previous call."""
        slow = statistics.fmean(self.samples) / REFERENCE_S
        self.samples = []
        return slow
