"""Host speed, sampled between ops with a fixed reference kernel.

The 2-core host this benchmark was tuned on runs the same code at speeds
up to twice apart, changing every few seconds or staying for minutes, on
each core separately, with no steal time reported: CPU time slows with
wall time.  Medians over the passes of one run do not remove a change that lasts
longer than the run, so two runs of the same code differ by as much as the
host's speed did.

The benchmark therefore times, between ops, a short kernel that never
changes and uses no `neurovar` code: sparse polynomial products over dicts
of exponent tuples modulo a prime, and `Fraction` sums, the two kinds of
work the package spends its time in.  An op's time is scaled by
`NOMINAL_S / (median kernel time around the op)`, which gives the op's time
on a host where the kernel takes `NOMINAL_S`.  `NOMINAL_S` is the kernel's
median time on that 2-core host, so scaled times read close to its wall
times.  A change to the program leaves the kernel as it is, so the scaled
times move with the program and not with the host.
"""

from __future__ import annotations

import bisect
import statistics
from fractions import Fraction
from time import perf_counter

# The kernel's median time on the host the benchmark was tuned on (Intel
# Xeon, 2 cores, Python 3.11.7).
NOMINAL_S = 0.0194
# Sample at most this often; a sample lasts about NOMINAL_S.
SAMPLE_EVERY_S = 0.5
# An op is scaled by the median of the samples taken within this many
# seconds of it.
WINDOW_S = 0.5

_PRIME = 2147483647
_A = {(i, j, k): i * 7 + j * 3 + k + 1 for i in range(8) for j in range(8) for k in range(4)}
_B = {(i, j, k): i + 2 * j + 5 * k + 3 for i in range(4) for j in range(4) for k in range(4)}
_BLOCKS = 60


def kernel():
    """Fixed work: one sparse product mod p and short `Fraction` sums."""
    out = {}
    for ma, ca in _A.items():
        for mb, cb in _B.items():
            m = (ma[0] + mb[0], ma[1] + mb[1], ma[2] + mb[2])
            out[m] = (out.get(m, 0) + ca * cb) % _PRIME
    sums = []
    for block in range(_BLOCKS):
        x = Fraction(0)
        for i in range(block * 16 + 1, block * 16 + 17):
            x += Fraction(i, i + 7) * Fraction(3, i + 1)
        sums.append(x)
    return len(out), sums


class HostSpeed:
    """Kernel samples over a run: middle times and durations, in time order."""

    def __init__(self):
        self.times: list[float] = []
        self.seconds: list[float] = []
        kernel()  # warm-up

    def sample(self, force: bool = False) -> None:
        """Time the kernel, unless a sample was taken less than
        SAMPLE_EVERY_S ago (or `force`)."""
        start = perf_counter()
        if not force and self.times and start - self.times[-1] < SAMPLE_EVERY_S:
            return
        kernel()
        end = perf_counter()
        self.times.append((start + end) / 2)
        self.seconds.append(end - start)

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the median kernel time within WINDOW_S of [start, end].

        Every op follows a `sample` call, so the window is never empty.
        """
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        return NOMINAL_S / statistics.median(self.seconds[lo:hi])
