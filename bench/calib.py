"""Host speed probe: a fixed piece of pure-Python work, timed between ops.

The host this benchmark was tuned on runs Python at one of two speeds about
1.3-1.6x apart, switching within a second or staying put for minutes, so a
whole run can fall in a slow stretch.  `work()` is timed between the ops of a
run, so its mean time follows the same mix of speeds as the ops' mean times,
and every timing the benchmark reports is scaled by REF_S / (mean `work()`
time of the same stretch): seconds at the speed at which `work()` takes
REF_S.  `work()` does what twistkit's hot loops do
(operator methods on small field-element objects, elimination over F_p and
over Q with `fractions.Fraction`) but shares no code with twistkit, so a
change to twistkit cannot move it.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

# Mean work() time on the baseline host (see README.md).
REF_S = 0.0125

P = 13


class _Fp:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v % P

    def __add__(self, other):
        return _Fp(self.v + other.v)

    def __sub__(self, other):
        return _Fp(self.v - other.v)

    def __mul__(self, other):
        return _Fp(self.v * other.v)

    def __ne__(self, other):
        return self.v != other.v

    def inv(self):
        return _Fp(pow(self.v, P - 2, P))


def _det(rows, zero, one, inv):
    """Determinant by Gaussian elimination on a copy of `rows`."""
    rows = [list(r) for r in rows]
    n, det = len(rows), one
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c] != zero), None)
        if piv is None:
            return zero
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = zero - det
        det = det * rows[c][c]
        pinv = inv(rows[c][c])
        for r in range(c + 1, n):
            f = rows[r][c] * pinv
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return det


_rng = random.Random(0)
_FP_MATS = [[[_Fp(_rng.randrange(P)) for _ in range(6)] for _ in range(6)] for _ in range(60)]
_Q_MATS = [[[Fraction(_rng.randrange(-9, 10), _rng.randrange(1, 5)) for _ in range(5)]
            for _ in range(5)] for _ in range(20)]
_FP_ZERO, _FP_ONE = _Fp(0), _Fp(1)


def work():
    """The fixed work; returns a checksum so that nothing is optimised away."""
    acc = 0
    for m in _FP_MATS:
        acc += _det(m, _FP_ZERO, _FP_ONE, _Fp.inv).v
    for m in _Q_MATS:
        acc += _det(m, Fraction(0), Fraction(1), lambda x: 1 / x).numerator
    return acc


def sample():
    """Seconds one work() takes now."""
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0


class Probe:
    """work() timed before an op whenever `every` seconds have passed since
    the last sample."""

    def __init__(self, every):
        self.every, self.samples, self._next = every, [], 0.0

    def maybe(self):
        if time.perf_counter() >= self._next:
            self.samples.append(sample())
            self._next = time.perf_counter() + self.every

    def scale(self):
        """Factor from this run's seconds to seconds at the reference speed."""
        return REF_S / statistics.fmean(self.samples)
