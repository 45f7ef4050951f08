"""Host-speed probe: a fixed piece of pure-Python work, timed in short units.

The shared host this benchmark was tuned on switches between a fast and a
slow state many times a second, and the share of time it spends slow drifts
over minutes, which moves every timing of a run by up to 25%.  A run
therefore times this probe between its operations and scales its timings
by `UNIT_S / mean unit time` (see run.py).  The probe imports nothing from
hasseorder, so a change to the library cannot move it; its work mimics the
library's: small-object ring arithmetic on lists of ints, and a modular
elimination.
"""

from __future__ import annotations

import time

MODULUS = 3 ** 8
PRIME = 10007

# Nominal time of one unit on the reference host (Python 3.11, Intel Xeon).
UNIT_S = 0.010


class Poly:
    """An element of (Z/3^8)[x]/(x^4 - 2x - 1), like a T element."""

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def __mul__(self, other):
        a, b = self.c, other.c
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        n = len(a)
        for k in range(len(out) - 1, n - 1, -1):
            t = out[k]
            if t:
                out[k - n] += t
                out[k - n + 1] += 2 * t
        return Poly([x % MODULUS for x in out[:n]])

    def __add__(self, other):
        return Poly([(x + y) % MODULUS for x, y in zip(self.c, other.c)])


def _det(rows):
    """Determinant mod PRIME by elimination."""
    m = [r[:] for r in rows]
    n, d = len(m), 1
    for i in range(n):
        piv = next((r for r in range(i, n) if m[r][i] % PRIME), None)
        if piv is None:
            return 0
        if piv != i:
            m[i], m[piv] = m[piv], m[i]
            d = -d
        inv = pow(m[i][i], -1, PRIME)
        d = d * m[i][i] % PRIME
        for r in range(i + 1, n):
            f = m[r][i] * inv % PRIME
            if f:
                m[r] = [(x - f * y) % PRIME for x, y in zip(m[r], m[i])]
    return d % PRIME


def unit(k):
    """One unit of work (about UNIT_S); returns a checksum."""
    acc, seen = 0, {}
    for rep in range(36):
        j = 36 * k + rep
        a = Poly([(j * 7 + i * 13) % MODULUS for i in range(4)])
        b = Poly([(j * 11 + i * 5 + 1) % MODULUS for i in range(4)])
        x = a
        for _ in range(30):
            x = x * b + a
            key = tuple(x.c)
            seen[key] = seen.get(key, 0) + 1
        acc += sum(x.c)
        acc += _det([[(i * 31 + c * 17 + j) % PRIME for c in range(8)]
                     for i in range(8)])
    return acc + len(seen)


def probe(units):
    """Times of `units` consecutive units."""
    times = []
    for k in range(units):
        start = time.perf_counter()
        unit(k)
        times.append(time.perf_counter() - start)
    return times
