"""Defining data of the finite fields F_{p^m}.

For a fixed (p, m) the defining polynomial is always the least monic
irreducible one in the deterministic order below, so contexts are
reproducible across runs.  One set of dense polynomial helpers serves that
search over Z/p and the subfield root finding over F_{p^m}; arithmetic in
F_{p^m} itself is the flat kernel of `localring` at (e, n) = (1, 1)
(`localring.residue_field`).
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import product

from .errors import InternalError, ParameterError


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


# ---------------------------------------------------------------------------
# dense polynomial helpers over a field K (tuples, low-to-high, no trailing
# zeros): Z/p on ints, or F_{p^m} on kernel elements


class _Field:
    """The coefficient arithmetic the helpers need beyond + - *: `red` maps
    a sum or product to its canonical representative."""

    __slots__ = ("zero", "one", "red", "inv")

    def __init__(self, zero, one, red, inv):
        self.zero, self.one, self.red, self.inv = zero, one, red, inv


def _trim(c, zero):
    i = len(c)
    while i > 0 and c[i - 1] == zero:
        i -= 1
    return tuple(c[:i])


def _padd(a, b, K):
    if len(a) < len(b):
        a, b = b, a
    return _trim([K.red(x + y) for x, y in zip(a, b)] + list(a[len(b):]), K.zero)


def _pmul(a, b, K):
    if not a or not b:
        return ()
    zero = K.zero
    out = [zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai != zero:
            for k, bj in enumerate(b, i):
                out[k] += ai * bj
    return _trim(list(map(K.red, out)), zero)


def _pmod(a, m, K):
    # m monic; only the leading coefficient is reduced in the loop
    a = list(a)
    dm = len(m) - 1
    red, zero = K.red, K.zero
    if len(a) > dm:
        terms = [(j - dm, mj) for j, mj in enumerate(m[:dm]) if mj != zero]
        for i in range(len(a) - 1, dm - 1, -1):
            c = red(a[i])
            if c != zero:
                for j, mj in terms:
                    a[i + j] -= c * mj
    return _trim(list(map(red, a[:dm])), zero)


def _ppowmod(a, e, m, K):
    r = (K.one,)
    a = _pmod(a, m, K)
    while e:
        if e & 1:
            r = _pmod(_pmul(r, a, K), m, K)
        e >>= 1
        if e:
            a = _pmod(_pmul(a, a, K), m, K)
    return r


def _pgcd(a, b, K):
    """Monic gcd (unless b = 0, when a is returned as given)."""
    a, b = _trim(a, K.zero), _trim(b, K.zero)
    while b:
        inv = K.inv(b[-1])
        bm = tuple([K.red(c * inv) for c in b])
        a, b = bm, _pmod(a, bm, K)
    return a


def _is_irreducible(poly, p):
    """Monic poly of degree m: gcd(x^{p^k} - x, poly) = 1 for 0 < k <= m/2
    (Ben-Or).  A reducible poly has an irreducible factor of some degree
    k <= m/2, and that factor divides x^{p^k} - x."""
    m = len(poly) - 1
    if m == 1:
        return True
    if poly[0] == 0:  # divisible by x
        return False
    K = _Field(0, 1, p.__rmod__, lambda c: pow(c, -1, p))
    minus_x = (0, p - 1)
    xp = (0, 1)
    for k in range(1, m // 2 + 1):
        xp = _ppowmod(xp, p, poly, K)
        if len(_pgcd(poly, _padd(xp, minus_x, K), K)) > 1:
            return False
    return True


@lru_cache(maxsize=None)
def defining_poly(p: int, m: int) -> tuple:
    """The least monic irreducible polynomial of degree m over F_p, low-to-high.

    Candidates are ordered by their coefficient tuples read from the
    highest-degree coefficient down, which picks e.g. x^3 + x + 1 over F_2
    and x^2 + 1 over F_3.
    """
    if not is_prime(p):
        raise ParameterError(f"p = {p} is not prime")
    if not 1 <= m <= 16:
        raise ParameterError(f"extension degree m = {m} out of range [1, 16]")
    if p ** m >= 1 << 63:
        raise ParameterError(f"field order p^m = {p}^{m} exceeds 64 bits")
    for hi in product(range(p), repeat=m):
        poly = tuple(hi[::-1]) + (1,)  # low-to-high with leading 1
        if _is_irreducible(poly, p):
            return poly
    raise ParameterError("no irreducible polynomial found")  # pragma: no cover


def _split(g, F, K, rng):
    """A proper monic factor of g, a monic product of at least two distinct
    linear factors over F = F_Q (equal-degree splitting).

    With c drawn from F, the roots a of g are separated by whether a + c is
    a square (odd p: gcd with (X + c)^((Q-1)/2) - 1) or by the absolute
    trace of c*a (p = 2: gcd with sum_{i<m} (cX)^(2^i) mod g).  Each draw
    splits g with probability about 1/2 or more."""
    for _ in range(64):
        c = F.random(rng)
        if F.p == 2:
            t = h = _pmod((K.zero, c), g, K)
            for _ in range(F.m - 1):
                t = _pmod(_pmul(t, t, K), g, K)
                h = _padd(h, t, K)
        else:
            h = _ppowmod((c, K.one), (F.p ** F.m - 1) // 2, g, K)
            h = _padd(h, (-K.one,), K)
        h = _pgcd(g, h, K)
        if 1 < len(h) < len(g):
            return h
    raise InternalError("equal-degree splitting found no factor")


@lru_cache(maxsize=None)
def embedding_root(small, big):
    """Least root of small.poly inside big, in the order of the coefficient
    tuples read from the top (theta^(m-1) first).

    small and big are residue fields (`localring.residue_field`) with
    small.m | big.m and the same characteristic.  small.poly is irreducible
    of degree f = small.m, so its f roots in big are one orbit of the
    p-power Frobenius: one root is split off by equal-degree splitting
    (Cantor-Zassenhaus), the orbit gives the others.  The splitting
    elements come from a fixed-seed generator; the result does not depend
    on them.
    """
    if small.p != big.p or big.m % small.m != 0:
        raise ParameterError("no subfield embedding between these contexts")
    K = _Field(big.zero, big.one, lambda c: c, lambda c: c.inv())  # kernel ops reduce
    g = tuple(big.from_int(c) for c in small.poly)
    rng = random.Random(0)
    while len(g) > 2:
        g = _split(g, big, K, rng)
    orbit = [-g[0]]
    for _ in range(small.m - 1):
        orbit.append(big.frobenius_p(orbit[-1]))
    root = min(orbit, key=lambda x: x.coeffs[::-1])
    if not big._eval_int_poly(small.poly, root).is_zero():
        raise InternalError("subfield embedding root is not a root")
    return root
