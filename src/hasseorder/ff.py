"""Defining data of the finite fields F_{p^m}.

For a fixed (p, m) the defining polynomial is always the least monic
irreducible one in the deterministic order below, so contexts are
reproducible across runs.  Arithmetic in F_{p^m} is the flat kernel of
`localring` at (e, n) = (1, 1) (`localring.residue_field`), and one set of
dense polynomial helpers over such a field serves both the irreducibility
test of that search, over F_p, and the subfield root finding over F_{p^m}.
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
# dense polynomial helpers over a kernel field F (`localring.residue_field`):
# tuples of its elements, low-to-high, no trailing zeros


def _trim(c):
    i = len(c)
    while i > 0 and c[i - 1].is_zero():
        i -= 1
    return tuple(c[:i])


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    return _trim([x + y for x, y in zip(a, b)] + list(a[len(b):]))


def _pmul(a, b, F):
    if not a or not b:
        return ()
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai.is_zero():
            for k, bj in enumerate(b, i):
                out[k] += ai * bj
    return _trim(out)


def _pmod(a, m):
    # m monic
    a = list(a)
    dm = len(m) - 1
    terms = [(j - dm, mj) for j, mj in enumerate(m[:dm]) if not mj.is_zero()]
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if not c.is_zero():
            for j, mj in terms:
                a[i + j] -= c * mj
    return _trim(a[:dm])


def _ppowmod(a, e, m, F):
    r = (F.one,)
    a = _pmod(a, m)
    while e:
        if e & 1:
            r = _pmod(_pmul(r, a, F), m)
        e >>= 1
        if e:
            a = _pmod(_pmul(a, a, F), m)
    return r


def _pgcd(a, b):
    """Monic gcd (unless b = 0, when a is returned as given)."""
    a, b = _trim(a), _trim(b)
    while b:
        inv = b[-1].inv()
        bm = tuple([c * inv for c in b])
        a, b = bm, _pmod(a, bm)
    return a


def _is_irreducible(poly, p):
    """Monic poly of degree m over F_p: gcd(x^{p^k} - x, poly) = 1 for
    0 < k <= m/2 (Ben-Or).  A reducible poly has an irreducible factor of
    some degree k <= m/2, and that factor divides x^{p^k} - x."""
    m = len(poly) - 1
    if m == 1:
        return True
    if poly[0] == 0:  # divisible by x
        return False
    # localring imports this module.  Building residue_field(p, 1) calls
    # defining_poly(p, 1), which the m == 1 return above answers at once
    from .localring import residue_field
    F = residue_field(p, 1)
    g = tuple(map(F.from_int, poly))
    minus_x = (F.zero, -F.one)
    xp = (F.zero, F.one)
    for k in range(1, m // 2 + 1):
        xp = _ppowmod(xp, p, g, F)
        if len(_pgcd(g, _padd(xp, minus_x))) > 1:
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


def _split(g, F, rng):
    """A proper monic factor of g, a monic product of at least two distinct
    linear factors over F = F_Q (equal-degree splitting).

    With c drawn from F, the roots a of g are separated by whether a + c is
    a square (odd p: gcd with (X + c)^((Q-1)/2) - 1) or by the absolute
    trace of c*a (p = 2: gcd with sum_{i<m} (cX)^(2^i) mod g).  Each draw
    splits g with probability about 1/2 or more."""
    for _ in range(64):
        c = F.random(rng)
        if F.p == 2:
            t = h = _pmod((F.zero, c), g)
            for _ in range(F.m - 1):
                t = _pmod(_pmul(t, t, F), g)
                h = _padd(h, t)
        else:
            h = _ppowmod((c, F.one), (F.p ** F.m - 1) // 2, g, F)
            h = _padd(h, (-F.one,))
        h = _pgcd(g, h)
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
    g = tuple(big.from_int(c) for c in small.poly)
    rng = random.Random(0)
    while len(g) > 2:
        g = _split(g, big, rng)
    orbit = [-g[0]]
    for _ in range(small.m - 1):
        orbit.append(big.frobenius_p(orbit[-1]))
    root = min(orbit, key=lambda x: x.coeffs[::-1])
    if not big._eval_int_poly(small.poly, root).is_zero():
        raise InternalError("subfield embedding root is not a root")
    return root
