"""Defining data of the finite fields F_{p^m}.

For a fixed (p, m) the defining polynomial is always the least monic
irreducible one in the deterministic order below, so contexts are
reproducible across runs.  The search tests each candidate g by Rabin's
criterion on the powers x^{p^k} mod g, iterates of the kernel's packed p-th
power (`localring._pth_power`) on F_p[x]/(g), and skips the binomials
x^m + c where none is irreducible.  Arithmetic in F_{p^m} is the flat
kernel of `localring` at (e, n) = (1, 1) (`localring.residue_field`), and
one set of dense polynomial helpers over such a field serves the gcds of
Rabin's test, over F_p, and the subfield root finding over F_{p^m}.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import islice, product

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


def _prime_factors(m):
    return [q for q in range(2, m + 1) if m % q == 0 and is_prime(q)]


def _is_irreducible(poly, p):
    """Monic poly g of degree m over F_p (Rabin): g divides x^{p^m} - x, and
    gcd(g, x^{p^(m/q)} - x) = 1 for each prime q | m.  By the first, g is
    squarefree and each irreducible factor has a degree dividing m; by the
    second, no factor has a degree dividing m/q, so the one factor is g.
    x^{p^k} mod g is the k-th iterate of the packed p-th power of
    F_p[x]/(g) (`localring._pth_power`), and the gcds run over F_p."""
    m = len(poly) - 1
    if m == 1:
        return True
    if poly[0] == 0:  # divisible by x
        return False
    # localring imports this module.  Building residue_field(p, 1) calls
    # defining_poly(p, 1), which the m == 1 return above answers at once
    from .localring import _pth_power, residue_field
    pth = _pth_power(p, m, 1, p, poly)
    xs = [(0, 1) + (0,) * (m - 2)]  # xs[k] = x^{p^k} mod g
    for _ in range(m):
        xs.append(pth(xs[-1]))
    if xs[m] != xs[0]:
        return False
    F = residue_field(p, 1)
    g = tuple(map(F.from_int, poly))
    for q in _prime_factors(m):
        h = [F.from_int(c) for c in xs[m // q]]
        h[1] -= F.one
        if len(_pgcd(g, h)) > 1:
            return False
    return True


def _binomials_reducible(p, m):
    """Whether every binomial x^m + c is reducible over F_p.  For a != 0,
    x^m - a is irreducible exactly when each prime q | m divides the order
    of a in F_p^* but not (p - 1)/ord(a), and p = 1 mod 4 if 4 | m (Lidl and
    Niederreiter, Finite Fields, Theorem 3.75).  A generator a of F_p^*
    passes once each q divides p - 1, so the rule below is exact."""
    return any((p - 1) % q for q in _prime_factors(m)) or (m % 4 == 0 and p % 4 != 1)


@lru_cache(maxsize=None)
def defining_poly(p: int, m: int) -> tuple:
    """The least monic irreducible polynomial of degree m over F_p, low-to-high.

    Candidates are ordered by their coefficient tuples read from the
    highest-degree coefficient down, which picks e.g. x^3 + x + 1 over F_2
    and x^2 + 1 over F_3.  The first p of them, the binomials x^m + c, are
    skipped where none is irreducible (`_binomials_reducible`).
    """
    if not is_prime(p):
        raise ParameterError(f"p = {p} is not prime")
    if not 1 <= m <= 16:
        raise ParameterError(f"extension degree m = {m} out of range [1, 16]")
    if p ** m >= 1 << 63:
        raise ParameterError(f"field order p^m = {p}^{m} exceeds 64 bits")
    skip = p if _binomials_reducible(p, m) else 0
    for hi in islice(product(range(p), repeat=m), skip, None):
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
