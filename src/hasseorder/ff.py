"""Defining data of the finite fields F_{p^m}.

For a fixed (p, m) the defining polynomial is always the least monic
irreducible one in the deterministic order below, so contexts are
reproducible across runs.  The polynomial helpers over Z/p serve that search
alone; arithmetic in F_{p^m} is the flat kernel of `localring` at
(e, n) = (1, 1) (`localring.residue_field`).
"""

from __future__ import annotations

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
# dense polynomial helpers over Z/p (tuples, low-to-high, no trailing zeros)

def _trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _padd(a, b, p):
    n = max(len(a), len(b))
    return _trim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
                  for i in range(n)])


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _pmod(a, m, p):
    # m monic
    a = list(a)
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    return _trim(a[:dm])


def _ppowmod(a, e, m, p):
    r = (1,)
    a = _pmod(a, m, p)
    while e:
        if e & 1:
            r = _pmod(_pmul(r, a, p), m, p)
        a = _pmod(_pmul(a, a, p), m, p)
        e >>= 1
    return r


def _pgcd(a, b, p):
    a, b = _trim(a), _trim(b)
    while b:
        inv = pow(b[-1], -1, p)
        bm = tuple(c * inv % p for c in b)
        a, b = b, _pmod(a, bm, p)
    return a


def _is_irreducible(poly, p):
    """Monic poly of degree m: gcd(x^{p^k} - x, poly) = 1 for 0 < k < m
    and x^{p^m} = x mod poly."""
    m = len(poly) - 1
    if m == 1:
        return True
    x = (0, 1)
    xp = x
    for k in range(1, m):
        xp = _ppowmod(xp, p, poly, p)
        g = _pgcd(poly, _padd(xp, tuple(-c % p for c in x), p), p)
        if len(g) - 1 > 0:
            return False
    xp = _ppowmod(xp, p, poly, p)
    return _pmod(_padd(xp, tuple(-c % p for c in x), p), poly, p) == ()


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


@lru_cache(maxsize=None)
def embedding_root(small, big):
    """Least root (in coefficient-tuple order) of small.poly inside big.

    small and big are residue fields (`localring.residue_field`) with
    small.m | big.m and the same characteristic.
    """
    if small.p != big.p or big.m % small.m != 0:
        raise ParameterError("no subfield embedding between these contexts")
    consts = [big.from_int(c) for c in reversed(small.poly[:-1])]
    for hi in product(range(big.p), repeat=big.m):
        cand = big.from_vec(hi[::-1])  # low-to-high
        acc = big.one  # small.poly is monic
        for c in consts:
            acc = acc * cand + c
        if acc.is_zero():
            return cand
    raise InternalError("subfield embedding root not found")  # pragma: no cover
