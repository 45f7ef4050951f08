import hashlib
import json
import random
from itertools import product

import pytest

from hasseorder import ff
from hasseorder import localring as lr
from hasseorder.errors import NotInvertibleError, ParameterError
from hasseorder.ff import _padd, _pgcd, _ppowmod
from test_localring import _least_root, _theta_eval, _theta_mulmod, _theta_pow


def test_is_prime():
    assert [n for n in range(2, 30) if ff.is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_bad_parameters():
    for p, m in ((4, 1), (3, 0)):
        with pytest.raises(ParameterError):
            ff.defining_poly(p, m)
        with pytest.raises(ParameterError):
            lr.residue_field(p, m)


def test_defining_polys_pinned():
    # every defining polynomial for p < 54 and p^m < 2^63, digested when the
    # test ran every k < m and x^{p^m} = x: the Ben-Or bound changes none
    rows = [[p, m, list(ff.defining_poly(p, m))] for p in range(2, 54) if ff.is_prime(p)
            for m in range(1, 17) if p ** m < 1 << 63]
    assert len(rows) == 217
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == \
        "3343b68a0fd6a4209d6e8dc07588ce26a5db686db9015db1bf32f74d637a7c7d"


# The library's irreducibility test before Rabin's, kept as an oracle
def ben_or(poly, p):
    """Monic poly of degree m over F_p: gcd(x^{p^k} - x, poly) = 1 for
    0 < k <= m/2 (Ben-Or).  A reducible poly has an irreducible factor of
    some degree k <= m/2, and that factor divides x^{p^k} - x."""
    m = len(poly) - 1
    if m == 1:
        return True
    if poly[0] == 0:  # divisible by x
        return False
    F = lr.residue_field(p, 1)
    g = tuple(map(F.from_int, poly))
    minus_x = (F.zero, -F.one)
    xp = (F.zero, F.one)
    for k in range(1, m // 2 + 1):
        xp = _ppowmod(xp, p, g, F)
        if len(_pgcd(g, _padd(xp, minus_x))) > 1:
            return False
    return True


def monic(p, m):
    """Every monic polynomial of degree m over F_p, low-to-high."""
    return [lo + (1,) for lo in product(range(p), repeat=m)]


def gauss_count(p, m):
    """(1/m) sum_{e | m} mu(e) p^(m/e): the number of monic irreducible
    polynomials of degree m over F_p."""
    def mu(e):
        qs = [q for q in range(2, e + 1) if e % q == 0 and ff.is_prime(q)]
        return 0 if any(e % (q * q) == 0 for q in qs) else (-1) ** len(qs)
    return sum(mu(e) * p ** (m // e) for e in range(1, m + 1) if m % e == 0) // m


RABIN_GRID = [(2, m) for m in range(2, 7)] + [(3, m) for m in range(2, 7)] + \
    [(5, m) for m in range(2, 5)] + [(7, 2), (7, 3)]


@pytest.mark.parametrize("p,m", RABIN_GRID)
def test_rabin_matches_ben_or_and_gauss_count(p, m):
    """Rabin's test agrees with Ben-Or's on every monic polynomial of degree
    m, and accepts as many as Gauss's formula counts."""
    found = [poly for poly in monic(p, m) if ff._is_irreducible(poly, p)]
    assert found == [poly for poly in monic(p, m) if ben_or(poly, p)]
    assert len(found) == gauss_count(p, m)


def test_rabin_needs_its_gcd_step():
    """(x^2 + 1)(x^2 + x + 2) over F_3 divides x^{3^4} - x, as every
    product of distinct irreducible quadratics does; the gcd with
    x^{3^2} - x rejects it."""
    assert ben_or((1, 0, 1), 3) and ben_or((2, 1, 1), 3)
    assert not ff._is_irreducible((2, 1, 0, 1, 1), 3)


def test_binomial_rule_is_exact():
    """The binomials are skipped exactly where none is irreducible."""
    for p in range(2, 60):
        if not ff.is_prime(p):
            continue
        for m in range(2, 9):
            if p ** m >= 1 << 24:
                break
            irreducible = any(ben_or((c,) + (0,) * (m - 1) + (1,), p) for c in range(p))
            assert ff._binomials_reducible(p, m) == (not irreducible), (p, m)


def test_no_sweep_through_reducible_binomials():
    """At p = 65537 = 2 mod 3 no x^3 + c is irreducible; the search skips
    all p of them and returns the least irreducible cubic."""
    assert ff._binomials_reducible(65537, 3)
    assert ff.defining_poly(65537, 3) == (4, 1, 0, 1)
    assert ben_or((4, 1, 0, 1), 65537)
    assert not any(ben_or((c, 1, 0, 1), 65537) for c in range(4))


def test_f9_polynomial_is_lex_least():
    # x^2 + 1 is the lexicographically least monic irreducible over F_3
    assert ff.defining_poly(3, 2) == (1, 0, 1)
    assert lr.residue_field(3, 2).poly == (1, 0, 1)


def test_f4_arithmetic():
    F = lr.residue_field(2, 2)
    th = F.gen
    # x^2 + x + 1: th^2 = th + 1
    assert th * th == th + F.one
    assert th ** 3 == F.one


def test_frobenius_f9():
    # theta in F_9 (poly x^2+1): theta^3 = -theta
    F = lr.residue_field(3, 2)
    th = F.gen
    assert F.frobenius_p(th) == -th
    assert F.frobenius_p(th, 2) == th


def test_field_axioms_sampled():
    # products and inverses against the theta-polynomial product mod (G, p)
    rng = random.Random(1)
    for (p, m) in ((2, 3), (3, 2), (5, 1), (3, 4)):
        F = lr.residue_field(p, m)
        for _ in range(200):
            a, b, c = F.random(rng), F.random(rng), F.random(rng)
            assert list((a * b).coeffs) == _theta_mulmod(a.coeffs, b.coeffs, F.poly, p)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if not a.is_zero():
                inv = list(a.inv().coeffs)
                assert _theta_mulmod(a.coeffs, inv, F.poly, p) == [1] + [0] * (m - 1)
                assert a ** (p ** m - 1) == F.one


def test_frobenius_hom_and_order():
    # frobenius_p against the power map x -> x^(p^k) of the oracle product
    rng = random.Random(2)
    for (p, m) in ((2, 4), (3, 3), (5, 2)):
        F = lr.residue_field(p, m)
        for _ in range(50):
            a = F.random(rng)
            for k in range(m + 1):
                assert list(F.frobenius_p(a, k).coeffs) == \
                    _theta_pow(a.coeffs, p ** k, F.poly, p)
        for i in range(m):
            e = F.from_vec([0] * i + [1] + [0] * (m - 1 - i))
            img = e
            for _ in range(m):
                img = F.frobenius_p(img)
            assert img == e


def test_zero_has_no_inverse():
    F = lr.residue_field(3, 2)
    with pytest.raises(NotInvertibleError):
        F.zero.inv()


def test_embedding():
    small = lr.residue_field(3, 2)
    big = lr.residue_field(3, 4)
    root = ff.embedding_root(small, big)

    def embed(x):
        return big.from_vec(_theta_eval(x.coeffs, root.coeffs, big.poly, 3))

    rng = random.Random(3)
    for _ in range(20):
        a, b = small.random(rng), small.random(rng)
        assert embed(a * b) == embed(a) * embed(b)
        assert embed(a + b) == embed(a) + embed(b)
    # the embedded generator satisfies the small defining polynomial
    acc = big.zero
    for c in reversed(small.poly):
        acc = acc * root + big.from_int(c)
    assert acc.is_zero()


# (p, small.m, big.m) with small.m | big.m and p^big.m small enough for the
# brute force
EMBED_GRID = [(p, ms, mb) for p in (2, 3, 5, 7) for ms in (1, 2, 3, 4)
              for mb in range(ms, 17, ms) if p ** mb <= 20000]


@pytest.mark.parametrize("p,ms,mb", EMBED_GRID)
def test_embedding_root_is_least_brute_force_root(p, ms, mb):
    small, big = lr.residue_field(p, ms), lr.residue_field(p, mb)
    root = ff.embedding_root(small, big)
    assert root.ctx is big
    assert root.coeffs == _least_root(small.poly, big.poly, p)
