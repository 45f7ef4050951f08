import random

import pytest

from hasseorder import localring as lr
from hasseorder import witt
from hasseorder.errors import ParameterError
from test_localring import _theta_mulmod


def contexts(p):
    S = lr.base_ring(p, 1, 6, lr.MIXED)
    E = lr.base_ring(p, 1, 6, lr.EQUAL)
    F = lr.residue_field(p, 2)
    return [("zmod", 6), ("local", F), ("local", S), ("local", E)]


def test_parameter_caps():
    with pytest.raises(ParameterError):
        witt.WittCtx(3, witt.MAX_N + 1, ("zmod", 6))
    with pytest.raises(ParameterError):
        witt.WittCtx(17, 2, ("zmod", 6))


def test_ghost_spec_example():
    # p = 3, v = (1, 1, 1) -> ghost (1, 4, 13)
    W = witt.WittCtx(3, 3, ("zmod", 6))
    g = W.ghost(W.vec([1, 1, 1]))
    M = 3 ** 6
    assert [c % M for c in g] == [1, 4, 13]


def test_ghost_is_ring_hom():
    rng = random.Random(0)
    for p in (2, 3, 5):
        for coeff in contexts(p):
            for n in (2, 3):
                W = witt.WittCtx(p, n, coeff)
                for _ in range(10):
                    x, y = W.random(rng), W.random(rng)
                    gx, gy = W.ghost(x), W.ghost(y)
                    assert all(W.coeff_eq(g, a + b) for g, a, b in
                               zip(W.ghost(x + y), gx, gy))
                    assert all(W.coeff_eq(g, a * b) for g, a, b in
                               zip(W.ghost(x * y), gx, gy))


def test_ring_axioms():
    rng = random.Random(1)
    for p in (2, 3):
        for coeff in contexts(p)[:2]:
            W = witt.WittCtx(p, 3, coeff)
            for _ in range(15):
                x, y, z = W.random(rng), W.random(rng), W.random(rng)
                assert (x + y) + z == x + (y + z)
                assert (x * y) * z == x * (y * z)
                assert x * (y + z) == x * y + x * z
                assert x + (-x) == W.zero
                assert x * W.one == x


def test_fv_equals_p():
    rng = random.Random(2)
    for p in (2, 3, 5):
        for coeff in contexts(p):
            W = witt.WittCtx(p, 3, coeff)
            x = W.random(rng)
            px = W.zero
            for _ in range(p):
                px = px + x
            assert x.verschiebung().frobenius() == px


def test_frobenius_teichmueller_and_hom():
    rng = random.Random(3)
    for p in (2, 3):
        for coeff in contexts(p):
            W = witt.WittCtx(p, 3, coeff)
            a = W.coeff_random(rng)
            assert W.teich(a).frobenius() == W.resize(2).teich(a ** p)
            x, y = W.random(rng), W.random(rng)
            assert (x * y).frobenius() == x.frobenius() * y.frobenius()
            assert (x + y).frobenius() == x.frobenius() + y.frobenius()


def test_projection_formula():
    rng = random.Random(4)
    for p in (2, 3):
        for coeff in contexts(p):
            W = witt.WittCtx(p, 3, coeff)
            x, y = W.random(rng), W.random(rng)
            vy = y.restriction().verschiebung()
            assert x * vy == \
                (x.frobenius() * y.restriction()).verschiebung()


def test_frobenius_congruence_coordinatewise():
    """F(a) and R(a)^[p] (coordinatewise p-th powers) differ by positive ord.

    The ring-power reading of R(a)^p is false (already over Z/4); the
    congruence F = W(phi) o R mod V W(pS) is the coordinatewise statement.
    """
    rng = random.Random(5)
    for p in (2, 3):
        S = lr.base_ring(p, 1, 6, lr.MIXED)
        W = witt.WittCtx(p, 4, ("local", S))
        for _ in range(10):
            a = W.random(rng)
            diff = a.frobenius() - a.restriction().map_coords(lambda c: c ** p)
            assert all(c.ord() >= 1 for c in diff.coords)
        # over Z/p^M the difference coordinates are divisible by p
        Wz = witt.WittCtx(p, 4, ("zmod", 6))
        for _ in range(10):
            a = Wz.random(rng)
            diff = a.frobenius() - a.restriction().map_coords(
                lambda c: c ** p)
            assert all(c % p == 0 for c in diff.coords)
        # in characteristic p the congruence is an equality
        Wf = witt.WittCtx(p, 4, ("local", lr.residue_field(p, 2)))
        for _ in range(10):
            a = Wf.random(rng)
            assert a.frobenius() == \
                a.restriction().map_coords(lambda c: c ** p)


def test_frobenius_filtration():
    rng = random.Random(6)
    for p in (2, 3):
        S = lr.base_ring(p, 1, 6, lr.MIXED)
        pi = S.uniformizer
        for n in (2, 3, 4):
            W = witt.WittCtx(p, n, ("local", S))
            for m in (1, 2, 3, 4):
                a = W.vec([S.random(rng) * pi ** m for _ in range(n)])
                assert all(c.ord() >= m + 1 for c in a.frobenius().coords)


def test_serialize_roundtrip_shape():
    W = witt.WittCtx(3, 2, ("zmod", 6))
    v = W.vec([5, 7])
    assert v.serialize() == [5, 7]


def test_equal_lift_product_matches_schoolbook():
    """The ghost-method lift of k[[t]]/(t^N) multiplies like a t-truncated
    schoolbook product of theta-polynomials over Z/p^K."""
    rng = random.Random(7)
    for p in (2, 3, 5):
        for f, d in ((1, 1), (1, 2), (2, 1), (1, 3)):
            E = lr.unramified(lr.base_ring(p, f, 6, lr.EQUAL), d)
            L = witt.WittCtx(p, 3, ("local", E)).lift
            ring, m, N = L.ring, E.m, E.prec
            mod = p ** L.K
            for _ in range(5):
                a, b = ring.random(rng), ring.random(rng)
                digit = lambda x, i: list(x.coeffs[i * m:(i + 1) * m])
                want = []
                for k in range(N):
                    acc = [0] * m
                    for i in range(k + 1):
                        prod = _theta_mulmod(digit(a, i), digit(b, k - i), E.poly, mod)
                        acc = [(x + y) % mod for x, y in zip(acc, prod)]
                    want += acc
                assert L.mul(a, b).coeffs == tuple(want)
                # the Frobenius lift: a ring map with t -> t^p, = x^p mod p
                assert L.phi(L.mul(a, b)) == L.mul(L.phi(a), L.phi(b))
                diff = L.sub(L.phi(a), L.pow(a, p))
                assert all(c % p == 0 for c in diff.coeffs)
