import random
import time

import pytest

from hasseorder import localring as lr
from hasseorder import suites, witt
from hasseorder.errors import CtxMismatchError, ParameterError
from test_localring import _theta_mulmod


def contexts(p):
    """Z/p^6, F_{p^2}, and S in both characteristics."""
    Z = lr.base_ring(p, 1, 6)
    S = lr.base_ring(p, 1, 6, lr.MIXED)
    E = lr.base_ring(p, 1, 6, lr.EQUAL)
    F = lr.residue_field(p, 2)
    return [Z, F, S, E]


def test_parameter_caps():
    with pytest.raises(ParameterError):
        witt.WittCtx(witt.MAX_N + 1, lr.base_ring(3, 1, 6))
    # no cap on p: at p = 17 the ghost map is still a ring homomorphism
    W = witt.WittCtx(2, lr.base_ring(17, 1, 6))
    rng = random.Random(17)
    a, b = W.random(rng), W.random(rng)
    assert W.ghost(a * b) == [x * y for x, y in zip(W.ghost(a), W.ghost(b))]


def test_ghost_spec_example():
    # p = 3, v = (1, 1, 1) -> ghost (1, 4, 13)
    Z = lr.base_ring(3, 1, 6)
    W = witt.WittCtx(3, Z)
    g = W.ghost(W.vec([Z.one] * 3))
    assert [c.coeffs for c in g] == [(1,), (4,), (13,)]
    # coordinates are elements of the coefficient ring, not bare ints
    with pytest.raises(CtxMismatchError):
        W.vec([1, 1, 1])
    with pytest.raises(CtxMismatchError):
        W.teich(lr.base_ring(3, 1, 6).one)


def test_ghost_is_ring_hom():
    rng = random.Random(0)
    for p in (2, 3, 5):
        for R in contexts(p):
            for n in (2, 3):
                W = witt.WittCtx(n, R)
                for _ in range(10):
                    x, y = W.random(rng), W.random(rng)
                    gx, gy = W.ghost(x), W.ghost(y)
                    assert W.ghost(x + y) == [a + b for a, b in zip(gx, gy)]
                    assert W.ghost(x * y) == [a * b for a, b in zip(gx, gy)]


def test_ring_axioms():
    rng = random.Random(1)
    for p in (2, 3):
        for R in contexts(p)[:2]:
            W = witt.WittCtx(3, R)
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
        for R in contexts(p):
            W = witt.WittCtx(3, R)
            x = W.random(rng)
            px = W.zero
            for _ in range(p):
                px = px + x
            assert x.verschiebung().frobenius() == px


def test_frobenius_teichmueller_and_hom():
    rng = random.Random(3)
    for p in (2, 3):
        for R in contexts(p):
            W = witt.WittCtx(3, R)
            a = W.ring.random(rng)
            assert W.teich(a).frobenius() == W.resize(2).teich(a ** p)
            x, y = W.random(rng), W.random(rng)
            assert (x * y).frobenius() == x.frobenius() * y.frobenius()
            assert (x + y).frobenius() == x.frobenius() + y.frobenius()


def test_projection_formula():
    rng = random.Random(4)
    for p in (2, 3):
        for R in contexts(p):
            W = witt.WittCtx(3, R)
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
        W = witt.WittCtx(4, S)
        for _ in range(10):
            a = W.random(rng)
            diff = a.frobenius() - a.restriction().map_coords(lambda c: c ** p)
            assert all(c.ord() >= 1 for c in diff.coords)
        # over Z/p^M the difference coordinates are divisible by p
        Wz = witt.WittCtx(4, lr.base_ring(p, 1, 6))
        for _ in range(10):
            a = Wz.random(rng)
            diff = a.frobenius() - a.restriction().map_coords(
                lambda c: c ** p)
            assert all(c.ord() >= 1 for c in diff.coords)
        # in characteristic p the congruence is an equality
        Wf = witt.WittCtx(4, lr.residue_field(p, 2))
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
            W = witt.WittCtx(n, S)
            for m in (1, 2, 3, 4):
                a = W.vec([S.random(rng) * pi ** m for _ in range(n)])
                assert all(c.ord() >= m + 1 for c in a.frobenius().coords)


def test_serialize_roundtrip_shape():
    Z = lr.base_ring(3, 1, 6)
    W = witt.WittCtx(2, Z)
    v = W.vec([Z.from_int(5), Z.from_int(7)])
    assert v.serialize() == [[5], [7]]


def test_equal_lift_product_matches_schoolbook():
    """The ghost-method lift of k[[t]]/(t^N) multiplies like a t-truncated
    schoolbook product of theta-polynomials over Z/p^K."""
    rng = random.Random(7)
    for p in (2, 3, 5):
        for f, d in ((1, 1), (1, 2), (2, 1), (1, 3)):
            E = lr.unramified(lr.base_ring(p, f, 6, lr.EQUAL), d)
            L = witt.WittCtx(3, E).lift
            m, N = E.m, E.prec
            mod = L.modulus
            for _ in range(5):
                a, b = L.random(rng), L.random(rng)
                digit = lambda x, i: list(x.coeffs[i * m:(i + 1) * m])
                want = []
                for k in range(N):
                    acc = [0] * m
                    for i in range(k + 1):
                        prod = _theta_mulmod(digit(a, i), digit(b, k - i), E.poly, mod)
                        acc = [(x + y) % mod for x, y in zip(acc, prod)]
                    want += acc
                assert (a * b).coeffs == tuple(want)


def _iota(Z, F, v):
    """W_n(F_q) -> Z_q/p^n, (a_i) -> sum_i p^i [a_i^(p^-i)] (Teichmueller lifts)."""
    acc = Z.zero
    for i, a in enumerate(v.coords):
        acc = acc + Z.teich(F.frobenius_p(a, -i)).scale(Z.p ** i)
    return acc


def test_witt_of_finite_field_is_unramified_ring():
    """Independent oracle: W_n(F_q) = Z_q/p^n (Serre, Local Fields, II 6).

    The explicit isomorphism iota must carry Witt sums and products to the
    sums and products of the unramified ring Z_q/p^n; coordinatewise
    addition, the wrong law, must fail the same additivity check."""
    rng = random.Random(8)
    for p in (2, 3, 5, 7):
        for m in (1, 2, 3):
            F = lr.residue_field(p, m)
            for n in (2, 3, 4):
                Z = lr.base_ring(p, m, n)
                W = witt.WittCtx(n, F)
                naive_fails = False
                for _ in range(10):
                    x, y = W.random(rng), W.random(rng)
                    ix, iy = _iota(Z, F, x), _iota(Z, F, y)
                    assert _iota(Z, F, x + y) == ix + iy
                    assert _iota(Z, F, x * y) == ix * iy
                    naive = W.vec([a + b for a, b in zip(x.coords, y.coords)])
                    naive_fails |= _iota(Z, F, naive) != ix + iy
                assert naive_fails, (p, m, n)


def test_ghost_components_are_kept_per_lift_ring():
    """A vector keeps its ghost components with the lift ring they lie in;
    used with a context on another lift ring it gets them there anew."""
    rng = random.Random(9)
    for R in contexts(3):
        W1, W2 = witt.WittCtx(3, R), witt.WittCtx(3, R)
        assert W1.lift is not W2.lift
        x, y = W1.random(rng), W2.random(rng)
        g1 = W1._ghost(x)
        assert W1._ghost(x) is g1 and x._ghost == (W1.lift, g1)
        g2 = W2._ghost(x)
        assert g2 is not g1 and x._ghost == (W2.lift, g2)
        fresh = W2.vec(x.coords)
        assert y + x == y + fresh and y * x == y * fresh
        assert x.frobenius() == W1.vec(x.coords).frobenius()


def test_pth_power_matches_square_and_multiply():
    """Each lift ring's p-th power against localring.power in the lift ring,
    on zero, all-(p^K - 1) (the largest slot values) and random
    coefficients: lifts of Z/p^6, F_{p^2}, mixed and equal S at f = 1, 2,
    and equal T at d = 2, 3."""
    rng = random.Random(10)
    for p in (2, 3, 5, 7, 13):
        rings = contexts(p) + [lr.base_ring(p, 2, 6, lr.MIXED),
                               lr.base_ring(p, 2, 6, lr.EQUAL)]
        rings += [lr.unramified(lr.base_ring(p, 1, 4, lr.EQUAL), d) for d in (2, 3)]
        for R in rings:
            for n in range(1, witt.MAX_N + 1):
                W = witt.WittCtx(n, R)
                L = W.lift
                top = L.from_vec([L.modulus - 1] * L.zp_rank)
                for a in [L.zero, top] + [L.random(rng) for _ in range(2)]:
                    assert W._pth(a.coeffs) == lr.power(a, p, L.one).coeffs, (p, R, n)


def test_large_p_lift_is_sized_without_its_bound():
    """At p = 65521 the bound of a packed p-th power has about 5.3M bits;
    the size is decided on bit lengths, so the context builds at once (it
    took about half a second when the bound was formed), and its
    square-and-multiply p-th power is the lift ring's."""
    F = lr.residue_field(65521, 2)
    best = None
    for _ in range(3):
        start = time.perf_counter()
        W = witt.WittCtx(2, F)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    assert best < 0.05
    L = W.lift
    assert lr._pth_slot_bytes(L.p, L.zp_rank, L.modulus) is None
    rng = random.Random(11)
    for a in [L.zero, L.from_vec([L.modulus - 1] * L.zp_rank)] + \
            [L.random(rng) for _ in range(4)]:
        assert W._pth(a.coeffs) == lr.power(a, L.p, L.one).coeffs


def test_p3_lifts_keep_their_packing(monkeypatch):
    """Every lift ring the witt suite builds at p = 3 packs its p-th power
    in the slots the exact bound k^(p-1) (p^K - 1)^p gives, and takes the
    packed power exactly where that packing fits _PACKED_POWER_BITS."""
    lifts = set()
    init = witt.WittCtx.__init__

    def spy(self, *args):
        init(self, *args)
        L = self.lift
        lifts.add((L.p, L.m, L.n, L.modulus))
    monkeypatch.setattr(witt.WittCtx, "__init__", spy)
    for mode in (lr.MIXED, lr.EQUAL):
        for f in (1, 2):
            cfg = {"p": 3, "f": f, "d": 2, "r": 1, "N": 8, "mode": mode, "seed": 0}
            suites.run(cfg, ["witt"])
    packed = 0
    for p, m, n, mod in sorted(lifts):
        k = m * n
        if k == 1 or (m > 1 and n > 1):
            continue
        width = lr._slot_bytes(k ** (p - 1) * (mod - 1) ** p)
        fits = 8 * width * (p * (k - 1) + 1) <= lr._PACKED_POWER_BITS
        assert lr._pth_slot_bytes(p, k, mod) == (width if fits else None), (m, n, mod)
        packed += fits
    assert packed >= 6


def test_resize_keeps_its_contexts():
    """resize builds each length once; it passes the lift ring on while
    its precision suffices and builds a new one when it is short."""
    rng = random.Random(11)
    R = lr.base_ring(3, 1, 6)
    W = witt.WittCtx(1, R)  # lift precision e + 3
    W4 = W.resize(4)
    assert W.resize(4) is W4 and W.resize(1) is W and W4.resize(4) is W4
    assert W4.lift is not W.lift and W4.lift.e >= R.e + 4
    assert W.resize(3).lift is W.lift
    W3 = W4.resize(3)
    assert W3.lift is W4.lift
    x = W4.random(rng)
    assert x.frobenius().ctx is W3
    assert x.restriction().ctx is W3 and x.restriction().verschiebung().ctx is W4
