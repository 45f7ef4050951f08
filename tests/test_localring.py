import math
import random
from functools import lru_cache
from itertools import product

import pytest

from hasseorder import algebra, ff, tensor
from hasseorder import localring as lr
from hasseorder.errors import (CtxMismatchError, InternalError,
                               NotInvertibleError, ParameterError,
                               PrecisionError)


def ctx_pair(p=3, f=1, d=2, N=4, mode=lr.MIXED):
    S = lr.base_ring(p, f, N, mode)
    return S, lr.unramified(S, d)


def test_bad_parameters():
    with pytest.raises(ParameterError):
        lr.base_ring(4, 1, 4, lr.MIXED)
    with pytest.raises(ParameterError):
        lr.base_ring(3, 1, 1, lr.MIXED)
    with pytest.raises(ParameterError):
        lr.base_ring(3, 0, 4, lr.MIXED)
    with pytest.raises(ParameterError):
        lr.base_ring(3, 1, 4, "p-adic")
    with pytest.raises(ParameterError):
        lr.LocalRingCtx(3, 1, 1, 0, 1)
    with pytest.raises(ParameterError):
        lr.LocalRingCtx(3, 1, 1, 1, 0)


def test_inconsistent_base_rejected():
    # the base must be a base ring (d = 1) with the extension's (p, f, e, n)
    S = lr.base_ring(3, 1, 4, lr.MIXED)
    for args in ((3, 1, 2, 8, 1),   # e differs: the embedding is not multiplicative
                 (3, 1, 2, 1, 4),   # equal characteristic over a mixed base
                 (3, 2, 2, 4, 1),   # f differs: sigma does not fix the base
                 (5, 1, 2, 4, 1)):  # p differs
        with pytest.raises(ParameterError):
            lr.LocalRingCtx(*args, base=S)
    with pytest.raises(ParameterError):
        lr.LocalRingCtx(3, 1, 2, 4, 1, base=lr.unramified(S, 2))
    assert lr.LocalRingCtx(3, 1, 2, 4, 1, base=S).base is S


def test_spec_example_theta_squared():
    # S = Z/81, d = 2: T = (Z/81)[theta]/(theta^2+1)
    S, T = ctx_pair()
    th = T.gen
    assert th * th == -T.one
    # sigma(theta) is a root of G and reduces to theta^3 = -theta mod 3
    s = T.frobenius(th, 1)
    assert T._eval_int_poly(T.poly, s).is_zero()
    assert T.residue_of(s) == T.residue_of(-th)
    # theta * sigma(theta) is the relative norm of theta (Galois-invariant)
    nm = T.norm_rel(th)
    assert th * s == nm
    assert T.frobenius(nm, 1) == nm


def test_sigma_is_ring_hom_of_order_d():
    rng = random.Random(0)
    for mode in (lr.MIXED, lr.EQUAL):
        for p, f, d in ((3, 1, 2), (3, 1, 3), (5, 2, 3), (2, 3, 2)):
            S, T = ctx_pair(p=p, f=f, d=d, N=5, mode=mode)
            for _ in range(50):
                x, y = T.random(rng), T.random(rng)
                assert T.frobenius(x + y, 1) == \
                    T.frobenius(x, 1) + T.frobenius(y, 1)
                assert T.frobenius(x * y, 1) == \
                    T.frobenius(x, 1) * T.frobenius(y, 1)
                assert T.frobenius(x, d) == x
                # sigma = phi^f, and phi has order m = f*d
                for k in range(-d, 2 * d):
                    assert T.frobenius(x, k) == T.frobenius_p(x, T.f * k)
                assert T.frobenius_p(x, T.m) == x
            # sigma fixes exactly the embedded base
            s = S.random(rng)
            e = T.embed_base(s)
            assert T.frobenius(e, 1) == e


def test_ord_and_units():
    rng = random.Random(1)
    for mode in (lr.MIXED, lr.EQUAL):
        S, T = ctx_pair(N=6, mode=mode)
        pi = T.uniformizer
        assert pi.ord() == 1
        assert T.zero.ord() == T.prec
        for _ in range(60):
            x, y = T.random(rng), T.random(rng)
            assert (x * y).ord() == min(x.ord() + y.ord(), T.prec)
            assert (x + y).ord() >= min(x.ord(), y.ord())
            if x.is_unit():
                assert x * x.inv() == T.one
        with pytest.raises(NotInvertibleError):
            pi.inv()


def test_shift_down():
    S, T = ctx_pair(N=5)
    pi = T.uniformizer
    x = T.from_int(7)
    assert (x * pi ** 2).shift_down(2) == x
    with pytest.raises(PrecisionError):
        (T.one + pi).shift_down(1)
    # negative k multiplies
    assert x.shift_down(-1) == x * pi
    # far past the precision: only zero divides, with no power of p beyond p^e
    assert T.zero.shift_down(10 ** 9) == T.zero
    with pytest.raises(PrecisionError):
        x.shift_down(10 ** 9)


def test_teichmueller():
    for mode in (lr.MIXED, lr.EQUAL):
        S, T = ctx_pair(p=3, d=2, N=5, mode=mode)
        q = T.p ** T.m
        for a in (T.residue.gen, T.residue.one, T.residue.from_int(2)):
            y = T.teich(a)
            assert T.residue_of(y) == a
            assert y ** q == y
        # a residue element of another field, or a ring element, is refused
        for bad in (S.residue.one, T.one):
            with pytest.raises(CtxMismatchError):
                T.teich(bad)


def test_trace_norm_in_base():
    rng = random.Random(2)
    S, T = ctx_pair(p=5, d=3, N=4)
    for _ in range(30):
        x = T.random(rng)
        tr, nm = T.trace_rel(x), T.norm_rel(x)
        # values are Galois-invariant and coerce into S
        for v in (tr, nm):
            assert T.frobenius(v, 1) == v
            assert T.to_base(v).ctx is S
            assert T.embed_base(T.to_base(v)) == v
        conj = [T.frobenius(x, k) for k in range(3)]
        assert tr == conj[0] + conj[1] + conj[2]
        assert nm == conj[0] * conj[1] * conj[2]


def test_rel_coords_roundtrip():
    rng = random.Random(3)
    for mode in (lr.MIXED, lr.EQUAL):
        for p, f, d, N in ((3, 2, 2, 4), (3, 1, 4, 8), (3, 1, 8, 8), (2, 2, 4, 8),
                           (5, 2, 3, 8), (2, 4, 4, 8)):
            S, T = ctx_pair(p=p, f=f, d=d, N=N, mode=mode)
            for _ in range(20):
                x = T.random(rng)
                coords = T.rel_coords(x)
                assert len(coords) == T.d
                acc = T.zero
                for j, s in enumerate(coords):
                    assert s.ctx is S
                    acc = acc + T.embed_base(s) * T.gen ** j
                assert acc == x


def test_frobenius_p_lift():
    # frobenius_p lifts a |-> a^p on the residue ring
    rng = random.Random(4)
    S, T = ctx_pair(p=3, d=2, N=4)
    for _ in range(20):
        x = T.random(rng)
        y = T.frobenius_p(x, 1)
        assert T.residue_of(y) == T.residue_of(x) ** T.p
    # and is a ring homomorphism
    a, b = T.random(rng), T.random(rng)
    assert T.frobenius_p(a * b, 1) == T.frobenius_p(a, 1) * T.frobenius_p(b, 1)
    assert T.frobenius_p(a + b, 1) == T.frobenius_p(a, 1) + T.frobenius_p(b, 1)


def test_equal_char_structure():
    S, T = ctx_pair(p=2, f=1, d=3, N=4, mode=lr.EQUAL)
    t = T.uniformizer
    assert (t ** 4).is_zero()
    # Frobenius acts on coefficients, fixing t
    assert T.frobenius(t, 1) == t


def test_equal_precision_is_not_capped_by_p_to_the_N():
    # equal-characteristic coefficients live in F_p: no p^N modulus exists
    for p, N in ((3, 40), (5, 28)):
        S, T = ctx_pair(p=p, d=2, N=N, mode=lr.EQUAL)
        t = T.uniformizer
        assert not (t ** (N - 1)).is_zero()
        assert (t ** N).is_zero()
        assert (t ** (N - 1)).ord() == N - 1


# ---------------------------------------------------------------------------
# the flat-integer kernel against oracles that share no code with it

def _theta_mulmod(a, b, G, mod):
    """a*b in (Z/mod)[theta]/(G) for theta-coefficient lists; G monic."""
    m = len(G) - 1
    out = [0] * (2 * m - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    for k in range(2 * m - 2, m - 1, -1):  # long division by G
        c = out[k]
        for j in range(m + 1):
            out[k - m + j] -= c * G[j]
    return [c % mod for c in out[:m]]


def _theta_pow(a, e, G, mod):
    """a^e in (Z/mod)[theta]/(G), e >= 0, by binary powering."""
    out = [1] + [0] * (len(G) - 2)
    for bit in bin(e)[2:]:
        out = _theta_mulmod(out, out, G, mod)
        if bit == "1":
            out = _theta_mulmod(out, a, G, mod)
    return out


def _theta_eval(coeffs, z, G, mod):
    """sum_j coeffs[j] z^j in (Z/mod)[theta]/(G), by Horner."""
    acc = [0] * (len(G) - 1)
    for c in reversed(coeffs):
        acc = _theta_mulmod(acc, z, G, mod)
        acc[0] = (acc[0] + c) % mod
    return acc


@lru_cache(maxsize=None)
def _least_root(small, big, p):
    """Least root, in coefficient-tuple order read from the top, of the
    polynomial `small` in F_p[theta]/(big): a brute force over all tuples."""
    m = len(big) - 1
    for hi in product(range(p), repeat=m):
        z = list(hi[::-1])
        if not any(_theta_eval(small, z, big, p)):
            return tuple(z)
    raise AssertionError("no root")


def _digits(T, x):
    """The t-digits of an equal-characteristic element as coefficient lists."""
    m = T.m
    return [list(x.coeffs[i * m:(i + 1) * m]) for i in range(T.prec)]


def _oracle_mul(T, x, y):
    """Product as coefficient tuple: digit-by-digit convolution of theta
    polynomials mod (G, p) (equal) or the theta-polynomial product mod
    (G, p^N) (mixed)."""
    if T.n == 1:
        return tuple(_theta_mulmod(x.coeffs, y.coeffs, T.poly, T.p ** T.prec))
    a, b = _digits(T, x), _digits(T, y)
    out = []
    for k in range(T.prec):
        acc = [0] * T.m
        for i in range(k + 1):
            prod = _theta_mulmod(a[i], b[k - i], T.poly, T.p)
            acc = [(u + v) % T.p for u, v in zip(acc, prod)]
        out.extend(acc)
    return tuple(out)


def _horner(T, coeffs, z):
    acc = T.zero
    for c in reversed(coeffs):
        acc = acc * z + T.from_int(c)
    return acc


GRID = [(p, f, d) for p in (2, 3, 5) for f in (1, 2) for d in (1, 2, 3, 4)]


@pytest.mark.parametrize("p,f,d", GRID)
def test_kernel_against_oracles(p, f, d):
    rng = random.Random(f"kernel:{p}:{f}:{d}")
    for N in (2, 3, 8, 32):
        for mode in (lr.MIXED, lr.EQUAL):
            S, T = ctx_pair(p=p, f=f, d=d, N=N, mode=mode)
            q = p ** f
            for _ in range(3):
                x, y = T.random(rng), T.random(rng)
                # mul
                assert (x * y).coeffs == _oracle_mul(T, x, y)
                # sigma^k
                for k in range(1, d):
                    sx = T.frobenius(x, k)
                    if mode == lr.MIXED:
                        img = T.frobenius(T.gen, k)
                        assert sx == _horner(T, x.coeffs, img)
                        assert T._eval_int_poly(T.poly, img).is_zero()
                        assert T.residue_of(img) == T.residue.gen ** (q ** k)
                    else:
                        want = [_theta_pow(c, q ** k, T.poly, p)
                                for c in _digits(T, x)]
                        assert _digits(T, sx) == want
                # inv
                u = x if x.is_unit() else x + T.one
                if u.is_unit():
                    assert _oracle_mul(T, u, u.inv()) == T.one.coeffs
                # shift_down
                for k in (1, N - 1):
                    if mode == lr.MIXED:
                        pk = p ** k
                        up = tuple(c * pk % p ** N for c in x.coeffs)
                        want = tuple(c % p ** (N - k) for c in x.coeffs)
                    else:
                        up = (0,) * (k * T.m) + x.coeffs[:(N - k) * T.m]
                        want = x.coeffs[:(N - k) * T.m] + (0,) * (k * T.m)
                    assert lr.RingElem(T, up).shift_down(k).coeffs == want
                # embed_base and to_base
                s = S.random(rng)
                e = T.embed_base(s)
                assert T.to_base(e) == s
                assert T.frobenius(e, 1) == e
                if d > 1:
                    if mode == lr.MIXED:
                        assert e == _horner(T, s.coeffs, T.base_gen_image)
                    else:
                        root = list(_least_root(S.poly, T.poly, p))
                        want = [_theta_eval(c, root, T.poly, p)
                                for c in _digits(S, s)]
                        assert _digits(T, e) == want
                # rel_coords round trip
                coords = T.rel_coords(x)
                acc = T.zero
                for j, c in enumerate(coords):
                    acc = acc + lr.RingElem(
                        T, _oracle_mul(T, T.embed_base(c), T.gen ** j))
                assert acc == x
            if d > 1:
                with pytest.raises(InternalError):
                    T.to_base(T.gen)


def test_kernel_wide_slots():
    # coefficients mod 13^9 in t-length 4: packed slots exceed 64 bits
    R = lr.LocalRingCtx(13, 2, 1, 9, 4)
    mod = 13 ** 9
    rng = random.Random(5)
    for _ in range(5):
        x, y = R.random(rng), R.random(rng)
        want = []
        for k in range(4):
            acc = [0, 0]
            for i in range(k + 1):
                prod = _theta_mulmod(x.coeffs[2 * i:2 * i + 2],
                                     y.coeffs[2 * (k - i):2 * (k - i) + 2], R.poly, mod)
                acc = [(a + b) % mod for a, b in zip(acc, prod)]
            want += acc
        assert (x * y).coeffs == tuple(want)
        assert R.frobenius_p(x * y) == R.frobenius_p(x) * R.frobenius_p(y)
        # phi fixes t and lifts the 13-th power on the constants
        c = lr.RingElem(R, x.coeffs[:2] + (0,) * 6)
        assert all(v % 13 == 0 for v in (R.frobenius_p(c) - c ** 13).coeffs)
        assert R.frobenius_p(R.uniformizer) == R.uniformizer


@pytest.mark.parametrize("p", (2, 3, 13))
@pytest.mark.parametrize("k", (1, 2, 4, 8))
def test_block_map_at_its_slot_bound(p, k):
    """The block map of a matrix with k columns and k rows (or one row)
    against the naive matrix product on each t-block mod p^e: with every
    entry and every input coefficient p^e - 1, the largest slot values of
    the packed map, and with random ones.  At p = 13, e = 9 the slots are
    wider than any array type."""
    rng = random.Random(f"block:{p}:{k}")
    for e, n in product((1, 3, 9), (2, 8, 32, 64)):
        mod = p ** e
        for count in (k, 1):
            for draw in (lambda: mod - 1, lambda: rng.randrange(mod)):
                rows = [[draw() for _ in range(k)] for _ in range(count)]
                v = tuple(draw() for _ in range(k * n))
                want = [sum(map(int.__mul__, row, v[i * k:(i + 1) * k])) % mod
                        for i in range(n) for row in rows]
                assert lr._block_map(rows, k, n, mod)(v) == tuple(want)


@pytest.mark.parametrize("p", (2, 3, 5, 7, 13, 17))
@pytest.mark.parametrize("N", (2, 8, 32))
def test_packed_product_matches_schoolbook(p, N):
    # the packed n = 1 product at every m against the theta-product oracle
    rng = random.Random(f"prod:{p}:{N}")
    for m in range(1, 9):
        R = lr.base_ring(p, m, N, lr.MIXED)
        if N == 32 and m > 1:  # (p^32 - 1)^2 fits 64 bits only at p = 2
            assert lr._slot_bytes(R._term_bound) > 8  # the bytes fallback
        if N == 8 and p in (13, 17):  # the last array width, the first bytes join
            assert lr._slot_bytes(R._term_bound) == {13: 8, 17: 9}[p]
        mod = R.modulus
        zero, top = (0,) * m, (mod - 1,) * m
        cases = [(zero, zero), (zero, top), (top, zero), (top, top)]
        for _ in range(6):
            x = R.random(rng).coeffs
            cases += [(x, R.random(rng).coeffs), (x, x), (x, top), (zero, x)]
        for a, b in cases:
            want = tuple(_theta_mulmod(a, b, R.poly, mod))
            assert (lr.RingElem(R, a) * lr.RingElem(R, b)).coeffs == want


def test_every_ring_multiplies_through_its_one_term_kernel():
    for p, f, d, N, mode in product((2, 3), (1, 2), (1, 2, 3, 4), (2, 8, 32),
                                    (lr.MIXED, lr.EQUAL)):
        S = lr.base_ring(p, f, N, mode)
        for R in (S, lr.unramified(S, d), S.residue):
            assert R._prod == R._sum_kernel(1)


def _naive_dot(R, xs, ys):
    acc = R.zero
    for x, y in zip(xs, ys):
        acc = acc + x * y
    return acc


@pytest.mark.parametrize("mode", (lr.MIXED, lr.EQUAL))
@pytest.mark.parametrize("m", (1, 2, 4, 8))
@pytest.mark.parametrize("N", (2, 8, 32, 64))
def test_dot_and_matmul_match_naive_sums(mode, m, N):
    R = lr.base_ring(3, m, N, mode)
    # every coefficient p^e - 1: the largest slot values a sum can reach
    top = R.from_vec([R.modulus - 1] * R.zp_rank)
    width = lr._slot_bytes(R._term_bound)
    if mode == lr.MIXED and N == 32:
        assert width > 8  # no array type: the bytes fallback of _slots
    cap = ((1 << 8 * width) - 1) // R._term_bound  # terms the narrowest slots hold
    rng = random.Random(f"dot:{mode}:{m}:{N}")

    def draw(count):
        # random elements with zeros mixed in
        return [R.zero if rng.random() < 0.25 else R.random(rng) for _ in range(count)]

    for terms in (0, 1, 4, cap, cap + 1):
        for xs, ys in (([top] * terms, [top] * terms), (draw(terms), draw(terms))):
            assert R.dot(xs, ys) == _naive_dot(R, xs, ys)
        if not terms:
            continue  # B = []: no rows to read its columns from
        for A, B in (([[top] * terms] * 2, [[top] * 3] * terms),
                     ([draw(terms) for _ in range(2)], [draw(3) for _ in range(terms)])):
            want = [[_naive_dot(R, row, col) for col in zip(*B)] for row in A]
            assert R.matmul(A, B) == want


@pytest.mark.parametrize("mode", (lr.MIXED, lr.EQUAL))
def test_packing_cache_follows_the_kernel(mode):
    """One element passes through kernels of several slot widths, each
    after every other: every result equals the one computed from a fresh
    copy of the element, which packs anew, and the element's equality and
    hash stay.  The dot of cap + 1 terms packs in wider slots than the
    product, so a packing kept without its kernel would be misread."""
    from test_linalg import charpoly  # test_linalg imports this module
    S, T = ctx_pair(d=4, N=8, mode=mode)
    A, TO = algebra.make(T, 1), tensor.make(T, 1)
    rng = random.Random(f"cache:{mode}")
    x = T.random(rng) + T.one
    assert x.is_unit()  # A.elem keeps the coefficients as they are
    y = T.random(rng)
    cap = ((1 << 8 * lr._slot_bytes(T._term_bound)) - 1) // T._term_bound
    ys = [T.random(rng) for _ in range(cap + 1)]

    def tensor_elem(z):
        return TO.from_components([z, y, z, z])

    ops = [
        lambda z: z * y,
        lambda z: z * z,
        lambda z: T.dot([z], [y]),
        lambda z: T.dot([z, y, z, y], ys[:4]),
        lambda z: T.dot([z] * cap, ys[:cap]),
        lambda z: T.dot([z] * (cap + 1), ys),
        lambda z: T.matmul([[z, y], [y, z]], [[y, z], [z, z]]),
        lambda z: charpoly([[z, y, z], [y, z, y], [z, z, y]], T),
        lambda z: A.elem(0, [z, y, z, y]) * A.elem(0, [y, z, z, z]),
        lambda z: (TO.order_elem([tensor_elem(z), TO.zero, TO.one, tensor_elem(z)])
                   * TO.order_elem([TO.one, tensor_elem(z), TO.zero, tensor_elem(z)])),
    ]
    h = hash(x)
    for first in range(len(ops)):
        for op in ops[first:] + ops[:first]:
            assert op(x) == op(lr.RingElem(T, x.coeffs))
    assert x == lr.RingElem(T, x.coeffs)
    assert hash(x) == h


def test_dot_rejects_foreign_operands():
    S, T = ctx_pair()
    with pytest.raises(CtxMismatchError):
        T.dot([T.one, S.one], [T.one, T.one])
    with pytest.raises(CtxMismatchError):
        T.matmul([[S.one]], [[T.one]])


def test_ring_maps_reject_foreign_elements():
    _, T1 = ctx_pair(p=3, d=2, N=8)
    _, T2 = ctx_pair(p=5, d=2, N=8)
    x = T2.gen + T2.from_int(7)
    for call in (lambda: T1.frobenius(x), lambda: T1.frobenius_p(x, 0),
                 lambda: T1.to_base(x), lambda: T1.rel_coords(x),
                 lambda: T1.residue_of(x)):
        with pytest.raises(CtxMismatchError):
            call()


def test_negative_shift_down_is_exact_pi_multiplication():
    rng = random.Random(8)
    for mode in (lr.MIXED, lr.EQUAL):
        S, T = ctx_pair(d=3, N=4, mode=mode)
        pi = T.uniformizer
        for _ in range(5):
            x = T.random(rng)
            for k in range(1, T.prec + 2):
                assert x.shift_down(-k) == x * pi ** k
            # far past the precision: zero, with no power of p beyond p^e
            assert x.shift_down(-10 ** 9).is_zero()


def newton_inv(x):
    """Oracle: the residue inverse a^(q-2), lifted by Newton steps
    b <- b(2 - xb) until (p, t)^(e+n-1) = 0."""
    ctx = x.ctx
    res = ctx.residue
    b = lr.power(ctx.residue_of(x), ctx.p ** ctx.m - 2, res.one)
    if res is ctx:
        return b
    b = ctx.from_residue(b)
    two = ctx.from_int(2)
    for _ in range(max(1, math.ceil(math.log2(ctx.e + ctx.n - 1)))):
        b = b * (two - x * b)
    assert x * b == ctx.one
    return b


def inverse_rings():
    """Residue fields, S and T over p in {2,3,5,7,13}, f <= 2, d <= 4,
    N in {2,3,8,9,32}, both modes, and the Witt lift ring of an
    equal-characteristic ring."""
    for p, f, d, N, mode in product((2, 3, 5, 7, 13), (1, 2), (1, 2, 3, 4),
                                    (2, 3, 8, 9, 32), (lr.MIXED, lr.EQUAL)):
        S = lr.base_ring(p, f, N, mode)
        T = lr.unramified(S, d)
        yield from {T.residue, S, T}
    yield lr.LocalRingCtx(3, 2, 1, 7, 4)


def test_inverse_matches_newton_oracle():
    rng = random.Random(9)
    count = 0
    for R in inverse_rings():
        for _ in range(3):
            x = R.random(rng)
            if not x.is_unit():
                x = x + R.one
            if x.is_unit():
                assert x.inv() == newton_inv(x), R
                count += 1
    assert count > 2000


def test_inverse_rejects_non_units():
    for mode in (lr.MIXED, lr.EQUAL):
        S, T = ctx_pair(d=3, N=5, mode=mode)
        with pytest.raises(NotInvertibleError) as info:
            (T.uniformizer ** 2 * T.gen).inv()
        assert info.value.ord == 2


def test_building_a_ring_inverts_only_in_residue_fields(monkeypatch):
    """Newton's method in a ring under construction takes no inverse there
    (an inverse needs the ring's Frobenius): residue-field inverses seed it
    in mixed characteristic, and e = 1 rings need none at all.  The search
    for the defining polynomials, which inverts in F_p, is done first."""
    configs = ((3, 1, 4), (2, 2, 3), (5, 2, 2), (7, 1, 3))
    for p, f, d in configs + ((5, 3, 1),):
        ff.defining_poly(p, f)
        ff.defining_poly(p, f * d)
    seen = []
    inv = lr.RingElem.inv

    def spy(x):
        seen.append(x.ctx)
        return inv(x)
    monkeypatch.setattr(lr.RingElem, "inv", spy)
    for p, f, d in configs:
        for mode in (lr.MIXED, lr.EQUAL):
            seen.clear()
            S = lr.base_ring(p, f, 8, mode)
            T = lr.unramified(S, d)
            T.frobenius_p(T.gen)  # the map the first inverse builds
            assert all(R.e * R.n == 1 for R in seen)
            if mode == lr.EQUAL and f == 1:
                assert seen == []
    seen.clear()
    F = lr.LocalRingCtx(5, 3, 1, 1, 1)
    F.frobenius_p(F.gen)
    assert seen == []


def test_inverse_under_a_wrong_product_raises_internal_error():
    """A product one too large in its constant coefficient makes the norm
    of some units divisible by p, or leave the prime ring: both are
    reported as InternalError.  The planted field is built here, not
    taken from the shared residue_field cache, and its phi first."""
    F = lr.LocalRingCtx(3, 2, 1, 1, 1)
    F.frobenius_p(F.gen)
    pack, finish = F._prod

    def plus_one(c):
        t = finish(c)
        return ((t[0] + 1) % 3,) + t[1:]
    F._prod = (pack, plus_one)
    units = [lr.RingElem(F, (a, b)) for a in range(3) for b in range(3) if a or b]
    for x in units:
        with pytest.raises(InternalError):
            x.inv()
