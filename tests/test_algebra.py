import random

import pytest

from hasseorder import algebra, linalg
from hasseorder import localring as lr
from hasseorder.errors import (NotInvertibleError, ParameterError,
                               PrecisionError)
from test_linalg import charpoly, det_bareiss, zp_det, zp_rows


def make(p=3, f=1, d=2, r=1, N=8, mode=lr.MIXED):
    S = lr.base_ring(p, f, N, mode)
    T = lr.unramified(S, d)
    return S, T, algebra.make(T, r if d > 1 else 0)


def test_bad_twist():
    S = lr.base_ring(3, 1, 4, lr.MIXED)
    T = lr.unramified(S, 4)
    with pytest.raises(ParameterError):
        algebra.make(T, 2)
    with pytest.raises(ParameterError):
        algebra.make(T, 0)
    with pytest.raises(ParameterError):
        algebra.make(T, 4)


def test_d1_is_base_ring():
    S, T, A = make(d=1, r=0)
    assert A.pi_D == A.from_T(T.uniformizer)
    a = A.from_int(7)
    assert a.ord() == 0
    trd, nrd = a.trd_nrd()
    assert nrd == S.from_int(7)


def test_quaternion_type_relation():
    # (3,2,1): pi_D^2 = 3
    S, T, A = make()
    assert A.pi_D * A.pi_D == A.from_int(3)


def test_spec_product():
    # (3+x)*(3-x) = 9 - pi_K = 6
    S, T, A = make()
    a = A.from_int(3) + A.pi_D
    b = A.from_int(3) - A.pi_D
    assert a * b == A.from_int(6)
    assert b * a == A.from_int(6)


def test_twisted_relation():
    # x * y = sigma_r(y) * x for y in T
    rng = random.Random(0)
    for (d, r) in ((2, 1), (3, 1), (3, 2)):
        S, T, A = make(p=5, d=d, r=r)
        for _ in range(20):
            t = T.random(rng)
            lhs = A.pi_D * A.from_T(t)
            rhs = A.from_T(T.frobenius(t, r)) * A.pi_D
            assert lhs == rhs


def test_ring_axioms_sampled():
    rng = random.Random(1)
    for (p, d, r, mode) in ((3, 2, 1, lr.MIXED), (5, 3, 2, lr.MIXED),
                            (3, 2, 1, lr.EQUAL)):
        S, T, A = make(p=p, d=d, r=r, mode=mode)
        for _ in range(200):
            a, b, c = A.random(rng), A.random(rng), A.random(rng)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a + b) * c == a * c + b * c


def test_ord():
    S, T, A = make()
    assert A.pi_D.ord() == 1
    assert A.from_T(T.uniformizer).ord() == 2
    assert A.one.ord() == 0
    assert A.zero.ord() == A.ord_cap
    rng = random.Random(2)
    for _ in range(50):
        a, b = A.random(rng), A.random(rng)
        if a.is_zero() or b.is_zero():
            continue
        if a.ord() + b.ord() <= A.d * (A.prec - 1):
            assert (a * b).ord() == a.ord() + b.ord()


def test_embed_is_multiplicative_and_additive():
    rng = random.Random(3)
    for (p, d, r) in ((3, 2, 1), (5, 3, 2)):
        S, T, A = make(p=p, d=d, r=r)
        for _ in range(30):
            a, b = A.random(rng), A.random(rng)
            assert (a * b).embed() == T.matmul(a.embed(), b.embed())
            assert (a + b).embed() == [[u + v for u, v in zip(ra, rb)]
                                         for ra, rb in zip(a.embed(), b.embed())]


def test_embed_pi_d_spec_matrix():
    # l(pi_D) at (3,2,1,N=4): [[0, 3], [1, 0]]
    S, T, A = make(N=4)
    M = A.pi_D.embed()
    assert M[0][0].is_zero() and M[1][1].is_zero()
    assert M[0][1] == T.from_int(3)
    assert M[1][0] == T.one


def test_trd_nrd_values():
    S, T, A = make(N=4)
    trd, nrd = A.pi_D.trd_nrd()
    assert trd.is_zero()
    assert nrd == S.from_int(-3)
    trd1, nrd1 = A.one.trd_nrd()
    assert trd1 == S.from_int(2)
    assert nrd1 == S.one


def test_norm_trace_identities():
    rng = random.Random(4)
    for (p, d, r, mode) in ((3, 2, 1, lr.MIXED), (5, 3, 1, lr.MIXED),
                            (3, 2, 1, lr.EQUAL)):
        S, T, A = make(p=p, d=d, r=r)
        for _ in range(25):
            a = A.random(rng)
            trd, nrd = a.trd_nrd()
            tr, nm = a.full_norm_trace()
            assert nm == nrd ** d
            prod = S.zero
            for _ in range(d):
                prod = prod + trd
            assert tr == prod


def test_ord_is_valuation_of_nrd():
    rng = random.Random(5)
    for (p, d, r) in ((3, 2, 1), (5, 3, 2), (3, 4, 1)):
        S, T, A = make(p=p, d=d, r=r)
        for _ in range(40):
            a = A.random(rng)
            if a.ord() <= d * (A.prec - 2):
                _, nrd = a.trd_nrd()
                assert a.ord() == nrd.ord()


def test_inverse():
    rng = random.Random(6)
    S, T, A = make()
    assert A.one.inv() == A.one
    # inv(pi_D) = pK^{-1} * pi_D^{d-1}
    ipi = A.pi_D.inv()
    assert ipi.shift == -1
    assert ipi * A.pi_D == A.one
    assert A.pi_D * ipi == A.one
    # spec: inv(3 + pi_D) * (3 + pi_D) = 1
    a = A.from_int(3) + A.pi_D
    assert a.inv() * a == A.one
    for _ in range(30):
        a = A.random(rng)
        if a.is_zero() or a.ord() > A.d * (A.prec - 2):
            continue
        assert a * a.inv() == A.one
        assert a.inv() * a == A.one
    with pytest.raises(NotInvertibleError):
        A.zero.inv()


def cayley_hamilton_inv(a):
    """Oracle: peel pi_D off on the left, a = pi_D^v * u with u a unit, and
    invert u by Cayley-Hamilton on the first column.

    In right coordinates b = sum_s pi_D^s t_s, u * b = 1 reads M t = e_0 for
    M = u.embed(); with det(x - M) = x^d + c_0 x^{d-1} + ... + c_{d-1}
    (Berkowitz, `charpoly`), t = -c_{d-1}^{-1} (M^{d-1} + c_0 M^{d-2}
    + ... + c_{d-2}) e_0, by Horner's rule from M e_0, the first column of
    M: d - 2 products with M.  b has left coefficients y_s = sigma_r^s(t_s).
    """
    A = a.ctx
    T, d, v = A.T, A.d, a.ord()
    ys = list(a.coeffs)
    for _ in range(v % d):
        # one exact left division by pi_D
        ys = [T.frobenius(c, -A.r) for c in ys[1:]] + [T.frobenius(ys[0].shift_down(1), -A.r)]
    u = algebra.DElem(A, 0, tuple(c.shift_down(v // d - a.shift) for c in ys))
    M = u.embed()
    *cs, last = charpoly(M, T)
    t = [T.one] + [T.zero] * (d - 1)
    for k, c in enumerate(cs):
        t = linalg.rmat_vec(M, t, T) if k else [row[0] for row in M]
        t[0] = t[0] + c
    scale = -last.inv()
    b = A.elem(0, [T.frobenius(scale * ts, A.r * s) for s, ts in enumerate(t)])
    assert (u * b - A.one).is_zero() and (b * u - A.one).is_zero()
    return b * A.pi_D_pow(-v)


# the acceptance configs (p, d, r, mode) at N = 8, and d = 1
INVERSE_CONFIGS = ((3, 2, 1, lr.MIXED), (5, 3, 1, lr.MIXED), (5, 3, 2, lr.MIXED),
                   (3, 4, 1, lr.MIXED), (3, 2, 1, lr.EQUAL), (3, 1, 0, lr.MIXED),
                   (5, 1, 0, lr.EQUAL))


@pytest.mark.parametrize("p, d, r, mode", INVERSE_CONFIGS)
def test_inverse_matches_cayley_hamilton_oracle(p, d, r, mode):
    rng = random.Random(f"inv-oracle:{p}:{d}:{r}:{mode}")
    S, T, A = make(p=p, d=d, r=r, mode=mode)
    top = d * (A.prec - 2)
    ords = set()
    for k in range(24):
        # every third element a unit, the others pushed to ord_D in 1..top
        a = A.random(rng) * A.pi_D_pow(0 if k % 3 == 0 else rng.randint(1, top))
        if a.is_zero() or a.ord() > top:
            continue
        ords.add(a.ord())
        b = a.inv()
        want = cayley_hamilton_inv(a)
        assert (b.shift, b.coeffs) == (want.shift, want.coeffs)
    assert 0 in ords and len(ords) > 5


@pytest.mark.parametrize("p, d, r, mode",
                         INVERSE_CONFIGS + ((3, 8, 1, lr.MIXED), (3, 8, 1, lr.EQUAL)))
def test_trd_nrd_matches_charpoly(p, d, r, mode):
    """Oracle: det(x - M) = x^d + c_0 x^{d-1} + ... + c_{d-1} of M = a.embed()
    by Berkowitz (`charpoly`), so Trd = -c_0 and Nrd = (-1)^d c_{d-1}:
    a determinant over T that does not come from `linalg.eliminate`."""
    rng = random.Random(f"trd-nrd-oracle:{p}:{d}:{r}:{mode}")
    S, T, A = make(p=p, d=d, r=r, mode=mode)
    nonunits = 0
    for k in range(12):
        a = A.random(rng) * A.pi_D_pow(0 if k % 3 == 0 else rng.randint(1, d * A.prec))
        cs = charpoly(a.embed(), T)
        trd, nrd = -cs[0], (cs[-1] if d % 2 == 0 else -cs[-1])
        assert a.trd_nrd() == (T.to_base(trd), T.to_base(nrd))
        nonunits += not nrd.is_unit()
    assert nonunits > 0


@pytest.mark.parametrize("p, d, r, mode", INVERSE_CONFIGS)
def test_unit_part(p, d, r, mode):
    rng = random.Random(f"unit-part:{p}:{d}:{r}:{mode}")
    S, T, A = make(p=p, d=d, r=r, mode=mode)
    top = d * (A.prec - 2)
    ords = set()
    for k in range(24):
        a = A.random(rng) * A.pi_D_pow(0 if k % 3 == 0 else rng.randint(1, top))
        if a.is_zero() or a.ord() > top:
            continue
        v, u = a._unit_part()
        ords.add(v)
        assert v == a.ord()
        assert u.shift == 0 and u.ord() == 0
        assert A.pi_D_pow(v) * u == a
    assert 0 in ords and len(ords) > 5


def test_conjugate_by_matches_right_split():
    """Oracle: split pi = u' * pi_D^v on the right, u' = pi * pi_D^{-v}, so
    pi * a * pi^{-1} = u' * sigma_conj(a, v) * u'^{-1}.

    Dividing pi_D off passes x^d = pi_K unless d | v, so each split knows
    its unit part to one pi_K-digit less than pi; the two routes then agree
    to ord_D d(N - 1) + ord_D(a), and exactly when d | v."""
    for p, d, r, mode in INVERSE_CONFIGS:
        rng = random.Random(f"conj-split:{p}:{d}:{r}:{mode}")
        S, T, A = make(p=p, d=d, r=r, mode=mode)
        top = d * (A.prec - 2)
        for k in range(8):
            pi = A.random(rng) * A.pi_D_pow(rng.randint(0, top))
            a = A.random(rng) * A.pi_D_pow(rng.randint(0, d))
            if pi.is_zero() or pi.ord() > top:
                continue
            v = pi.ord()
            u = pi * A.pi_D_pow(-v)
            got, want = a.conjugate_by(pi), u * a.sigma_conj(v) * u.inv()
            if v % d == 0:
                assert (got.shift, got.coeffs) == (want.shift, want.coeffs)
            else:
                assert (got - want).ord() >= d * (A.prec - 1) + a.ord()


def embed_oracle(a):
    """The explicit loop: entry (j, s) = pi_K^{floor((i+s)/d) + shift} *
    sigma_r^{-j}(y_i) with i = (j - s) mod d."""
    A = a.ctx
    T, d = A.T, A.d
    out = []
    for j in range(d):
        row = []
        for s in range(d):
            i = (j - s) % d
            y = a.coeffs[i]
            e = (i + s) // d + a.shift
            row.append(T.zero if y.is_zero() else T.frobenius(y, -A.r * j).shift_down(-e))
        out.append(row)
    return out


def _matrix_or_error(embed, a):
    try:
        return embed(a)
    except PrecisionError:
        return PrecisionError


def test_embed_matches_loop_formula():
    for p, d, r, mode in INVERSE_CONFIGS:
        rng = random.Random(f"embed-loop:{p}:{d}:{r}:{mode}")
        S, T, A = make(p=p, d=d, r=r, mode=mode)
        elems = [A.random(rng) * A.pi_D_pow(k) for k in (0, 1, d, 2 * d + 1)]
        # an inverse of a non-unit has a negative shift; it lies outside A
        elems.append((A.random(rng) * A.pi_D_pow(d + 1)).inv())
        assert elems[-1].shift < 0
        for a in elems:
            assert _matrix_or_error(algebra.DElem.embed, a) == _matrix_or_error(embed_oracle, a)


def test_inverse_precision_guard():
    S, T, A = make(N=3)
    deep = A.from_T(T.uniformizer ** 2)  # ord = 2*d > d*(N-2)
    with pytest.raises(PrecisionError):
        deep.inv()


def test_conjugation():
    rng = random.Random(7)
    for (p, d, r) in ((3, 2, 1), (5, 3, 2)):
        S, T, A = make(p=p, d=d, r=r)
        # pi_D t pi_D^{-1} = sigma^r(t) on every T-basis element
        for j in range(T.m):
            v = [0] * T.zp_rank
            v[j * (T.zp_rank // T.m)] = 1
            t = T.gen ** j
            got = A.from_T(t).conjugate_by(A.pi_D)
            assert got == A.from_T(T.frobenius(t, r))
        # central elements are fixed
        s = A.from_T(T.embed_base(S.random(rng)))
        a = A.random(rng)
        if not a.is_zero() and a.ord() <= d * (A.prec - 2):
            assert s.conjugate_by(a) == s
            # conjugation preserves ord
            b = A.random(rng)
            if not b.is_zero():
                assert b.conjugate_by(a).ord() == b.ord()
        # conjugation action has exact order d on T
        t = A.from_T(T.gen)
        cur = t
        first_return = 0
        for k in range(1, d + 1):
            cur = cur.conjugate_by(A.pi_D)
            if cur == t:
                first_return = k
                break
        assert first_return == d


def left_mult_matrix_oracle(a):
    """The S-matrix of left multiplication by a through d^2 products
    a * theta^j pi_D^i in D and the relative coordinates of each."""
    A = a.ctx
    T, d = A.T, A.d
    cols = []
    for i in range(d):
        for j in range(d):
            basis = [T.zero] * d
            basis[i] = T.gen ** j
            c = a * algebra.DElem(A, 0, tuple(basis))
            if c.shift < 0:
                raise PrecisionError("left multiplication left the order A")
            scale = T.uniformizer ** c.shift
            col = []
            for k in range(d):
                col.extend(T.rel_coords(c.coeffs[k] * scale))
            cols.append(col)
    n = d * d
    return [[cols[c][r] for c in range(n)] for r in range(n)]


@pytest.mark.parametrize("mode", (lr.MIXED, lr.EQUAL))
@pytest.mark.parametrize("p,d,r", ((3, 2, 1), (5, 3, 1), (5, 3, 2), (3, 4, 1),
                                   (3, 5, 2)))
def test_left_mult_matrix_matches_products(p, d, r, mode):
    """At d = 5 the twist r = 2 differs from r^{-1} = 3 mod d; A.zero, pi_D
    and theta have zero x-coefficients, whose blocks are zero."""
    S, T, A = make(p=p, d=d, r=r, mode=mode)
    rng = random.Random(f"left-mult:{p}:{d}:{r}:{mode}")
    elems = [A.zero, A.one, A.pi_D, A.from_T(T.gen), A.pi_D_pow(d - 1)]
    for shift in (0, 0, 1, 3):
        coeffs = [T.random(rng) for _ in range(d)]
        coeffs[rng.randrange(d)] = T.zero
        elems.append(A.elem(shift, coeffs))
    for a in elems:
        assert a.shift >= 0
        assert a._left_mult_matrix() == left_mult_matrix_oracle(a)
    neg = A.elem(-1, [T.one] + [T.random(rng) for _ in range(d - 1)])
    for route in (algebra.DElem._left_mult_matrix, left_mult_matrix_oracle):
        with pytest.raises(PrecisionError):
            route(neg)


def test_full_norm_determinant_against_bareiss_at_d8():
    """The 64x64 full_norm_trace matrices of mixed d = 8: the elimination
    mod p^N against Bareiss over the integers, reduced mod p^N."""
    S, T, A = make(p=3, d=8, r=1)
    rng = random.Random("full-norm-d8")
    for shift in (0, 1, 5):
        a = A.elem(shift, [T.random(rng) for _ in range(8)])
        ints = [[x.coeffs[0] for x in row] for row in a._left_mult_matrix()]
        det = det_bareiss(ints) % S.modulus
        assert zp_det(ints, S.p, S.e) == det
        assert a.full_norm_trace()[1] == S.from_int(det)


def test_det_mod_pe_through_block_divisions_at_d8():
    """Two 64x64 left-multiplication matrices of mixed d = 8, against Bareiss
    mod 3^8 and 3^20: a unit of A, and an element of ord_D 1, whose block is
    left without a unit after 56 pivots (its rank mod 3) and divided by 3
    once, so each of the last 8 pivots carries a 3 (N(a) has valuation d)."""
    S, T, A = make(p=3, d=8, r=1)
    rng = random.Random("det-blocks-d8")
    ys = [T.random(rng) for _ in range(8)]
    ys[0], ys[1] = ys[0] * T.uniformizer, T.one + ys[1] * T.uniformizer
    for a, shift in ((A.elem(0, [T.random(rng) for _ in range(8)]), 0),
                     (A.elem(0, ys), 8)):
        assert a.ord() == shift // 8
        ints = [[x.coeffs[0] for x in row] for row in a._left_mult_matrix()]
        assert linalg.eliminate(*zp_rows(ints, 3, 20))[1:] == (shift, 0)
        det = det_bareiss(ints)
        for e in (8, 20):
            assert zp_det(ints, 3, e) == det % 3 ** e
