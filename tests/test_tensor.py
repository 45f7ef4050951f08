import random

import pytest

from hasseorder import algebra, linalg, tensor
from hasseorder import localring as lr
from hasseorder.errors import CtxMismatchError, ParameterError
from hasseorder.suites import u_eval, u_mul, u_sigma_left


def make(p=3, f=1, d=2, r=1, N=8, mode=lr.MIXED):
    S = lr.base_ring(p, f, N, mode)
    T = lr.unramified(S, d)
    r = r if d > 1 else 0
    return S, T, algebra.make(T, r), tensor.make(T, r)


CONFIGS = ((3, 2, 1, lr.MIXED), (5, 3, 1, lr.MIXED), (5, 3, 2, lr.MIXED),
           (3, 4, 1, lr.MIXED), (3, 2, 1, lr.EQUAL), (3, 1, 0, lr.MIXED),
           (3, 6, 5, lr.MIXED))


def test_bad_twist():
    S = lr.base_ring(3, 1, 4, lr.MIXED)
    T = lr.unramified(S, 4)
    with pytest.raises(ParameterError):
        tensor.make(T, 2)


def test_spec_idempotents_321():
    # (3,2,1): e_id = (u+theta)/(2 theta), e_sigma = (u-theta)/(-2 theta)
    S, T, A, TO = make()
    th = T.gen
    inv2th = (th + th).inv()
    e_id = TO.elem([th * inv2th, inv2th])
    e_sig = TO.elem([th * inv2th, -inv2th])
    assert TO.idempotents[0] == e_id
    assert TO.idempotents[1] == e_sig


def test_idempotent_algebra():
    # checked in the u-basis T[u]/(G), where the idempotents are not unit
    # vectors
    for (p, d, r, mode) in CONFIGS:
        S, T, A, TO = make(p=p, d=d, r=r, mode=mode)
        us = [e.u_coeffs() for e in TO.idempotents]
        total = [T.zero] * d
        for k, u in enumerate(us):
            assert u_mul(TO, u, u) == u
            total = [a + b for a, b in zip(total, u)]
            # w-components: w_g(e_h) = delta_{g,h}
            for j, c in enumerate(u_eval(TO, u)):
                assert c == (T.one if j == k else T.zero)
        assert total == [T.one] + [T.zero] * (d - 1)
        for j in range(d):
            for k in range(j + 1, d):
                assert all(c.is_zero() for c in u_mul(TO, us[j], us[k]))


def test_u_components_are_conjugate_roots():
    # x = u (= theta (x) 1): components (sigma^k(theta))_k
    for (p, d, r, mode) in CONFIGS[:3]:
        S, T, A, TO = make(p=p, d=d, r=r, mode=mode)
        comps = TO.u_elem.parts
        for k in range(d):
            assert comps[k] == T.frobenius(T.gen, k)
        assert TO.u_elem.u_coeffs() == [T.zero, T.one] + [T.zero] * (d - 2)


def test_w_is_ring_isomorphism():
    rng = random.Random(0)
    for (p, d, r, mode) in CONFIGS:
        S, T, A, TO = make(p=p, d=d, r=r, mode=mode)
        for _ in range(20):
            x, y = TO.random(rng), TO.random(rng)
            ux, uy = x.u_coeffs(), y.u_coeffs()
            assert TO.elem(ux) == x
            assert (x * y).u_coeffs() == u_mul(TO, ux, uy)
            assert (x + y).u_coeffs() == [a + b for a, b in zip(ux, uy)]


def test_elem_matches_horner_oracle():
    # the Vandermonde product against evaluation at each root by Horner
    rng = random.Random(3)
    for (p, d, r, mode) in CONFIGS:
        S, T, A, TO = make(p=p, d=d, r=r, mode=mode)
        for k in range(d + 1):
            a = [T.random(rng) for _ in range(k)]
            assert list(TO.elem(a).parts) == u_eval(TO, a)
        with pytest.raises(ParameterError):
            TO.elem([T.one] * (d + 1))


def test_sigma_actions_permute_idempotents():
    rng = random.Random(5)
    for (p, d, r, mode) in CONFIGS:
        S, T, A, TO = make(p=p, d=d, r=r, mode=mode)
        us = [e.u_coeffs() for e in TO.idempotents]
        sigma_left = u_sigma_left(TO)
        for k in range(d):
            assert TO.idempotents[k].sigma_left() == \
                TO.idempotents[(k - 1) % d]
            assert sigma_left(us[k]) == us[(k - 1) % d]
            assert TO.idempotents[k].sigma_right(1) == \
                TO.idempotents[(k + 1) % d]
            assert [T.frobenius(c, 1) for c in us[k]] == us[(k + 1) % d]
        for _ in range(5):
            x = TO.random(rng)
            ux = x.u_coeffs()
            assert x.sigma_left().u_coeffs() == sigma_left(ux)
            assert x.sigma_right(2).u_coeffs() == \
                [T.frobenius(c, 2) for c in ux]
            # sigma_left has order d
            y = x
            for _ in range(d):
                y = y.sigma_left()
            assert y == x and x.sigma_left(d) == x
            # u-basis serialization round trip
            assert TO.elem([T.from_vec(c if T.n == 1 else sum(c, []))
                            for c in x.serialize()]) == x


def horner_sigma_left(TO, a):
    """The former oracle sigma (x) id on u-coefficients: Horner in
    sigma(theta) (x) 1, written in the u-basis, over u_mul."""
    T = TO.T
    img = [T.embed_base(s) for s in T.rel_coords(T.frobenius(T.gen, 1))]
    acc = [T.zero] * TO.d
    for c in reversed(a):
        acc = u_mul(TO, acc, img)
        acc[0] = acc[0] + c
    return acc


@pytest.mark.parametrize("mode", (lr.MIXED, lr.EQUAL))
@pytest.mark.parametrize("d", (2, 3, 4, 8))
def test_sigma_left_matrix_matches_horner(mode, d):
    # the oracle's d x d matrix against Horner over u_mul
    S, T, A, TO = make(d=d, N=4, mode=mode)
    rng = random.Random(f"sigma-left:{mode}:{d}")
    sigma_left = u_sigma_left(TO)
    basis = [[T.one if j == k else T.zero for j in range(d)] for k in range(d)]
    for a in basis + [[T.random(rng) for _ in range(d)] for _ in range(4)]:
        assert sigma_left(a) == horner_sigma_left(TO, a)
    # and it is sigma (x) id on components
    x = TO.random(rng)
    assert sigma_left(x.u_coeffs()) == x.sigma_left().u_coeffs()


def test_order_relations():
    for (p, d, r, mode) in CONFIGS:
        S, T, A, TO = make(p=p, d=d, r=r, mode=mode)
        # (pi_D (x) 1)^d = pi_K (x) 1
        assert TO.x_elem ** d == TO.order_scalar(TO.right(T.uniformizer))
        # (pi_D (x) 1) e_h = (sigma_r (x) 1)(e_h) (pi_D (x) 1)
        for h in range(d):
            assert TO.x_elem * TO.order_idempotent(h) == \
                TO.order_idempotent((h - TO.r) % d) * TO.x_elem


def test_x_pow_matches_the_product_form():
    # x^i built directly as (pi_K^q (x) 1) x^s against the power of x_elem
    for (p, d, r, mode) in CONFIGS:
        S, T, A, TO = make(p=p, d=d, r=r, mode=mode)
        x = TO.x_elem
        for i in range(2 * d + 1):
            want = x ** i
            assert TO.x_pow(i) == want
            assert TO.x_pow(i).serialize() == want.serialize()


def test_x_power_is_the_only_nonzero_peirce_exponent():
    # at d = 5, r = 2 the inverse r^{-1} = 3 differs from r; at every d in
    # CONFIGS each twist is its own inverse mod d
    for (p, d, r, mode) in CONFIGS + ((3, 5, 2, lr.MIXED),):
        S, T, A, TO = make(p=p, d=d, r=r, mode=mode)
        for g in range(d):
            for h in range(d):
                nonzero = [i for i in range(d) if not (
                    TO.order_idempotent(g) * TO.x_pow(i)
                    * TO.order_idempotent(h)).is_zero()]
                assert nonzero == [TO.x_power(g, h)]


def test_componentwise_laws_and_mixing():
    rng = random.Random(3)
    for (p, d, r, mode) in CONFIGS:
        S, T, A, TO = make(p=p, d=d, r=r, mode=mode)
        for z in (TO.random(rng), TO.order_random(rng)):
            assert (z - z).is_zero()
            assert (z + -z).is_zero()
            assert -(-z) == z
        z, w = TO.random(rng), TO.order_random(rng)
        for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
            with pytest.raises(CtxMismatchError):
                op(z, w)
            with pytest.raises(CtxMismatchError):
                op(w, z)
        assert z != w


def test_embedding_compatible_with_algebra():
    rng = random.Random(1)
    for (p, d, r, mode) in CONFIGS[:3]:
        S, T, A, TO = make(p=p, d=d, r=r, mode=mode)
        for _ in range(20):
            a, b = A.random(rng), A.random(rng)
            assert TO.order_from_D(a) * TO.order_from_D(b) == \
                TO.order_from_D(a * b)
            assert TO.order_from_D(a) + TO.order_from_D(b) == \
                TO.order_from_D(a + b)


def test_embed_l_extends_da_embed():
    rng = random.Random(2)
    for (p, d, r, mode) in CONFIGS[:3]:
        S, T, A, TO = make(p=p, d=d, r=r, mode=mode)
        for _ in range(10):
            a = A.random(rng)
            assert TO.embed_l(TO.order_from_D(a)) == a.embed()


def test_embed_l_is_ring_hom():
    rng = random.Random(3)
    for (p, d, r, mode) in CONFIGS:
        S, T, A, TO = make(p=p, d=d, r=r, mode=mode)
        for _ in range(15):
            z, w = TO.order_random(rng), TO.order_random(rng)
            assert TO.embed_l(z * w) == T.matmul(TO.embed_l(z), TO.embed_l(w))


def test_milnor_membership_and_roundtrip():
    rng = random.Random(4)
    for (p, d, r, mode) in CONFIGS:
        S, T, A, TO = make(p=p, d=d, r=r, mode=mode)
        for _ in range(15):
            z = TO.order_random(rng)
            M = TO.embed_l(z)
            assert TO.milnor_member(M)
            back = TO.milnor_preimage(M)
            assert TO.embed_l(back) == M
        # a matrix with a unit strictly above the diagonal is not in the image
        if d > 1:
            M = linalg.rmat_id(T, d)
            M[0][1] = T.one
            assert not TO.milnor_member(M)


def test_milnor_dimensions():
    for (p, d, r, mode) in CONFIGS:
        S, T, A, TO = make(p=p, d=d, r=r, mode=mode)
        span_rows, rad_rows, lattice = [], [], []
        for a_pow in range(d):
            for i in range(d):
                coeffs = [TO.zero] * d
                coeffs[i] = TO.u_elem ** a_pow
                b = TO.order_elem(coeffs)
                lattice.append(b)
                M = TO.embed_l(b)
                span_rows.append([T.residue_of(e) for row in M for e in row])
                Mx = TO.embed_l(TO.x_elem * b)
                rad_rows.append([T.residue_of(e) for row in Mx for e in row])
        assert TO.milnor_lattice() == lattice
        assert len(linalg.echelon_basis(span_rows)) == d * (d + 1) // 2
        assert len(linalg.echelon_basis(rad_rows)) == d * (d - 1) // 2


def test_peirce_pattern():
    for (p, d, r, mode) in CONFIGS:
        S, T, A, TO = make(p=p, d=d, r=r, mode=mode)
        for h in range(d):
            nontrivial = [g for g in range(d)
                          if TO.peirce(g, h)["cokernel_length"] == 1]
            assert nontrivial == [(h + TO.r) % d]
