"""The packed skew product (`algebra.skew_mul`) against the elementwise one.

The oracle is the product as written before it ran on packings: sigma is
applied to each coefficient, each output coefficient is two reduced dot
products, and the wrap x^d = pi_K multiplies the upper one by pi_K.
"""

import math
import random

import pytest

from hasseorder import algebra, tensor
from hasseorder import localring as lr
from hasseorder.tensor import TensorElem


def skew_mul_oracle(ys, zs, sigma, r, dot, times_pi):
    """Product of sum y_i x^i and sum z_j x^j in R^{tau}{x}/(x^d - pi).

    x z = tau(z) x with tau = sigma^r, where sigma(z, k) applies sigma^k to
    a coefficient of R; pi must be central.  Output coefficient s is the
    dot product of the y_i and sigma^{ri}(z_j) with i + j = s, plus
    times_pi of the dot product of those with i + j = s + d.
    """
    d = len(ys)
    # terms[s][w]: the factors of the terms with i + j = s + w*d
    terms = [(([], []), ([], [])) for _ in range(d)]
    for i, yi in enumerate(ys):
        if yi.is_zero():
            continue
        for j, zj in enumerate(zs):
            if not zj.is_zero():
                left, right = terms[(i + j) % d][i + j >= d]
                left.append(yi)
                right.append(sigma(zj, r * i))
    out = []
    for below, above in terms:
        c = dot(*below)
        if above[0]:
            c = c + times_pi(dot(*above))
        out.append(c)
    return out


def delem_oracle(a, b):
    A = a.ctx
    T = A.T
    return A.elem(a.shift + b.shift, skew_mul_oracle(
        a.coeffs, b.coeffs, T.frobenius, A.r, T.dot, lambda y: y.shift_down(-1)))


def order_oracle(z, w):
    TO = z.ctx

    def dot(xs, ys):
        if not xs:
            return TO.zero
        return TensorElem(TO, tuple(map(TO.T.dot, zip(*[x.parts for x in xs]),
                                        zip(*[y.parts for y in ys]))))
    piK = TO.right(TO.T.uniformizer)
    return TO.order_elem(skew_mul_oracle(z.parts, w.parts, TensorElem.sigma_left,
                                         TO.r, dot, piK.__mul__))


def _twist(d, k):
    """The k-th valid twist r for d, cyclically."""
    rs = [r for r in range(1, d) if math.gcd(r, d) == 1] or [0]
    return rs[k % len(rs)]


def _top(T):
    """The element with every coefficient p^e - 1."""
    return T.from_vec([T.modulus - 1] * T.zp_rank)


def _sparse(T, rng):
    v = [0] * T.zp_rank
    v[rng.randrange(T.zp_rank)] = rng.randrange(1, T.modulus)
    return T.from_vec(v)


def _factors(A, rng):
    """Zero, sparse, all-(p^e-1), pi_D^{d-1} and random elements of A at
    shifts -1, 0 and 3."""
    T, d = A.T, A.d
    sparse = [T.zero] * d
    sparse[rng.randrange(d)] = _sparse(T, rng)
    return {
        "zero": A.zero,
        "sparse": A.elem(0, sparse),
        "top": A.elem(-1, [_top(T)] * d),
        "piD": A.pi_D_pow(d - 1),
        "random": A.elem(3, [T.random(rng) for _ in range(d)]),
        "top-piD": A.elem(3, [T.zero] * (d - 1) + [_top(T)]),
    }


PAIRS = (("top", "top"), ("top-piD", "top-piD"), ("piD", "top"),
         ("sparse", "random"), ("zero", "random"))

# (p, f, d, N, mode, r): every (p, f), d and mode, with N and r cycling
# over (p, f), so that each (d, N, mode) occurs with several (p, f) and
# every valid r occurs for each d <= 5
GRID = [(p, f, d, (2, 8, 32)[(k + j) % 3], mode, _twist(d, k + j))
        for k, (p, f) in enumerate((p, f) for p in (2, 3, 5, 7, 13) for f in (1, 2))
        for d in (1, 2, 3, 4, 5, 8)
        for j, mode in enumerate((lr.MIXED, lr.EQUAL))]


@pytest.mark.parametrize("p", (2, 3, 5, 7, 13))
def test_products_match_oracle(p):
    for (q, f, d, N, mode, r) in GRID:
        if q != p:
            continue
        T = lr.unramified(lr.base_ring(p, f, N, mode), d)
        A = algebra.make(T, r)
        rng = random.Random(f"skew:{p}:{f}:{d}:{N}:{mode}:{r}")
        els = _factors(A, rng)
        for x, y in PAIRS:
            a, b = els[x], els[y]
            assert (a * b).serialize() == delem_oracle(a, b).serialize(), \
                (f, d, N, mode, r, x, y)
        if N * d > 40:  # the oracle's products in A (x)_S T take seconds there
            continue
        TO = tensor.make(T, r)
        top = TO.order_elem([TO.from_components([_top(T)] * d)] * d)
        sparse = TO.order_elem([TO.zero] * (d - 1) + [TO.right(_sparse(T, rng))])
        for z, w in ((top, top), (TO.order_random(rng), sparse)):
            assert z * w == order_oracle(z, w), (f, d, N, mode, r)
