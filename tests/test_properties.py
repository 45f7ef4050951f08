"""Property tests of the kernel ring product, the parser and the algebra A,
drawn under the derandomized profile of `conftest.py`."""

import math
from functools import lru_cache

import pytest

from hasseorder import algebra
from hasseorder import localring as lr
from hasseorder.cli import fmt_delem
from hasseorder.parser import evaluate
from test_localring import _oracle_mul

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@lru_cache(maxsize=None)
def ring(p, f, d, N, mode):
    return lr.unramified(lr.base_ring(p, f, N, mode), d)


@lru_cache(maxsize=None)
def algebra_ctx(p, f, d, r, N, mode):
    return algebra.make(ring(p, f, d, N, mode), r)


def ring_elements(draw, T, count):
    coeff = st.integers(0, T.modulus - 1)
    vec = st.lists(coeff, min_size=T.zp_rank, max_size=T.zp_rank)
    return [lr.RingElem(T, tuple(draw(vec))) for _ in range(count)]


@st.composite
def ring_and_elements(draw, count):
    """A ring T over p in {2,3,5,7}, f in {1,2}, d <= 6, N in [2,12], either
    mode, and `count` of its elements."""
    T = ring(draw(st.sampled_from((2, 3, 5, 7))), draw(st.integers(1, 2)),
             draw(st.integers(1, 6)), draw(st.integers(2, 12)),
             draw(st.sampled_from((lr.MIXED, lr.EQUAL))))
    return T, ring_elements(draw, T, count)


@st.composite
def algebra_and_elements(draw, count):
    """An algebra A over p in {2,3,5,7}, f in {1,2}, d <= 4, each twist r
    valid for d, N in [2,8], either mode, and `count` elements of A, each
    pi_K^s times d coefficients in T with s in [0, N]."""
    d = draw(st.integers(1, 4))
    r = draw(st.sampled_from([r for r in range(d) if math.gcd(r, d) == 1]
                             if d > 1 else [0]))
    N = draw(st.integers(2, 8))
    A = algebra_ctx(draw(st.sampled_from((2, 3, 5, 7))), draw(st.integers(1, 2)),
                    d, r, N, draw(st.sampled_from((lr.MIXED, lr.EQUAL))))
    return A, [A.elem(draw(st.integers(0, N)), ring_elements(draw, A.T, d))
               for _ in range(count)]


@hypothesis.settings(max_examples=150)
@hypothesis.given(ring_and_elements(3))
def test_product_matches_oracle_and_associates(case):
    T, (x, y, z) = case
    # pack the operands first, in the slots of a three-term sum
    T.dot([x, y, z], [z, x, y])
    assert (x * y).coeffs == _oracle_mul(T, x, y)
    assert (x * y) * z == x * (y * z)


@hypothesis.settings(max_examples=150)
@hypothesis.given(algebra_and_elements(1))
def test_parser_reads_back_the_canonical_form(case):
    A, (a,) = case
    back = evaluate(A, fmt_delem(a))
    assert back == a and back.serialize() == a.serialize()


@hypothesis.settings(max_examples=150)
@hypothesis.given(algebra_and_elements(3))
def test_algebra_associates_and_distributes(case):
    A, (a, b, c) = case
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
