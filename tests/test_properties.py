"""Property tests of the kernel ring product, with a derandomized profile
so that every run draws the same examples."""

from functools import lru_cache

import pytest

from hasseorder import localring as lr
from test_localring import _oracle_mul

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

PROFILE = hypothesis.settings(derandomize=True, database=None, deadline=None,
                              max_examples=150)


@lru_cache(maxsize=None)
def ring(p, f, d, N, mode):
    return lr.unramified(lr.base_ring(p, f, N, mode), d)


@st.composite
def ring_and_elements(draw, count):
    """A ring T over p in {2,3,5,7}, f in {1,2}, d <= 6, N in [2,12], either
    mode, and `count` of its elements."""
    T = ring(draw(st.sampled_from((2, 3, 5, 7))), draw(st.integers(1, 2)),
             draw(st.integers(1, 6)), draw(st.integers(2, 12)),
             draw(st.sampled_from((lr.MIXED, lr.EQUAL))))
    coeff = st.integers(0, T.modulus - 1)
    vec = st.lists(coeff, min_size=T.zp_rank, max_size=T.zp_rank)
    return T, [lr.RingElem(T, tuple(draw(vec))) for _ in range(count)]


@PROFILE
@hypothesis.given(ring_and_elements(3))
def test_product_matches_oracle_and_associates(case):
    T, (x, y, z) = case
    # pack the operands first, in the slots of a three-term sum
    T.dot([x, y, z], [z, x, y])
    assert (x * y).coeffs == _oracle_mul(T, x, y)
    assert (x * y) * z == x * (y * z)
