"""Property tests of the kernel ring product, the parser, the algebra A,
the change of basis of T (x)_S T, graded phi-modules and the unit-pivot
elimination, drawn under the derandomized profile of `conftest.py`."""

import math
import random
from functools import lru_cache

import pytest

from hasseorder import algebra, linalg, modcat, tensor
from hasseorder import localring as lr
from hasseorder.cli import fmt_delem
from hasseorder.parser import evaluate
from test_linalg import ColumnSolver, charpoly, det_bareiss
from test_localring import _oracle_mul
from test_modcat import phi_composite

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@lru_cache(maxsize=None)
def ring(p, f, d, N, mode):
    return lr.unramified(lr.base_ring(p, f, N, mode), d)


@lru_cache(maxsize=None)
def algebra_ctx(p, f, d, r, N, mode):
    return algebra.make(ring(p, f, d, N, mode), r)


@lru_cache(maxsize=None)
def tensor_ctx(p, f, d, r, N, mode):
    return tensor.make(ring(p, f, d, N, mode), r)


def twists(d):
    return [r for r in range(d) if math.gcd(r, d) == 1] if d > 1 else [0]


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
    r = draw(st.sampled_from(twists(d)))
    N = draw(st.integers(2, 8))
    A = algebra_ctx(draw(st.sampled_from((2, 3, 5, 7))), draw(st.integers(1, 2)),
                    d, r, N, draw(st.sampled_from((lr.MIXED, lr.EQUAL))))
    return A, [A.elem(draw(st.integers(0, N)), ring_elements(draw, A.T, d))
               for _ in range(count)]


@st.composite
def algebra_and_expression(draw, mode):
    """An algebra A over p in {2,3,5,7}, f in {1,2}, d <= 4, each twist r
    valid for d, N in [2,8] in the given mode, and a random expression tree
    of depth at most 3 over it: its text, with random whitespace and
    redundant parentheses, and its value by DElem arithmetic.  `t` occurs
    only in equal characteristic."""
    d = draw(st.integers(1, 4))
    A = algebra_ctx(draw(st.sampled_from((2, 3, 5, 7))), draw(st.integers(1, 2)),
                    d, draw(st.sampled_from(twists(d))), draw(st.integers(2, 8)), mode)
    T = A.T
    symbols = [("th", A.from_T(T.gen)), ("x", A.pi_D), ("pK", A.from_T(T.uniformizer))]
    if mode == lr.EQUAL:
        symbols.append(("t", A.from_T(T.uniformizer)))
    space = st.sampled_from(("", "", " ", "  ", "\t", "\n"))

    def paren(text):
        return "(" + draw(space) + text + draw(space) + ")"

    def operand(node, level):
        """The text of node where the grammar allows at most `level`:
        0 an atom, 1 a factor, 2 a term, 3 an expression."""
        text, lvl, _ = node
        return paren(text) if lvl > level else text

    def tree(depth):
        """(text, level, value)."""
        kinds = ["int", "symbol"] + (["+", "-", "*", "neg", "^"] if depth else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "int":
            n = draw(st.integers(0, 10 ** 20))
            text, level, value = str(n), 0, A.from_int(n)
        elif kind == "symbol":
            (text, value), level = draw(st.sampled_from(symbols)), 0
        elif kind == "neg":
            a = tree(depth - 1)
            text, level, value = "-" + draw(space) + operand(a, 1), 1, -a[2]
        elif kind == "^":
            a, k = tree(depth - 1), draw(st.integers(0, 3))
            text = operand(a, 0) + draw(space) + "^" + draw(space) + str(k)
            level, value = 1, a[2] ** k
        else:
            a, b = tree(depth - 1), tree(depth - 1)
            level = 2 if kind == "*" else 3
            text = operand(a, level) + draw(space) + kind + draw(space) + operand(b, level - 1)
            value = {"+": a[2] + b[2], "-": a[2] - b[2], "*": a[2] * b[2]}[kind]
        if draw(st.integers(0, 4)) == 0:
            text, level = paren(text), 0
        return text, level, value

    text, _, value = tree(3)
    return A, draw(space) + text + draw(space), value


@st.composite
def module_and_map(draw):
    """A scrambled direct sum of one to three standards with random labels
    over p in {2,3,5}, f in {1,2}, d <= 5, each twist r valid for d, N in
    [2,8], either mode; a piece g; and a random map f: T^{n_g} -> T^q,
    q in {1,2}."""
    d = draw(st.integers(1, 5))
    TO = tensor_ctx(draw(st.sampled_from((2, 3, 5))), draw(st.integers(1, 2)),
                    d, draw(st.sampled_from(twists(d))), draw(st.integers(2, 8)),
                    draw(st.sampled_from((lr.MIXED, lr.EQUAL))))
    labels = draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=3))
    g, q = draw(st.integers(0, d - 1)), draw(st.integers(1, 2))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    mod = modcat.scramble(modcat.direct_sum(
        [modcat.standard(TO, h) for h in labels]), rng)
    return mod, g, [[TO.T.random(rng) for _ in range(mod.ranks[g])]
                    for _ in range(q)]


@st.composite
def tensor_and_rng(draw):
    """T (x)_S T over p in {2,3,5,7}, f in {1,2}, d <= 6, each twist r
    valid for d, N in [2,8], either mode, and a seeded random source."""
    d = draw(st.integers(1, 6))
    TO = tensor_ctx(draw(st.sampled_from((2, 3, 5, 7))), draw(st.integers(1, 2)),
                    d, draw(st.sampled_from(twists(d))), draw(st.integers(2, 8)),
                    draw(st.sampled_from((lr.MIXED, lr.EQUAL))))
    return TO, random.Random(draw(st.integers(0, 2 ** 32)))


@st.composite
def base_matrix(draw):
    """A base ring S over p in {2,3,5,7}, f in {1,2}, N in [2,8], either
    mode; a square matrix over S of size at most 8, each entry a random
    element times pi^0..pi^3, so that columns and blocks without a unit
    occur; and the number of its columns to keep in an integer matrix."""
    S = ring(draw(st.sampled_from((2, 3, 5, 7))), draw(st.integers(1, 2)), 1,
             draw(st.integers(2, 8)), draw(st.sampled_from((lr.MIXED, lr.EQUAL))))
    n = draw(st.integers(0, 8))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return S, [[S.random(rng).shift_down(-rng.randrange(4)) for _ in range(n)]
               for _ in range(n)], draw(st.integers(0, n))


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


@pytest.mark.parametrize("mode", [lr.MIXED, lr.EQUAL])
@hypothesis.settings(max_examples=100)
@hypothesis.given(data=st.data())
def test_parser_evaluates_expression_trees(mode, data):
    A, text, value = data.draw(algebra_and_expression(mode))
    got = evaluate(A, text)
    assert got == value and got.serialize() == value.serialize()


@hypothesis.settings(max_examples=150)
@hypothesis.given(algebra_and_elements(3))
def test_algebra_associates_and_distributes(case):
    A, (a, b, c) = case
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@hypothesis.settings(max_examples=60)
@hypothesis.given(tensor_and_rng())
def test_conjugates_and_the_change_of_basis(case):
    """conjugates(k) holds sigma^k(theta^j), j < m, and the u-basis and the
    Galois components of T (x)_S T convert both ways exactly."""
    TO, rng = case
    T = TO.T
    for k in range(TO.d):
        assert T.conjugates(k) == [T.frobenius(T.gen ** j, k) for j in range(T.m)]
    for _ in range(3):
        z = TO.from_components([T.random(rng) for _ in range(TO.d)])
        assert TO.elem(z.u_coeffs()) == z
        c = [T.random(rng) for _ in range(TO.d)]
        assert TO.elem(c).u_coeffs() == c


@hypothesis.settings(max_examples=40)
@hypothesis.given(module_and_map())
def test_graded_module_round_trip_and_adjoint(case):
    """F(H(m)) = m; each block of the adjoint of f out of piece g is f after
    the phi-composite into g; phi is frozen.  Nothing here splits, so the
    N/2 precision guard of `decompose` is never reached."""
    mod, g, f = case
    TO, T = mod.ctx, mod.ctx.T
    assert modcat.F(modcat.H(mod)) == mod
    blocks = modcat.adjoint(mod, g, f).blocks
    assert blocks == [T.matmul(f, phi_composite(mod, h, TO.x_power(g, h)))
                      for h in range(TO.d)]
    with pytest.raises(TypeError):
        mod.phi[0][0][0] = T.one


@hypothesis.settings(max_examples=100)
@hypothesis.given(base_matrix())
def test_elimination_against_oracles(case):
    """`linalg.det` against Bareiss over the integers when S = Z/p^N, and
    against the constant term of `charpoly` on every other S; and
    `kernel_log_size` over Z/p^e, on the t^0 theta^0 coefficients of the
    entries with k columns kept, against the Smith-type oracle."""
    S, M, k = case
    n = len(M)
    ints = [[x.coeffs[0] for x in row] for row in M]
    if S.zp_rank == 1:
        want = S.from_int(det_bareiss(ints))
    else:
        want = charpoly(M, S)[-1] if n else S.one
        want = -want if n % 2 else want
    assert linalg.det(M, S) == want
    cols = [row[:k] for row in ints]
    assert linalg.kernel_log_size(cols, S.p, S.e) == \
        ColumnSolver(cols, S.p, S.e).kernel_log_size()
