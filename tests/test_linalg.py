import random
from itertools import permutations

import pytest

from hasseorder import linalg
from hasseorder import localring as lr
from hasseorder.errors import NotInvertibleError
from test_localring import _theta_mulmod


def det_leibniz(mat, zero):
    """Oracle: the permutation expansion of the determinant."""
    n = len(mat)
    acc = zero
    for perm in permutations(range(n)):
        inv = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        term = mat[0][perm[0]]
        for r in range(1, n):
            term = term * mat[r][perm[r]]
        acc = acc + term if inv % 2 == 0 else acc - term
    return acc


def det_bareiss(mat):
    """Oracle: the exact integer determinant by fraction-free Gaussian
    elimination (Bareiss)."""
    n = len(mat)
    if n == 0:
        return 1
    M = [list(map(int, row)) for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def test_det_bareiss_vs_leibniz():
    rng = random.Random(0)
    for n in (1, 2, 3, 4, 5):
        M = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        zero = 0
        assert det_bareiss(M) == det_leibniz(M, zero)


def test_det_mod_pe_vs_bareiss():
    """The elimination mod p^N against Bareiss over the integers, reduced:
    entries scaled by p^0..p^3 make columns without a unit, so the
    division by p and the drop of the working modulus are exercised."""
    rng = random.Random(4)
    for p in (2, 3, 5, 7):
        for N in (1, 2, 3, 4, 8):
            mod = p ** N
            for n in range(1, 7):
                for _ in range(40):
                    M = [[rng.randrange(-mod, mod) * p ** rng.randrange(4)
                          for _ in range(n)] for _ in range(n)]
                    assert linalg.det_mod_pe(M, p, N) == det_bareiss(M) % mod
    assert linalg.det_mod_pe([], 3, 4) == 1
    assert linalg.det_mod_pe([[0, 1], [0, 2]], 3, 4) == 0


class _Fq:
    """Oracle element of F_p[theta]/(G): a coefficient tuple with the
    schoolbook product, sharing no code with the library kernel."""

    def __init__(self, coeffs, G, p):
        self.coeffs, self.G, self.p = tuple(coeffs), G, p

    def __add__(self, other):
        return _Fq([(a + b) % self.p for a, b in zip(self.coeffs, other.coeffs)],
                   self.G, self.p)

    def __sub__(self, other):
        return _Fq([(a - b) % self.p for a, b in zip(self.coeffs, other.coeffs)],
                   self.G, self.p)

    def __mul__(self, other):
        return _Fq(_theta_mulmod(self.coeffs, other.coeffs, self.G, self.p),
                   self.G, self.p)


def test_det_berkowitz_matches_over_ff():
    rng = random.Random(1)
    F = lr.residue_field(5, 2)
    for n in (1, 2, 3, 4, 5):
        M = [[F.random(rng) for _ in range(n)] for _ in range(n)]
        oracle = [[_Fq(a.coeffs, F.poly, 5) for a in row] for row in M]
        want = det_leibniz(oracle, _Fq((0, 0), F.poly, 5))
        assert linalg.det_berkowitz(M, F.zero, F.one).coeffs == want.coeffs


def test_det_berkowitz_over_local_ring():
    rng = random.Random(2)
    for mode in (lr.MIXED, lr.EQUAL):
        S = lr.base_ring(3, 1, 5, mode)
        T = lr.unramified(S, 2)
        for n in (1, 2, 3, 4):
            M = [[T.random(rng) for _ in range(n)] for _ in range(n)]
            assert linalg.det_berkowitz(M, T.zero, T.one) == \
                det_leibniz(M, T.zero)


def test_column_solver():
    p, e = 3, 4
    pe = p ** e
    rng = random.Random(3)
    for _ in range(20):
        ncols, nrows = rng.randrange(1, 5), rng.randrange(1, 5)
        cols = [[rng.randrange(pe) for _ in range(nrows)]
                for _ in range(ncols)]
        x_true = [rng.randrange(pe) for _ in range(ncols)]
        b = [sum(cols[j][i] * x_true[j] for j in range(ncols)) % pe
             for i in range(nrows)]
        x = linalg.ColumnSolver(cols, p, e).solve(b)
        assert x is not None
        got = [sum(cols[j][i] * x[j] for j in range(ncols)) % pe
               for i in range(nrows)]
        assert got == b


def test_solver_reports_unsolvable():
    # column (3, 0) over Z/81 cannot produce (1, 0)
    assert linalg.ColumnSolver([[3, 0]], 3, 4).solve([1, 0]) is None


def test_kernel_log_size():
    # multiplication by p on Z/p^e has kernel of size p
    assert linalg.kernel_log_size([[3]], 3, 4) == 1
    # the zero map has full kernel
    assert linalg.kernel_log_size([[0]], 3, 4) == 4
    # an invertible map has trivial kernel
    assert linalg.kernel_log_size([[1, 0], [0, 1]], 3, 4) == 0


def test_echelon_basis():
    F = lr.residue_field(2, 2)
    one, zero, g = F.one, F.zero, F.gen
    rows = [[g, g], [one, one], [g, zero], [zero, one]]
    # rows 2 and 4 lie in the span of the rows before them; each kept row is
    # reduced against the earlier ones and scaled to a leading 1
    assert linalg.echelon_basis(rows) == [[one, one], [zero, one]]
    assert len(linalg.echelon_basis([[one, zero], [g, zero], [zero, one]])) == 2
    assert linalg.echelon_basis([[zero, zero]]) == []


def test_rmat_inv():
    rng = random.Random(4)
    S = lr.base_ring(3, 1, 4, lr.MIXED)
    T = lr.unramified(S, 2)
    for n in (1, 2, 3):
        while True:
            M = [[T.random(rng) for _ in range(n)] for _ in range(n)]
            try:
                Mi = linalg.rmat_inv(M, T)
                break
            except NotInvertibleError:
                continue
        assert linalg.rmat_eq(linalg.rmat_mul(M, Mi, T), linalg.rmat_id(T, n))
        assert linalg.rmat_eq(linalg.rmat_mul(Mi, M, T), linalg.rmat_id(T, n))


def random_invertible(T, n, rng):
    while True:
        M = [[T.random(rng) for _ in range(n)] for _ in range(n)]
        if M and linalg.det_berkowitz(M, T.zero, T.one).is_unit():
            return M


def test_solve_rmat_inv_inv_all_against_identity():
    rng = random.Random(11)
    for mode in (lr.MIXED, lr.EQUAL):
        T = lr.unramified(lr.base_ring(3, 1, 5, mode), 3)
        for n in (1, 2, 3, 4, 6):
            M = random_invertible(T, n, rng)
            # a few right-hand sides, one of them with a single column
            for k in (1, 3):
                B = [[T.random(rng) for _ in range(k)] for _ in range(n)]
                X = linalg.solve(M, B, T)
                assert linalg.rmat_eq(linalg.rmat_mul(M, X, T), B)
            Mi = linalg.rmat_inv(M, T)
            assert linalg.rmat_eq(linalg.rmat_mul(M, Mi, T), linalg.rmat_id(T, n))
            assert linalg.rmat_eq(linalg.rmat_mul(Mi, M, T), linalg.rmat_id(T, n))
        units = [x for x in (T.random(rng) for _ in range(12)) if x.is_unit()]
        assert [x * y for x, y in zip(units, linalg.inv_all(units))] == [T.one] * len(units)
        assert linalg.inv_all([]) == []


def test_solve_rejects_matrices_singular_mod_pi():
    rng = random.Random(12)
    T = lr.unramified(lr.base_ring(3, 1, 5, lr.MIXED), 2)
    pi = T.uniformizer
    for n in (1, 2, 3):
        M = random_invertible(T, n, rng)
        # one column divisible by pi: invertible over K, singular mod pi
        for row in M:
            row[n - 1] = row[n - 1] * pi
        with pytest.raises(NotInvertibleError):
            linalg.rmat_inv(M, T)
        with pytest.raises(NotInvertibleError):
            linalg.solve(M, [[T.one] for _ in range(n)], T)
    # two equal rows
    M = random_invertible(T, 3, rng)
    M[2] = list(M[0])
    with pytest.raises(NotInvertibleError):
        linalg.rmat_inv(M, T)


def test_inv_all_rejects_a_non_unit():
    T = lr.unramified(lr.base_ring(3, 1, 5, lr.EQUAL), 2)
    with pytest.raises(NotInvertibleError) as info:
        linalg.inv_all([T.one, T.gen + T.one, T.uniformizer ** 3, T.uniformizer])
    assert info.value.ord == 3  # the first non-unit, not the product
