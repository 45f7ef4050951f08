import random
from itertools import permutations

from hasseorder import ff, linalg
from hasseorder import localring as lr
from hasseorder.errors import NotInvertibleError


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


def test_det_bareiss_vs_leibniz():
    rng = random.Random(0)
    for n in (1, 2, 3, 4, 5):
        M = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        zero = 0
        assert linalg.det_bareiss(M) == det_leibniz(M, zero)


def test_det_berkowitz_matches_over_ff():
    rng = random.Random(1)
    F = ff.field(5, 2)
    for n in (2, 3, 4):
        M = [[F.random(rng) for _ in range(n)] for _ in range(n)]
        assert linalg.det_berkowitz(M, F.zero, F.one) == \
            det_leibniz(M, F.zero)


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
        x = linalg.solve_columns(cols, b, p, e)
        assert x is not None
        got = [sum(cols[j][i] * x[j] for j in range(ncols)) % pe
               for i in range(nrows)]
        assert got == b


def test_solver_reports_unsolvable():
    # column (3, 0) over Z/81 cannot produce (1, 0)
    assert linalg.solve_columns([[3, 0]], [1, 0], 3, 4) is None


def test_kernel_log_size():
    # multiplication by p on Z/p^e has kernel of size p
    assert linalg.kernel_log_size([[3]], 3, 4) == 1
    # the zero map has full kernel
    assert linalg.kernel_log_size([[0]], 3, 4) == 4
    # an invertible map has trivial kernel
    assert linalg.kernel_log_size([[1, 0], [0, 1]], 3, 4) == 0


def test_smith_exponents():
    exps = linalg.smith_exponents([[1, 0], [0, 9]], 3, 4)
    assert sorted(exps) == [0, 2]


def test_ff_rank():
    F = ff.field(2, 2)
    one, zero, g = F.one, F.zero, F.gen
    rows = [[one, zero], [g, zero], [zero, one]]
    assert linalg.ff_rank(rows) == 2
    assert linalg.ff_rank([[zero, zero]]) == 0


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
