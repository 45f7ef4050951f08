import random
from itertools import combinations, permutations

import pytest

from hasseorder import linalg
from hasseorder import localring as lr
from hasseorder.errors import NotInvertibleError
from hasseorder.linalg import _val
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


def zp_rows(mat, p, e):
    """An integer matrix as a matrix over the kernel ring Z/p^e."""
    R = lr.LocalRingCtx(p, 1, 1, e, 1)
    return [[R.from_int(c) for c in row] for row in mat], R


def zp_det(mat, p, e):
    """`linalg.det` over Z/p^e of an integer matrix, as an integer."""
    return linalg.det(*zp_rows(mat, p, e)).coeffs[0]


def test_det_mod_pe_vs_bareiss():
    """The elimination over Z/p^N against Bareiss over the integers,
    reduced: entries scaled by p^0..p^3 make columns without a unit, so the
    division by p is exercised."""
    rng = random.Random(4)
    for p in (2, 3, 5, 7):
        for N in (1, 2, 3, 4, 8):
            mod = p ** N
            for n in range(1, 7):
                for _ in range(40):
                    M = [[rng.randrange(-mod, mod) * p ** rng.randrange(4)
                          for _ in range(n)] for _ in range(n)]
                    assert zp_det(M, p, N) == det_bareiss(M) % mod
    assert zp_det([], 3, 4) == 1
    assert zp_det([[0, 1], [0, 2]], 3, 4) == 0


# Oracle for kernel_log_size and rmat_inv over Z/p^e: a full Smith-type reduction
# that keeps both transforms.
class ColumnSolver:
    """Solve sum_j x_j * col_j = b over Z/p^e, reusing one Smith-type reduction.

    Row and column transforms L, R with L*A*R = diag(p^{a_i}) are kept so
    repeated solves are cheap.
    """

    def __init__(self, columns, p, e):
        self.p = p
        self.e = e
        self.pe = p ** e
        self.nrows = len(columns[0]) if columns else 0
        self.ncols = len(columns)
        A = [[columns[j][i] % self.pe for j in range(self.ncols)]
             for i in range(self.nrows)]
        L = [[1 if i == j else 0 for j in range(self.nrows)] for i in range(self.nrows)]
        R = [[1 if i == j else 0 for j in range(self.ncols)] for i in range(self.ncols)]
        exps = []
        pe, pp = self.pe, self.p
        t = 0
        while t < min(self.nrows, self.ncols):
            best, bi, bj = e + 1, -1, -1
            for i in range(t, self.nrows):
                for j in range(t, self.ncols):
                    v = _val(A[i][j], pp, e)
                    if v < best:
                        best, bi, bj = v, i, j
            if bi < 0 or best >= e:
                break
            if bi != t:
                A[t], A[bi] = A[bi], A[t]
                L[t], L[bi] = L[bi], L[t]
            if bj != t:
                for row in A:
                    row[t], row[bj] = row[bj], row[t]
                for row in R:
                    row[t], row[bj] = row[bj], row[t]
            a = best
            pa = pp ** a
            unit = A[t][t] // pa
            uinv = pow(unit, -1, pe)
            A[t] = [(uinv * c) % pe for c in A[t]]
            L[t] = [(uinv * c) % pe for c in L[t]]
            for i in range(self.nrows):
                if i != t and A[i][t]:
                    factor = A[i][t] // pa
                    A[i] = [(A[i][j] - factor * A[t][j]) % pe for j in range(self.ncols)]
                    L[i] = [(L[i][j] - factor * L[t][j]) % pe for j in range(self.nrows)]
            for j in range(self.ncols):
                if j != t and A[t][j]:
                    factor = A[t][j] // pa
                    for row in A:
                        row[j] = (row[j] - factor * row[t]) % pe
                    for row in R:
                        row[j] = (row[j] - factor * row[t]) % pe
            exps.append(a)
            t += 1
        self.exps = exps
        self.L = L
        self.R = R

    def solve(self, b):
        """One solution x (list of ints mod p^e) of A x = b, or None."""
        pe, pp = self.pe, self.p
        y = []
        for i in range(self.nrows):
            Li = self.L[i]
            y.append(sum(Li[j] * b[j] for j in range(self.nrows)) % pe)
        z = [0] * self.ncols
        for i in range(self.nrows):
            if i < len(self.exps):
                pa = pp ** self.exps[i]
                if y[i] % pa:
                    return None
                z[i] = (y[i] // pa) % pe
            elif y[i] % pe:
                return None
        x = []
        for i in range(self.ncols):
            Ri = self.R[i]
            x.append(sum(Ri[j] * z[j] for j in range(self.ncols)) % pe)
        return x

    def kernel_log_size(self):
        """log_p of the number of solutions of A x = 0 over Z/p^e."""
        return sum(min(a, self.e) for a in self.exps) + self.e * (self.ncols - len(self.exps))


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


# Oracle for determinants and inverses over a kernel ring (test_algebra,
# test_properties): Berkowitz's division-free characteristic polynomial,
# itself checked against the principal minors below.
def charpoly(mat, ctx):
    """The coefficients c_0, ..., c_{n-1} of det(x - M) = x^n + c_0 x^{n-1}
    + ... + c_{n-1}, over a kernel ring `ctx`, division-free.

    Berkowitz: the characteristic polynomial of each leading block follows
    from that of the previous one by a Toeplitz product, of which only the
    coefficients below the leading 1 are kept.  c_0 is minus the trace and
    c_{n-1} is (-1)^n det M.  Each entry is packed once (`_sum_kernel`); a
    power step re-packs only the vector it multiplies.
    """
    n = len(mat)
    if n == 0:
        return []
    pack, finish = ctx._sum_kernel(n)
    packed = [ctx._packings(row, pack) for row in mat]

    def dot(xs, ys):
        return ctx._packed_dot(xs, ys, finish)

    tail = [-mat[0][0]]  # det(x - A_1) = x + tail[0]
    for i in range(1, n):
        R = packed[i][:i]
        vec = [row[i] for row in packed[:i]]
        block = [row[:i] for row in packed[:i]]
        items = [-mat[i][i], -dot(R, vec)]
        for _ in range(i - 1):
            vec = ctx._packings([dot(row, vec) for row in block], pack)
            items.append(-dot(R, vec))
        # the next polynomial is the product of the coefficient sequences
        # (1, *items) and (1, *tail), read from the top; below its leading 1,
        # entry k is items[k] + sum_j items[k-1-j] tail[j] + tail[k]
        pitems, ptail = ctx._packings(items, pack), ctx._packings(tail, pack)
        new = [items[0]] + [items[k] + dot(pitems[k - 1::-1], ptail)
                            for k in range(1, i + 1)]
        tail = [a + b for a, b in zip(new, tail)] + new[i:]
    return tail


def charpoly_leibniz(mat, zero):
    """Oracle: the coefficients c_0, ..., c_{n-1} of det(x - M) below its
    leading 1, c_k = (-1)^(k+1) times the sum of the principal minors of
    size k + 1, each a Leibniz determinant."""
    n = len(mat)
    out = []
    for k in range(1, n + 1):
        acc = zero
        for rows in combinations(range(n), k):
            acc = acc + det_leibniz([[mat[i][j] for j in rows] for i in rows], zero)
        out.append(acc if k % 2 == 0 else zero - acc)
    return out


def test_charpoly_matches_over_ff():
    """Every coefficient over F_25, against the principal minors of a
    schoolbook oracle field that shares no code with the kernel."""
    rng = random.Random(1)
    F = lr.residue_field(5, 2)
    for n in (1, 2, 3, 4, 5):
        for _ in range(3):
            M = [[F.random(rng) for _ in range(n)] for _ in range(n)]
            oracle = [[_Fq(a.coeffs, F.poly, 5) for a in row] for row in M]
            want = charpoly_leibniz(oracle, _Fq((0, 0), F.poly, 5))
            assert [c.coeffs for c in charpoly(M, F)] == \
                [c.coeffs for c in want]
    assert charpoly([], F) == []


def test_charpoly_over_local_ring():
    """Every coefficient over S and over T = S_2, in both modes, against the
    principal minors."""
    rng = random.Random(2)
    for mode in (lr.MIXED, lr.EQUAL):
        S = lr.base_ring(3, 1, 5, mode)
        for R in (S, lr.unramified(S, 2)):
            for n in (1, 2, 3, 4, 5):
                M = [[R.random(rng) for _ in range(n)] for _ in range(n)]
                assert charpoly(M, R) == charpoly_leibniz(M, R.zero)


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
        x = ColumnSolver(cols, p, e).solve(b)
        assert x is not None
        got = [sum(cols[j][i] * x[j] for j in range(ncols)) % pe
               for i in range(nrows)]
        assert got == b


def test_solver_reports_unsolvable():
    # column (3, 0) over Z/81 cannot produce (1, 0)
    assert ColumnSolver([[3, 0]], 3, 4).solve([1, 0]) is None


def test_kernel_log_size():
    # multiplication by p on Z/p^e has kernel of size p
    assert linalg.kernel_log_size([[3]], 3, 4) == 1
    # the zero map has full kernel
    assert linalg.kernel_log_size([[0]], 3, 4) == 4
    # an invertible map has trivial kernel
    assert linalg.kernel_log_size([[1, 0], [0, 1]], 3, 4) == 0


def test_kernel_log_size_vs_column_solver():
    """The unit-pivot kernel size against the Smith-type oracle on every
    shape up to 6x6, empty and non-square ones included: entries scaled by
    p^0..p^3 leave blocks without a unit, so the division by p and the drop
    of the working modulus are exercised."""
    rng = random.Random(5)
    count = 0
    for p in (2, 3, 5, 7):
        for e in (1, 2, 3, 4, 8):
            mod = p ** e
            for ncols in range(7):
                for nrows in range(7):
                    for _ in range(5):
                        cols = [[rng.randrange(mod) * p ** rng.randrange(4)
                                 for _ in range(nrows)] for _ in range(ncols)]
                        want = ColumnSolver(cols, p, e).kernel_log_size()
                        assert linalg.kernel_log_size(cols, p, e) == want, (p, e, cols)
                        count += 1
    assert count >= 4800


def _mat_mul_mod(A, B, mod):
    return [[sum(a * b for a, b in zip(row, col)) % mod for col in zip(*B)] for row in A]


def _zp_inv(M, Z):
    """rmat_inv of an integer matrix over Z = Z/p^e, read back as integers."""
    X = linalg.rmat_inv([[Z.from_int(c) for c in row] for row in M], Z)
    return [[x.coeffs[0] for x in row] for row in X]


def test_rmat_inv_over_z_mod_pe():
    """rmat_inv over the kernel ring Z/p^e gives a two-sided inverse, equal
    to the oracle's solves against the unit vectors, and rejects a nonzero
    matrix that is singular mod p."""
    rng = random.Random(6)
    for p in (2, 3, 5, 7):
        for e in (1, 2, 3, 4, 8):
            Z = lr.LocalRingCtx(p, 1, 1, e, 1)
            mod = p ** e
            for n in range(7):
                for _ in range(4):
                    while True:
                        M = [[rng.randrange(mod) for _ in range(n)] for _ in range(n)]
                        if det_bareiss(M) % p:
                            break
                    X = _zp_inv(M, Z)
                    eye = [[int(i == j) for j in range(n)] for i in range(n)]
                    assert _mat_mul_mod(M, X, mod) == eye
                    assert _mat_mul_mod(X, M, mod) == eye
                    solver = ColumnSolver([list(col) for col in zip(*M)], p, e)
                    assert [list(col) for col in zip(*X)] == \
                        [solver.solve(unit) for unit in eye]
                    if n * e > 1:  # a nonzero matrix singular mod p exists
                        # one column times p, or one row a multiple of another
                        # plus p times a third
                        S = [row[:] for row in M]
                        k = rng.randrange(n)
                        if n > 1 and rng.randrange(2):
                            c, o = rng.randrange(1, p), rng.randrange(n)
                            S[k] = [(c * a + p * b) % mod
                                    for a, b in zip(S[k - 1], S[o])]
                        else:
                            for row in S:
                                row[k] = row[k] * p % mod
                        assert any(map(any, S))
                        with pytest.raises(NotInvertibleError):
                            _zp_inv(S, Z)
    assert _zp_inv([], lr.LocalRingCtx(3, 1, 1, 4, 1)) == []


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
        assert T.matmul(M, Mi) == linalg.rmat_id(T, n)
        assert T.matmul(Mi, M) == linalg.rmat_id(T, n)
    assert linalg.rmat_inv([], T) == []


def random_invertible(T, n, rng):
    while True:
        M = [[T.random(rng) for _ in range(n)] for _ in range(n)]
        if M and det_leibniz(M, T.zero).is_unit():
            return M


def test_rmat_inv_exactly_when_the_determinant_is_a_unit():
    """Over F_25, S and T, in both modes, n <= 5: rmat_inv raises exactly
    when the oracle determinant is not a unit, and otherwise returns X with
    M X = X M = I.  Half the matrices get a last row that is a combination
    of the others plus pi times a random row, so that both outcomes occur
    for every ring and size."""
    rng = random.Random(13)
    F = lr.residue_field(5, 2)
    rings = [F]
    for mode in (lr.MIXED, lr.EQUAL):
        S = lr.base_ring(3, 1, 4, mode)
        rings += [S, lr.unramified(S, 2)]
    for R in rings:
        for n in (1, 2, 3, 4, 5):
            seen = set()
            for trial in range(8):
                M = [[R.random(rng) for _ in range(n)] for _ in range(n)]
                if trial % 2:
                    cs = [R.random(rng) for _ in range(n - 1)]
                    M[-1] = [R.dot(cs, col[:-1]) + R.uniformizer * x
                             for col, x in zip(zip(*M), M[-1])]
                unit = det_leibniz(M, R.zero).is_unit()
                seen.add(unit)
                if not unit:
                    with pytest.raises(NotInvertibleError):
                        linalg.rmat_inv(M, R)
                    continue
                X = linalg.rmat_inv(M, R)
                assert R.matmul(M, X) == linalg.rmat_id(R, n)
                assert R.matmul(X, M) == linalg.rmat_id(R, n)
            assert seen == {True, False}, (R, n)


def random_unit(R, rng):
    while True:
        x = R.random(rng)
        if x.is_unit():
            return x


def test_rmat_inv_against_identity():
    """Random invertible matrices over T, and M = C + pi R, where C has
    random units on the cyclic positions (i, i+1 mod n) and zeros elsewhere:
    when the reduction reaches a column, its unit sits in the last row, so
    it swaps rows n - 1 times.  C with one cyclic entry replaced by pi has
    a column without a unit."""
    rng = random.Random(11)
    rings = [lr.LocalRingCtx(3, 1, 1, 8, 1)]
    for mode in (lr.MIXED, lr.EQUAL):
        T = lr.unramified(lr.base_ring(3, 1, 5, mode), 3)
        rings.append(T)
        for n in (1, 2, 3, 4, 6):
            M = random_invertible(T, n, rng)
            Mi = linalg.rmat_inv(M, T)
            # a few right-hand sides, one of them with a single column
            for k in (1, 3):
                B = [[T.random(rng) for _ in range(k)] for _ in range(n)]
                assert T.matmul(M, T.matmul(Mi, B)) == B
            assert T.matmul(M, Mi) == linalg.rmat_id(T, n)
            assert T.matmul(Mi, M) == linalg.rmat_id(T, n)
    for R in rings:
        pi = R.uniformizer
        for n in (2, 3, 4, 6):
            C = linalg.rmat_zero(R, n, n)
            for i in range(n):
                C[i][(i + 1) % n] = random_unit(R, rng)
            M = [[c + pi * R.random(rng) for c in row] for row in C]
            X = linalg.rmat_inv(M, R)
            assert R.matmul(M, X) == linalg.rmat_id(R, n)
            assert R.matmul(X, M) == linalg.rmat_id(R, n)
            i = rng.randrange(n)
            C[i][(i + 1) % n] = pi
            with pytest.raises(NotInvertibleError):
                linalg.rmat_inv(C, R)


def test_rmat_inv_rejects_matrices_singular_mod_pi():
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
    # two equal rows
    M = random_invertible(T, 3, rng)
    M[2] = list(M[0])
    with pytest.raises(NotInvertibleError):
        linalg.rmat_inv(M, T)


def test_rmat_inv_of_sparse_matrices(monkeypatch):
    """The identity, a permutation matrix and a block-diagonal matrix are
    inverted exactly over Z/p^e and over T in both modes.  A pivot of one
    scales no row and a zero entry clears nothing, so the identity and a
    permutation matrix cost no ring product."""
    rng = random.Random(14)
    rings = [lr.LocalRingCtx(3, 1, 1, 8, 1)]
    for mode in (lr.MIXED, lr.EQUAL):
        rings.append(lr.unramified(lr.base_ring(3, 1, 5, mode), 3))
    products = []
    real = lr.RingElem.__mul__

    def counted(self, other):
        products.append((self, other))
        return real(self, other)

    def diag(A, B, zero):
        return [row + [zero] * len(B) for row in A] + [[zero] * len(A) + row for row in B]
    for R in rings:
        for n in (1, 2, 5):
            eye = linalg.rmat_id(R, n)
            perm = rng.sample(range(n), n)
            P = [[R.one if j == perm[i] else R.zero for j in range(n)] for i in range(n)]
            with monkeypatch.context() as patch:
                patch.setattr(lr.RingElem, "__mul__", counted)
                assert linalg.rmat_inv(eye, R) == eye
                assert linalg.rmat_inv(P, R) == [list(col) for col in zip(*P)]
            assert products == []
            # invertible diagonal blocks of sizes n and 2
            A, B = random_invertible(R, n, rng), random_invertible(R, 2, rng)
            M = diag(A, B, R.zero)
            X = linalg.rmat_inv(M, R)
            assert R.matmul(M, X) == linalg.rmat_id(R, n + 2)
            assert X == diag(linalg.rmat_inv(A, R), linalg.rmat_inv(B, R), R.zero)
