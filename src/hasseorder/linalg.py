"""Linear algebra helpers: Z/p^e matrices, exact determinants, ring matrices.

Everything here is exact.  Determinants over a kernel ring `LocalRingCtx`
are division-free (Berkowitz); over S = Z/p^N, `det_mod_pe` eliminates an
integer matrix with unit pivots mod p^N, dividing a column without a unit
by p.  Both are exact at full working precision.  Matrix products go
through the ring's `dot` and `matmul` (`LocalRingCtx.dot`/`matmul`), which
reduce each sum of products once; Berkowitz packs each entry once and sums
its inner products on the packings.  Over a local ring, `solve` (and
`rmat_inv`, a solve against the identity) eliminates fraction-free with
unit pivots and takes the pivots' inverses from `inv_all`, which inverts
any list of units with a single inversion.
"""

from __future__ import annotations

from .errors import NotInvertibleError


def _val(c, p, cap):
    """p-adic valuation of the integer c, capped at cap (also for c = 0)."""
    if c == 0:
        return cap
    v = 0
    while c % p == 0 and v < cap:
        c //= p
        v += 1
    return v


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


def kernel_log_size(columns, p, e):
    return ColumnSolver(columns, p, e).kernel_log_size()


def det_mod_pe(mat, p, e):
    """Determinant mod p^e of an integer matrix, by elimination with unit
    pivots over Z/p^e (a sign per row the pivot row passes).  A column with
    no unit is divided by p, and the determinant gains the factor p: the
    quotient is known mod p^(e-1) only, but p times its determinant needs
    no more, so the working modulus drops to p^(e-1)."""
    top_mod = mod = p ** e
    det = 1
    rows = [list(row) for row in mat]
    while rows:
        k = next((i for i, row in enumerate(rows) if row[0] % p), None)
        if k is None:
            if mod == p:
                return 0
            mod //= p
            det *= p
            for row in rows:
                row[0] //= p
            continue
        top = rows.pop(k)
        a = top[0]
        det = (-det if k % 2 else det) * a % top_mod
        inv = pow(a, -1, mod)
        rest = top[1:]
        rows = [[(x - f * y) % mod for x, y in zip(row[1:], rest)]
                if (f := row[0] * inv % mod) else row[1:] for row in rows]
    return det % top_mod


def det_berkowitz(mat, zero, one):
    """Division-free determinant over a kernel ring (`zero.ctx`).

    Berkowitz: the characteristic polynomial of each leading block follows
    from that of the previous one by a Toeplitz product.  Only the monic
    polynomial's lower coefficients are kept, and the last step forms the
    constant term alone.  Each entry is packed once (`_sum_kernel`); a power
    step re-packs only the vector it multiplies.
    """
    n = len(mat)
    if n == 0:
        return one
    if n == 1:
        return mat[0][0]

    ctx = zero.ctx
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
        if i == n - 1:
            det = items[i] + dot(pitems[i - 1::-1], ptail)
            return det if n % 2 == 0 else -det
        new = [items[0]] + [items[k] + dot(pitems[k - 1::-1], ptail)
                            for k in range(1, i + 1)]
        tail = [a + b for a, b in zip(new, tail)] + new[i:]


def echelon_basis(rows):
    """A basis of the span of row vectors over a field, in row-echelon form.

    Each row is reduced against the basis so far; a nonzero remainder,
    scaled to a leading 1, joins the basis.  The length is the rank.
    """
    basis = []
    pivots = []
    for vec in rows:
        v = list(vec)
        for b, piv in zip(basis, pivots):
            if not v[piv].is_zero():
                f = v[piv]
                v = [a - f * c for a, c in zip(v, b)]
        piv = next((j for j, c in enumerate(v) if not c.is_zero()), None)
        if piv is not None:
            inv = v[piv].inv()
            basis.append([inv * c for c in v])
            pivots.append(piv)
    return basis


# ---------------------------------------------------------------------------
# matrices over a local ring context (entries are RingElem)

def rmat_id(ctx, n):
    return [[ctx.one if i == j else ctx.zero for j in range(n)] for i in range(n)]


def rmat_zero(ctx, rows, cols):
    return [[ctx.zero for _ in range(cols)] for _ in range(rows)]


def rmat_mul(A, B, ctx):
    return ctx.matmul(A, B)


def rmat_vec(A, v, ctx):
    return [ctx.dot(row, v) for row in A]


def rmat_scale(A, s):
    return [[s * a for a in row] for row in A]


def rmat_eq(A, B):
    return all(a == b for ra, rb in zip(A, B) for a, b in zip(ra, rb))


def inv_all(xs):
    """The inverses of the units xs with one inversion (Montgomery): the
    product of all of them is inverted once, and each inverse is peeled off
    with the prefix products.

    Raises NotInvertibleError when some x is not a unit.
    """
    for x in xs:
        if not x.is_unit():
            v = x.ord()
            raise NotInvertibleError(f"element of valuation {v} is not a unit", ord=v)
    prefix = []
    for x in xs:
        prefix.append(x if not prefix else prefix[-1] * x)
    if not prefix:
        return []
    out = [None] * len(xs)
    inv = prefix[-1].inv()
    for i in range(len(xs) - 1, 0, -1):
        out[i] = inv * prefix[i - 1]
        inv = inv * xs[i]
    out[0] = inv
    return out


def solve(A, B, ctx):
    """The X with A X = B over a local ring, for a square A.

    Fraction-free elimination with unit pivots: each row below the pivot a
    becomes a*r_i - c_i*r_k, with c_i its entry in the pivot column, so
    nothing is inverted while eliminating.  One step is the matrix product
    [a*I | -c] [R; r_k] (`ctx.matmul`), so each entry is packed and reduced
    once.  Back substitution needs the pivots' inverses, which `inv_all`
    takes with one inversion.  Raises NotInvertibleError when a column has
    no unit, i.e. when A is singular modulo the maximal ideal.
    """
    n = len(A)
    zero = ctx.zero
    rows = [list(a) + list(b) for a, b in zip(A, B)]
    # pivot rows, each from its pivot column on
    pivots = []
    for _ in range(n):
        k = next((i for i, row in enumerate(rows) if row[0].is_unit()), None)
        if k is None:
            raise NotInvertibleError("matrix over local ring is not invertible")
        top = rows.pop(k)
        pivots.append(top)
        if rows:
            a = top[0]
            coef = [[a if j == i else zero for j in range(len(rows))] + [-row[0]]
                    for i, row in enumerate(rows)]
            rows = ctx.matmul(coef, [row[1:] for row in rows] + [top[1:]])
    inverses = inv_all([top[0] for top in pivots])
    X = [None] * n
    for k in range(n - 1, -1, -1):
        top = pivots[k]
        X[k] = [inverses[k] * (b - ctx.dot(top[1:n - k], [x[c] for x in X[k + 1:]]))
                for c, b in enumerate(top[n - k:])]
    return X


def rmat_inv(A, ctx):
    """Inverse of a matrix over a local ring: `solve` against the identity.

    Raises NotInvertibleError when the matrix is singular modulo the
    maximal ideal.
    """
    return solve(A, rmat_id(ctx, len(A)), ctx)
