"""Linear algebra helpers: exact determinants, kernel sizes, inverses.

Everything here is exact.  One unit-pivot elimination, `eliminate`, serves
every kernel ring `LocalRingCtx`: each row is one integer in the ring's
Kronecker layout, an entry is reduced only when it is read, and a block
without a unit is divided by the uniformizer.  The determinant over S
(`det`) and the kernel size over Z/p^e (`kernel_log_size`) are read off it.
Over a kernel ring, Z/p^e and T among them, an in-place Gauss-Jordan with
unit pivots gives inverses (`rmat_inv`).  Matrix products go through the
ring's `dot` and `matmul`, which reduce each sum once.
"""

from __future__ import annotations

from operator import attrgetter, lshift

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


def eliminate(rows, ring):
    """Unit-pivot elimination over a kernel ring R_{e,n} (Cohen, §2.4), each
    row packed into one integer: entry k in segment k, the slots of one
    product in the ring's Kronecker layout (`LocalRingCtx._row_kernel`), one
    slot over Z/p^e.  The pivot is the first unit of the block, row by row;
    the search finishes each entry it reads once.  The pivot row clears its
    column from each other row by a multiply-add with the packed, negated
    multiplier.  It is read as it is while no row has been updated since the
    start or the last division, and reduced otherwise; no other entry is
    reduced until it is read.  A row without a unit keeps none until the
    next division, so a search resumes at the row where the last one
    stopped.  A block without a unit is divided by pi (p for n = 1, t for
    n > 1): a pivot a taken after s divisions is the factor pi^s a, exact
    mod pi^N.  Returns the product of the pivots a, each signed (-1)^(i+j)
    by its position (i, j) in the block; the sum of their s; and the number
    of rows left without one."""
    pack, finish, red, span = ring._row_kernel(len(rows))
    mask, p, m = (1 << span) - 1, ring.p, ring.m
    offs = [k * span for k in range(len(rows[0]))] if rows else []  # the columns left
    packed = [sum(map(lshift, map(pack, map(attrgetter("coeffs"), row)), offs))
              for row in rows]
    unit, sign, s, shift, start, clean = None, 0, 0, 0, 0, True  # clean: no row updated
    while packed and offs and s < ring.prec:
        for j in range(start, len(packed)):  # the first unit a: entry i of row j
            row = packed[j]
            for i, k in enumerate(offs):
                a = finish((row >> k) & mask)
                if any(c % p for c in a[:m]):  # some coefficient at t^0 is a unit
                    break
            else:
                continue
            break
        else:  # no unit in the block: divide it by pi
            s, start, clean = s + 1, 0, True
            packed = [sum(pack(ring.from_vec(finish((r >> k) & mask)).shift_down(1).coeffs)
                          << k for k in offs) for r in packed]
            continue
        del packed[j]
        off = offs.pop(i)
        unit = a if unit is None else finish(pack(unit) * pack(a))
        sign, shift, start = sign + i + j, shift + s, j
        if packed:
            neg = pack(ring.from_vec([-c for c in a]).inv().coeffs)  # -1/a
            top = (row & ~(mask << off) if clean else
                   sum(red((row >> k) & mask) << k for k in offs))
            packed = [r + red(red((r >> off) & mask) * neg) * top for r in packed]
            clean = False
    unit = ring.one if unit is None else ring.from_vec(unit)
    return (-unit if sign % 2 else unit), shift, len(packed)


def det(mat, ring):
    """Determinant over a kernel ring: the signed product of the pivots of
    `eliminate` times pi^shift, 0 when a row is left without a pivot."""
    unit, shift, left = eliminate(mat, ring)
    return ring.zero if left else unit.shift_down(-shift)


def kernel_log_size(columns, p, e):
    """log_p of the number of x over Z/p^e with sum_j x_j * columns[j] = 0:
    `eliminate` on the columns over Z/p^e, where each pivot adds its s and
    each column left without one adds e."""
    from .localring import LocalRingCtx  # localring imports this module
    ring = LocalRingCtx(p, 1, 1, e, 1)
    _, shift, left = eliminate([[ring.from_int(c) for c in col] for col in columns], ring)
    return shift + e * left


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


def rmat_vec(A, v, ctx):
    return [ctx.dot(row, v) for row in A]


def rmat_scale(A, s):
    return [[s * a for a in row] for row in A]


def rmat_inv(M, ctx):
    """Inverse over a kernel ring by Gauss-Jordan in place with unit pivots
    (Press et al., Numerical Recipes, 2.1, `gaussj`).  Column k takes the
    first row at or below k with a unit there, swapped up to row k.  A
    pivot other than one is set to one and its row scaled by its inverse;
    each other row with a nonzero entry in column k has it set to zero and
    that multiple of the pivot row subtracted, so column k comes to hold
    the inverse's entries.  The row swaps, undone as column swaps, give
    M^{-1}; a permutation matrix costs no product.  Raises
    NotInvertibleError when M is singular modulo the maximal ideal."""
    X, swaps = [list(row) for row in M], []
    for k in range(len(X)):
        r = next((i for i in range(k, len(X)) if X[i][k].is_unit()), None)
        if r is None:
            raise NotInvertibleError("matrix over local ring is not invertible")
        X[k], X[r] = X[r], X[k]
        swaps.append(r)
        if X[k][k].coeffs != ctx.one.coeffs:
            inv, X[k][k] = X[k][k].inv(), ctx.one
            X[k] = [inv * x for x in X[k]]
        pivot = X[k]
        for i, row in enumerate(X):
            if i != k and row[k].coeffs != ctx.zero.coeffs:
                f, row[k] = row[k], ctx.zero
                X[i] = [a - f * b for a, b in zip(row, pivot)]
    for k, r in reversed(list(enumerate(swaps))):
        for row in X:
            row[k], row[r] = row[r], row[k]
    return X
