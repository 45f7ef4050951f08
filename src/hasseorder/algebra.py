"""The cyclic division algebra D of index d and twist r over K, and its
maximal order A = T^{sigma_r}{x}/(x^d - pi_K).

Elements are stored as a pi_K-power shift m together with a d-vector
(y_0, ..., y_{d-1}) over T, meaning pi_K^m * sum_i y_i pi_D^i.  The twisted
relation is pi_D * y = sigma_r(y) * pi_D with sigma_r = sigma^r, and
pi_D^d = pi_K.  The valuation is normalized by ord_D(pi_D) = 1, so
ord_D(pi_K) = d and ord_D = v_K(Nrd) on the nose.

The product (`skew_mul`, shared with A (x)_S T in `tensor`) runs on
Kronecker packings of the coefficients (`LocalRingCtx._skew_kernel`).
Each coefficient is packed once and keeps its packing for later products
(`RingElem._packing`).  sigma^k is Z/p^e-linear, so sigma_r^i(z_j) is
formed on the packing of z_j, as m integer multiply-adds against the
packed columns of sigma^k.  The d^2 integer products are summed into one
accumulator per x-power, the wrap x^d = pi_K is folded into the
accumulator below it (p * acc in mixed characteristic, a shift by one
t-slot in equal characteristic), and each output coefficient is reduced by
G and p^e once.
"""

from __future__ import annotations

import math
from operator import mul as _mul

from . import linalg
from .errors import (CtxMismatchError, InternalError, NotInvertibleError,
                     ParameterError, PrecisionError)
from .localring import LocalRingCtx, power


def check_twist(d: int, r: int):
    """Raise ParameterError unless r is a valid twist for index d."""
    if d == 1:
        if r != 0:
            raise ParameterError("d = 1 requires twist r = 0 (D = K)")
    elif not (0 < r < d) or math.gcd(r, d) != 1:
        raise ParameterError(
            f"twist r = {r} must satisfy 0 < r < d and gcd(r, d) = 1")


def skew_mul(ys, zs, twist, fold):
    """Product of sum y_i x^i and sum z_j x^j in R^{tau}{x}/(x^d - pi), on
    Kronecker packings.

    ys are the packings of the y_i, zs whatever twist reads of the z_j (both
    falsy for a zero coefficient), and twist(z, i) is the packing of
    tau^i(z).  The d^2 integer products y_i * tau^i(z_j) are summed into one
    accumulator per x-power i + j, and fold(acc_s, acc_{s+d}) folds
    x^{s+d} = pi x^s into coefficient s and finishes it once.  Returns the d
    coefficients.
    """
    d = len(ys)
    acc = [0] * (2 * d)
    for i, y in enumerate(ys):
        if y:
            for s, z in enumerate(zs, i):
                if z:
                    acc[s] += y * twist(z, i)
    return [fold(acc[s], acc[s + d]) for s in range(d)]


def embed_matrix(d, entry):
    """The d x d matrix of a left multiplication in the right basis
    (pi_D^s): entry (j, s) is entry(i, j, w), where x^i with
    i = (j - s) mod d carries pi_D^s to pi_D^j, and w = (i + s) // d is 1
    when that passes pi_D^d = pi_K (the position is above the diagonal)."""
    out = []
    for j in range(d):
        row = []
        for s in range(d):
            i = (j - s) % d
            row.append(entry(i, j, (i + s) // d))
        out.append(row)
    return out


class AlgebraCtx:
    """The order A inside D = T^{sigma_r}{x}/(x^d - pi_K)."""

    def __init__(self, T: LocalRingCtx, r: int):
        d = T.d
        check_twist(d, r)
        self.T = T
        self.S = T.base if T.base is not None else T
        self.d = d
        self.r = r
        self.prec = T.prec
        self.ord_cap = d * T.prec
        self._skew = None
        self.zero = DElem(self, 0, (T.zero,) * d)
        self.one = self.from_T(T.one)
        self.pi_D = self.pi_D_pow(1)

    def _kernel(self):
        """(pack, split, twist, fold) of the product, built on first use:
        twist(z, i) forms sigma_r^i(z) from the segments of z (split) and
        the packed columns of sigma^{ri mod d} (LocalRingCtx._skew_kernel)."""
        if self._skew is None:
            d = self.d
            pack, split, columns, fold = self.T._skew_kernel()
            cols = [columns[self.r * i % d] for i in range(d)]

            def twist(z, i):
                c = cols[i]
                return z[0] if c is None else sum(map(_mul, z[1], c))
            self._skew = (pack, split, twist, fold)
        return self._skew

    # -- element constructors ---------------------------------------------

    def elem(self, shift, coeffs):
        coeffs = list(coeffs)
        if len(coeffs) != self.d:
            raise ParameterError(f"expected {self.d} coefficients")
        for c in coeffs:
            if c.ctx is not self.T:
                raise CtxMismatchError("coefficients must lie in T")
        v = min(c.ord() for c in coeffs)
        if v >= self.prec:
            return self.zero
        if v:
            coeffs = [c.shift_down(v) for c in coeffs]
            shift += v
        return DElem(self, shift, tuple(coeffs))

    def from_T(self, t):
        coeffs = [self.T.zero] * self.d
        coeffs[0] = t
        return self.elem(0, coeffs)

    def from_int(self, a):
        return self.from_T(self.T.from_int(a))

    def pi_D_pow(self, e: int):
        """pi_D^e for any integer e, as a shift plus a single x-power."""
        q, s = divmod(e, self.d)
        coeffs = [self.T.zero] * self.d
        coeffs[s] = self.T.one
        return DElem(self, q, tuple(coeffs))

    def random(self, rng):
        """A random element of the order A (shift 0)."""
        return self.elem(0, [self.T.random(rng) for _ in range(self.d)])

    def __repr__(self):
        return f"Algebra(d={self.d}, r={self.r}, T={self.T!r})"


class DElem:
    """pi_K^shift * sum_i coeffs[i] * pi_D^i with coeffs over T."""

    __slots__ = ("ctx", "shift", "coeffs")

    def __init__(self, ctx, shift, coeffs):
        self.ctx = ctx
        self.shift = shift
        self.coeffs = coeffs

    def _check(self, other):
        if not isinstance(other, DElem) or other.ctx is not self.ctx:
            raise CtxMismatchError("operands from different algebra contexts")

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    def __add__(self, other):
        self._check(other)
        ctx = self.ctx
        a, b = self, other
        if a.shift > b.shift:
            a, b = b, a
        up = a.shift - b.shift
        return ctx.elem(a.shift, [x + y.shift_down(up)
                                  for x, y in zip(a.coeffs, b.coeffs)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return DElem(self.ctx, self.shift, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        """Each coefficient is packed at most once (algebra.skew_mul)."""
        self._check(other)
        ctx = self.ctx
        pack, split, twist, fold = ctx._kernel()
        return ctx.elem(self.shift + other.shift,
                        skew_mul([y._packing(pack) for y in self.coeffs],
                                 [split(z) for z in other.coeffs],
                                 twist, fold))

    def __pow__(self, e: int):
        return power(self, e, self.ctx.one)

    def ord(self) -> int:
        """ord_D with ord_D(pi_D) = 1; ctx.ord_cap (+ d*shift) means zero."""
        ctx = self.ctx
        if self.is_zero():
            return ctx.ord_cap
        return ctx.d * self.shift + min(ctx.d * c.ord() + i
                                        for i, c in enumerate(self.coeffs)
                                        if not c.is_zero())

    def _unit_part(self):
        """(v, u) with self = pi_D^v * u, v = ord_D and u a unit of A (shift
        0): pi_D is divided off on the left one exact step at a time,
        pi_D^{-1} * sum y_i x^i = sum sigma_r^{-1}(y_{i+1}) x^i with
        y_d = y_0 / pi_K, and the remaining pi_K-power last."""
        ctx = self.ctx
        T, d, r = ctx.T, ctx.d, ctx.r
        v = self.ord()
        ys = self.coeffs
        for _ in range(v % d):
            ys = [T.frobenius(c, -r) for c in (*ys[1:], ys[0].shift_down(1))]
        return v, DElem(ctx, 0, tuple(c.shift_down(v // d - self.shift) for c in ys))

    def sigma_conj(self, k: int = 1):
        """Exact conjugation pi_D^k * self * pi_D^{-k} = sum sigma_r^k(y_i) x^i."""
        ctx = self.ctx
        return DElem(ctx, self.shift,
                     tuple(ctx.T.frobenius(c, ctx.r * k) for c in self.coeffs))

    def inv(self):
        """Two-sided inverse: self = pi_D^v * u with u a unit, and u^{-1}
        by Newton's iteration b <- b * (2 - u * b) from b = y_0^{-1}.

        1 - u * b starts at ord_D >= 1 and is squared each round, so
        ceil(log2(d * N)) rounds reach ord_D >= d * N, which is zero.
        """
        ctx = self.ctx
        if self.is_zero():
            raise NotInvertibleError("inverse of 0 in D", ord=None)
        # self = pi_D^v * u with u a unit, so self^{-1} = u^{-1} * pi_D^{-v}
        v, u = self._unit_part()
        if v > ctx.d * (ctx.prec - 2):
            raise PrecisionError(
                f"ord_D = {v} leaves no precision margin for inversion")
        if u.ord() != 0:
            raise InternalError("unit part of inversion input is not a unit")
        two = ctx.from_int(2)
        b = ctx.from_T(u.coeffs[0].inv())
        for _ in range((ctx.ord_cap - 1).bit_length()):
            b = b * (two - u * b)
        if not (u * b == ctx.one and b * u == ctx.one):
            raise InternalError("inverse of the unit part fails u * b = b * u = 1")
        return b if v == 0 else b * ctx.pi_D_pow(-v)

    def conjugate_by(self, pi):
        """pi * self * pi^{-1}: an ord-preserving ring automorphism of D.

        Decomposed as pi = pi_D^v * u with u a unit (`_unit_part`), so only
        the unit part needs arithmetic and the pi_D^v part acts by the exact
        twist formula: pi * self * pi^{-1} = (u * self * u^{-1}).sigma_conj(v).
        """
        self._check(pi)
        if pi.is_zero():
            raise NotInvertibleError("conjugation by 0", ord=None)
        v, u = pi._unit_part()
        if u == self.ctx.one:
            return self.sigma_conj(v)
        return (u * self * u.inv()).sigma_conj(v)

    # -- embedding, reduced and full norm/trace ---------------------------

    def embed(self):
        """Matrix of left multiplication by a on D as a right T-module in
        basis (pi_D^s): entry (j, s) = pi_K^{w + shift} * sigma_r^{-j}(y_i)
        at the position (i, w) of `embed_matrix`.
        """
        ctx = self.ctx
        T, r, ys, shift = ctx.T, ctx.r, self.coeffs, self.shift

        def entry(i, j, w):
            y = ys[i]
            return T.zero if y.is_zero() else T.frobenius(y, -r * j).shift_down(-w - shift)
        return embed_matrix(ctx.d, entry)

    def trd_nrd(self):
        """Reduced trace and norm in S: the trace and the determinant
        (`linalg.det`) of embed() over T."""
        T = self.ctx.T
        M = self.embed()
        trd = sum((row[j] for j, row in enumerate(M)), T.zero)
        nrd = linalg.det(M, T)
        for val in (trd, nrd):
            if T.frobenius(val, 1) != val:
                raise InternalError("reduced trace/norm is not Galois-invariant")
        return T.to_base(trd), T.to_base(nrd)

    def _left_mult_matrix(self):
        """Matrix of left multiplication on D as an S-module of rank d^2,
        in the basis (theta^j * pi_D^i).

        Read off the skew structure: with a = pi_K^shift sum_k y_k pi_D^k,
        a * theta^j pi_D^i = sum_k pi_K^shift y_k sigma_r^k(theta^j)
        pi_D^{k+i}, and pi_D^{k+i} = pi_K pi_D^{k+i-d} once k + i reaches d:
        block (k', i) is x^k at the position (k', i) of `embed_matrix`.
        """
        ctx = self.ctx
        T, d = ctx.T, ctx.d
        if self.shift < 0:
            raise PrecisionError("left multiplication left the order A")
        # coords[k][w][j]: S-coordinates of pi_K^{shift+w} y_k sigma_r^k(theta^j),
        # with w = 1 needed only for k > 0; rel_coords is S-linear, so the
        # w = 1 coordinates are pi_K times the w = 0 ones
        coords = []
        for k, y in enumerate(self.coeffs):
            cs = [T.rel_coords((y * t).shift_down(-self.shift))
                  for t in T.conjugates(ctx.r * k)[:d]]
            coords.append([cs, [[c.shift_down(-1) for c in v] for v in cs]] if k
                          else [cs])
        # row k'*d + j' is the (theta^{j'} pi_D^{k'})-coordinate, column
        # i*d + j is the image of theta^j pi_D^i
        blocks = embed_matrix(d, lambda k, kk, w: coords[k][w])
        return [[col[jj] for block in row for col in block]
                for row in blocks for jj in range(d)]

    def full_norm_trace(self):
        """Trace and determinant of left multiplication on the d^2-dimensional
        S-module D: the independent oracle for N = Nrd^d, Tr = d*Trd."""
        S = self.ctx.S
        M = self._left_mult_matrix()
        return sum((row[j] for j, row in enumerate(M)), S.zero), linalg.det(M, S)

    def __eq__(self, other):
        """Equality at working precision.

        Coefficients are exact mod pi_K^N, so an element of shift s is
        determined mod pi_K^{N + min(s, 0)} only: canonicalization after a
        cancelling addition divides out pi_K-content, and the digits it
        exposes above that bound depend on the computation route.  Two
        elements are equal iff their difference vanishes to the guaranteed
        precision d*(N + min(shift, 0)).
        """
        if not (isinstance(other, DElem) and other.ctx is self.ctx):
            return False
        if other.shift == self.shift and other.coeffs == self.coeffs:
            return True
        ctx = self.ctx
        bound = ctx.d * (ctx.prec + min(self.shift, other.shift, 0))
        return (self - other).ord() >= bound

    def __repr__(self):
        return f"D(shift={self.shift}, {[c.serialize() for c in self.coeffs]})"

    def serialize(self):
        return {"shift": self.shift,
                "coeffs": [c.serialize() for c in self.coeffs]}


def make(T: LocalRingCtx, r: int) -> AlgebraCtx:
    """The maximal order A in the cyclic algebra of twist r over T's base."""
    return AlgebraCtx(T, r)
