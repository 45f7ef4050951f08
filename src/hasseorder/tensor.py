"""The ring T (x)_S T in Galois-component coordinates, and the order
A (x)_S T with its twisted presentation and matrix embedding.

An element z of T (x)_S T is stored as its d components (w_{sigma^k}(z))_k
under the isomorphism T (x)_S T = prod_{g in G} T, w_g(t1 (x) t2) =
g(t1) t2, with the Galois group enumerated by Frobenius exponents
(g = sigma^k).  In these coordinates multiplication is componentwise,
sigma (x) id is a cyclic shift and the idempotents e_g are unit vectors.

The u-basis T[u]/(G), u = theta (x) 1, serves input and output only:
`TensorRingCtx.elem` reads u-coefficients, `serialize` and `repr` write
them.  Component k of a u-polynomial is its value at sigma^k(theta), the
k-th root of G(u) = prod_k (u - sigma^k(theta)).  The pairwise differences
of the roots are units because T/S is unramified, so the Vandermonde
matrix on the roots is invertible and the two bases convert exactly at
precision N: `elem` multiplies by it, whose rows are the conjugates
sigma^k(theta^j) of `LocalRingCtx.conjugates` (one packed dot per root),
and `u_coeffs` by its inverse, read off in closed form by Lagrange
interpolation at the roots.  G has its coefficients in S, so the Lagrange
column of sigma^k(theta) is sigma^k of the column of theta: one synthetic
division and one inversion, of G'(theta), build them all.

A product in A (x)_S T is `algebra.skew_mul` once per component g: the
twist sigma_r (x) id rotates components, so lane g of sigma_r^i(z_j) is
the packing of component (g + ri) mod d of z_j, and no sigma is applied.
"""

from __future__ import annotations

from . import linalg
from .algebra import check_twist, embed_matrix, skew_mul
from .errors import (CtxMismatchError, InternalError, ParameterError,
                     PrecisionError)
from .localring import LocalRingCtx, power


class TensorRingCtx:
    """T (x)_S T = prod_{g in G} T together with the twist r of the order."""

    def __init__(self, T: LocalRingCtx, r: int):
        d = T.d
        check_twist(d, r)
        self.T = T
        self.d = d
        self.r = r
        self.r_inv = pow(r, -1, d)  # 0 at d = 1
        # the pieces a phi-orbit (x-orbit) visits out of piece 0
        self.cycle = [(-r * j) % d for j in range(d)]
        self.roots = [T.frobenius(T.gen, k) for k in range(d)]
        # G(u) = prod (u - sigma^k(theta)), monic of degree d, coefficients
        # Galois-invariant (they lie in the embedded S)
        G = [T.one]
        for rt in self.roots:
            nxt = [T.zero] * (len(G) + 1)
            for i, c in enumerate(G):
                nxt[i + 1] = nxt[i + 1] + c
                nxt[i] = nxt[i] - c * rt
            G = nxt
        self.G = G
        for c in G:
            if T.frobenius(c, 1) != c:
                raise InternalError("defining polynomial of T (x)_S T is not "
                                    "Galois-invariant; factorization residual")
        # the Vandermonde matrix on the roots takes u-coefficients to
        # components; its inverse takes them back, by Lagrange interpolation:
        # column k holds the u-coefficients of G(u) / ((u - r_k) G'(r_k)),
        # sigma^k of column 0 as G lies over S, and G'(theta) = prod_{k > 0}
        # (theta - r_k) is a unit as T/S is unramified
        self._from_u = [T.conjugates(k)[:d] for k in range(d)]
        den = T.dot(self._from_u[0], [c.scale(i) for i, c in enumerate(G[1:], 1)])
        if not den.is_unit():
            raise InternalError("conjugate roots are not separated by units; "
                                "extension is not unramified")
        inv = den.inv()
        q = [T.one]  # G(u) / (u - theta) from the top, by synthetic division
        for c in G[d - 1:0:-1]:
            q.append(c + T.gen * q[-1])
        col = [inv * c for c in reversed(q)]
        cols = [[T.frobenius(c, k) for c in col] for k in range(d)]
        self._to_u = list(zip(*cols))
        # the twist sigma_r (x) id of the order rotates components: lane g
        # of sigma_r^i(z) is component (g + r i) mod d of z
        self._lanes = [[(g + r * i) % d for i in range(d)] for g in range(d)]
        self.zero = TensorElem(self, (T.zero,) * d)
        self.one = TensorElem(self, (T.one,) * d)
        self.idempotents = [TensorElem(self, tuple(T.one if j == k else T.zero
                                                   for j in range(d)))
                            for k in range(d)]
        self.u_elem = TensorElem(self, tuple(self.roots))  # theta (x) 1
        self.order_one = self.order_scalar(self.one)
        self.x_elem = self.x_pow(1)  # pi_D (x) 1

    # -- the twist's index arithmetic --------------------------------------

    def succ(self, k):
        """Index of g o sigma_r^{-1}, g = sigma^k: where x (and phi) moves k."""
        return (k - self.r) % self.d

    def x_power(self, g, h):
        """The only i < d with e_g x^i e_h != 0: g = h o sigma_r^{-i}."""
        return ((h - g) * self.r_inv) % self.d

    # -- T (x)_S T elements ------------------------------------------------

    def elem(self, coeffs):
        """The element sum_j coeffs[j] u^j (at most d u-coefficients): its
        components are the Vandermonde matrix times the coefficients."""
        coeffs = list(coeffs)
        if len(coeffs) > self.d:
            raise ParameterError(f"expected at most {self.d} u-coefficients")
        return TensorElem(self, tuple(linalg.rmat_vec(self._from_u, coeffs, self.T)))

    def right(self, t):
        """1 (x) t for t in T."""
        return TensorElem(self, (t,) * self.d)

    def left(self, t):
        """t (x) 1, whose component sigma^k is sigma^k(t)."""
        return TensorElem(self, tuple(self.T.frobenius(t, k)
                                      for k in range(self.d)))

    def from_components(self, comps):
        """Inverse of the w-isomorphism."""
        if len(comps) != self.d:
            raise ParameterError(f"expected {self.d} components")
        return TensorElem(self, tuple(comps))

    def random(self, rng):
        return self.elem([self.T.random(rng) for _ in range(self.d)])

    # -- the order A (x)_S T ----------------------------------------------

    def order_elem(self, coeffs):
        coeffs = list(coeffs)
        if len(coeffs) != self.d:
            raise ParameterError(f"expected {self.d} x-coefficients")
        for c in coeffs:
            if not isinstance(c, TensorElem) or c.ctx is not self:
                raise CtxMismatchError("x-coefficients must lie in T (x)_S T")
        return TensorOrderElem(self, tuple(coeffs))

    def order_scalar(self, z):
        coeffs = [self.zero] * self.d
        coeffs[0] = z
        return self.order_elem(coeffs)

    def x_pow(self, i):
        """x^i = (pi_K^q (x) 1) x^s with i = q d + s, 0 <= s < d."""
        q, s = divmod(i, self.d)
        coeffs = [self.zero] * self.d
        coeffs[s] = self.right(self.T.uniformizer ** q)
        return self.order_elem(coeffs)

    def order_from_D(self, a):
        """A -> A (x)_S T, y_i x^i -> (y_i (x) 1) x^i; requires a in A."""
        if a.shift < 0:
            raise PrecisionError("element lies outside the order A")
        piK = self.right(self.T.uniformizer ** a.shift)
        return self.order_elem([self.left(y) * piK for y in a.coeffs])

    def order_idempotent(self, k):
        """e_{sigma^k} viewed inside A (x)_S T."""
        return self.order_scalar(self.idempotents[k % self.d])

    def order_random(self, rng):
        return self.order_elem([self.random(rng) for _ in range(self.d)])

    def milnor_lattice(self):
        """The d^2 elements u^a x^i, a outer and i inner: a basis of the
        order over 1 (x) T, whose images l(b) mod m_T span the Milnor
        square's image."""
        d = self.d
        out = []
        for a in range(d):
            ua = self.u_elem ** a
            for i in range(d):
                coeffs = [self.zero] * d
                coeffs[i] = ua
                out.append(self.order_elem(coeffs))
        return out

    # -- embedding into M_d(T) and the Milnor square -----------------------

    def embed_l(self, z):
        """Matrix of l(z) on D as a right T-module in the basis (pi_D^s):
        entry (j, s) = pi_K^w * w_{sigma^{-rj}}(z_i) at the position (i, w)
        of `algebra.embed_matrix`; extends DElem.embed() (x)-linearly."""
        piK, cycle = self.T.uniformizer, self.cycle
        comps = [c.parts for c in z.parts]

        def entry(i, j, w):
            c = comps[i][cycle[j]]
            return c * piK if w else c
        return embed_matrix(self.d, entry)

    def residue_rows(self, zs):
        """l(z) mod m_T for each z in zs, flattened row by row."""
        res = self.T.residue_of
        return [[res(e) for row in self.embed_l(z) for e in row] for z in zs]

    def milnor_member(self, M):
        """True iff M mod m_T is lower triangular (the image of l)."""
        return all(M[j][s].ord() >= 1 for j in range(self.d)
                   for s in range(j + 1, self.d))

    def milnor_preimage(self, M):
        """The unique z with l(z) = M, for M in the Milnor-square image.

        Closed form from the position bijection of `algebra.embed_matrix`:
        component sigma^{-rj} of z_i is the entry at (j, s), divided by pi_K
        when that position sits above the diagonal (w = 1).
        """
        if not self.milnor_member(M):
            raise ParameterError("matrix is not lower triangular mod m_T")
        d = self.d
        comps = [[None] * d for _ in range(d)]
        for j, row in enumerate(embed_matrix(d, lambda i, j, w: (i, w))):
            for s, (i, w) in enumerate(row):
                comps[i][self.cycle[j]] = M[j][s].shift_down(w)
        z = self.order_elem([self.from_components(c) for c in comps])
        if self.embed_l(z) != M:
            raise InternalError("Milnor preimage failed to re-embed; "
                                "contradicts the cartesian square")
        return z

    # -- Peirce pieces -----------------------------------------------------

    def peirce(self, g, h):
        """The piece e_g (A (x)_S T) e_h = T * (e_g x^i) with g = h o s^{-i},
        s = sigma^r; reports the cokernel of left multiplication by
        (pi_D (x) 1) into the (g o s^{-1}, h) piece."""
        g, h = g % self.d, h % self.d
        i = self.x_power(g, h)
        gen = self.order_idempotent(g) * self.x_pow(i) * self.order_idempotent(h)
        # honest scalar comparison: x * gen against the target generator
        tgt_g = self.succ(g)
        i2 = self.x_power(tgt_g, h)
        tgt = (self.order_idempotent(tgt_g) * self.x_pow(i2)
               * self.order_idempotent(h))
        prod = self.x_elem * gen
        lam = self.T.uniformizer if i2 == (i + 1) - self.d else self.T.one
        scaled = self.order_elem([self.right(lam) * c for c in tgt.parts])
        if prod != scaled:
            raise InternalError("Peirce transition scalar mismatch")
        return {"generator": gen, "i": i, "cokernel_length": lam.ord()}


class _Parts:
    """An element stored as a tuple of parts that add, subtract, negate and
    compare part by part: the components of T (x)_S T, the x-coefficients
    of A (x)_S T."""

    __slots__ = ("ctx", "parts")

    def __init__(self, ctx, parts):
        self.ctx = ctx
        self.parts = parts

    def _check(self, other):
        if type(other) is not type(self) or other.ctx is not self.ctx:
            raise CtxMismatchError("operands from different tensor contexts")

    def __add__(self, other):
        self._check(other)
        return type(self)(self.ctx, tuple(a + b for a, b in
                                          zip(self.parts, other.parts)))

    def __sub__(self, other):
        self._check(other)
        return type(self)(self.ctx, tuple(a - b for a, b in
                                          zip(self.parts, other.parts)))

    def __neg__(self):
        return type(self)(self.ctx, tuple(-a for a in self.parts))

    def is_zero(self):
        return all(c.is_zero() for c in self.parts)

    def __eq__(self, other):
        return (type(other) is type(self) and other.ctx is self.ctx
                and other.parts == self.parts)


class TensorElem(_Parts):
    """Element of T (x)_S T: its Galois components (w_{sigma^k}(z))_k."""

    __slots__ = ()

    def __mul__(self, other):
        self._check(other)
        return TensorElem(self.ctx, tuple(a * b for a, b in
                                          zip(self.parts, other.parts)))

    def __pow__(self, e):
        return power(self, e, self.ctx.one)

    def u_coeffs(self):
        """The coefficients of z in the u-basis T[u]/(G)."""
        return linalg.rmat_vec(self.ctx._to_u, self.parts, self.ctx.T)

    def sigma_left(self, j=1):
        """(sigma (x) id)^j: permutes w-components by g -> g o sigma^{-1}."""
        j %= self.ctx.d
        return TensorElem(self.ctx, self.parts[j:] + self.parts[:j])

    def sigma_right(self, j=1):
        """(id (x) sigma)^j: component g becomes sigma^j of component
        sigma^{-j} g."""
        ctx = self.ctx
        k = -j % ctx.d
        return TensorElem(ctx, tuple(ctx.T.frobenius(c, j) for c in
                                     self.parts[k:] + self.parts[:k]))

    def __repr__(self):
        return f"Tensor{self.serialize()}"

    def serialize(self):
        """The u-coefficients, each serialized."""
        return [c.serialize() for c in self.u_coeffs()]


class TensorOrderElem(_Parts):
    """Element of A (x)_S T = (T (x)_S T)^{sigma_r (x) id}{x}/(x^d - pi_K):
    its x-coefficients in T (x)_S T."""

    __slots__ = ()

    def __mul__(self, other):
        """One skew product (algebra.skew_mul) per Galois component g: the
        twist picks the rotated component packings of the z_j, and each
        component is packed at most once (`RingElem._packing`)."""
        self._check(other)
        ctx = self.ctx
        pack, _, _, fold = ctx.T._skew_kernel()
        ys = [[c._packing(pack) for c in y.parts] for y in self.parts]
        zs = [[c._packing(pack) for c in z.parts] for z in other.parts]
        lanes = [skew_mul([y[g] for y in ys], zs,
                          lambda z, i, rot=rot: z[rot[i]], fold)
                 for g, rot in enumerate(ctx._lanes)]
        return TensorOrderElem(ctx, tuple(TensorElem(ctx, comps)
                                          for comps in zip(*lanes)))

    def __pow__(self, e):
        return power(self, e, self.ctx.order_one)

    def __repr__(self):
        return f"Order{self.serialize()}"

    def serialize(self):
        return [c.serialize() for c in self.parts]


def make(T: LocalRingCtx, r: int) -> TensorRingCtx:
    return TensorRingCtx(T, r)
