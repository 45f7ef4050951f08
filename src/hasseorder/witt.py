"""p-typical Witt vectors W_n over a truncated local ring R.

R is any kernel ring `LocalRingCtx`: Z/p^M is `base_ring(p, 1, M)`, F_q is
`residue_field(p, m)`, and S, T are the rings of the algebra.  All ring laws
are computed by the ghost-lift method: coordinates are lifted into the
lift ring

    L = (Z/p^K)[theta]/(G)[t]/(t^n),

a truncation of a p-torsion-free ring with R's flat coordinates and the
Frobenius lift `phi` (the p-power lift on theta, t -> t^p).  The ghost
components w_i = sum_{j<=i} p^j a_j^{p^{i-j}} are combined in L, and the
resulting coordinates are solved top-down with exact divisions by p^i.  L carries
n + 2 extra digits of p-adic precision so every division is exact before
the final reduction back to R.
"""

from __future__ import annotations

import operator

from . import localring as lr
from .errors import CtxMismatchError, InternalError, ParameterError

MAX_N = 6
MAX_P = 13


# ---------------------------------------------------------------------------
# the lift ring

def divp(a, i):
    """Exact division of a lift-ring element by p^i."""
    pi = a.ctx.p ** i
    if any(c % pi for c in a.coeffs):
        raise InternalError("inexact division by p^i in Witt ghost solve")
    return lr.RingElem(a.ctx, tuple([c // pi for c in a.coeffs]))


def phi(a):
    """The Frobenius lift of the lift ring: the p-power lift phi on theta
    together with t -> t^p."""
    L = a.ctx
    y = L.frobenius_p(a, 1)
    if L.n == 1:
        return y
    c, m, p = y.coeffs, L.m, L.p
    out = [0] * len(c)
    for i in range(0, (L.n - 1) // p + 1):  # t^i -> t^(p*i)
        out[i * p * m:(i * p + 1) * m] = c[i * m:(i + 1) * m]
    return lr.RingElem(L, tuple(out))


def _lift_ring(R, K):
    """The lift of R with p-adic precision K, its Frobenius lift checked."""
    if R.n == 1:
        L = lr.LocalRingCtx(lr.MIXED, R.p, R.m, 1, K)
    else:
        L = lr.LocalRingCtx(lr.EQUAL, R.p, R.m, 1, R.n, coeff_exp=K)
    g, t = L.gen, L.uniformizer
    if any(c % L.p for c in (phi(g) - g ** L.p).coeffs) or \
            (L.n > 1 and phi(t) != t ** L.p):
        raise InternalError("Frobenius lift fails phi(a) = a^p mod p")
    return L


class WittCtx:
    """Length-n p-typical Witt vectors over a kernel ring R.

    `lift` is the lift ring; `resize` passes it on to the contexts of other
    lengths as long as its precision suffices, because `frobenius` solves a
    long vector's ghost components in the shorter context.
    """

    def __init__(self, p, n, R, _lift=None):
        if n < 1 or n > MAX_N:
            raise ParameterError(f"Witt length n = {n} out of range [1, {MAX_N}]")
        if p > MAX_P:
            raise ParameterError(f"p = {p} exceeds the supported cap {MAX_P}")
        if R.p != p:
            raise ParameterError("coefficient ring characteristic mismatch")
        self.p = p
        self.n = n
        self.ring = R
        self.lift = _lift if _lift is not None else _lift_ring(R, R.e + n + 2)
        self._pw = [p ** j for j in range(n)]

    def resize(self, n2):
        if n2 == self.n:
            return self
        lift = self.lift if self.lift.e >= self.ring.e + n2 else None
        return WittCtx(self.p, n2, self.ring, lift)

    # -- vectors -----------------------------------------------------------

    def vec(self, coords):
        coords = tuple(coords)
        if len(coords) != self.n:
            raise ParameterError(f"expected {self.n} coordinates, got {len(coords)}")
        ring = self.ring
        if any(not isinstance(c, lr.RingElem) or c.ctx is not ring for c in coords):
            raise CtxMismatchError("Witt coordinates must lie in the coefficient ring")
        return WittVec(self, coords)

    @property
    def zero(self):
        return WittVec(self, (self.ring.zero,) * self.n)

    @property
    def one(self):
        return self.teich(self.ring.one)

    def teich(self, a):
        return self.vec((a,) + (self.ring.zero,) * (self.n - 1))

    def random(self, rng):
        return WittVec(self, tuple(self.ring.random(rng) for _ in range(self.n)))

    # -- ghost machinery ---------------------------------------------------

    def ghost_lift(self, v):
        """Ghost components in the lift ring (exact), as a tuple.

        They are computed once per vector and lift ring: v keeps the last
        ones with the lift ring they lie in."""
        L, p = self.lift, self.p
        if v._ghost is not None and v._ghost[0] is L:
            return v._ghost[1]
        out, powers = [], []  # powers[j] = a_j^(p^(i-j)) in round i
        for a in v.coords:
            powers = [y ** p for y in powers] + [lr.RingElem(L, a.coeffs)]
            out.append(self._ghost_sum(powers))
        out = tuple(out)
        v._ghost = (L, out)
        return out

    def _ghost_sum(self, powers):
        """sum_j p^j powers[j] in the lift ring, with one reduction."""
        L = self.lift
        if not powers:
            return L.zero
        mod, pw = L.modulus, self._pw
        return lr.RingElem(L, tuple([sum(map(operator.mul, pw, col)) % mod
                                     for col in zip(*[y.coeffs for y in powers])]))

    def ghost(self, v):
        """Ghost components reduced back into the coefficient ring."""
        return [self.ring.from_vec(g.coeffs) for g in self.ghost_lift(v)]

    def _solve_ghost(self, targets, n_out):
        """Witt coordinates whose ghost equals the given lift-ring targets."""
        coords_lift, powers = [], []  # powers[j] = c_j^(p^(i-j)) in round i
        for i in range(n_out):
            # keep the full-precision lift-ring coordinate: re-lifting the
            # reduced value would corrupt the remaining divisions
            c = divp(targets[i] - self._ghost_sum(powers), i)
            coords_lift.append(c)
            if i + 1 < n_out:
                powers = [y ** self.p for y in powers + [c]]
        return tuple([self.ring.from_vec(c.coeffs) for c in coords_lift])


class WittVec:
    """A length-n Witt vector: coordinates (a_0, ..., a_{n-1}), and its
    ghost components once computed (`WittCtx.ghost_lift`)."""

    __slots__ = ("ctx", "coords", "_ghost")

    def __init__(self, ctx, coords):
        self.ctx = ctx
        self.coords = coords
        self._ghost = None  # (lift ring, ghost components in it)

    def _check(self, other):
        if not isinstance(other, WittVec) or other.ctx.ring is not self.ctx.ring \
                or other.ctx.n != self.ctx.n:
            raise CtxMismatchError("Witt vectors from different contexts")

    def _binop(self, other, combine):
        self._check(other)
        ctx = self.ctx
        targets = [combine(a, b)
                   for a, b in zip(ctx.ghost_lift(self), ctx.ghost_lift(other))]
        return WittVec(ctx, ctx._solve_ghost(targets, ctx.n))

    def __add__(self, other):
        return self._binop(other, operator.add)

    def __sub__(self, other):
        return self._binop(other, operator.sub)

    def __mul__(self, other):
        return self._binop(other, operator.mul)

    def __neg__(self):
        ctx = self.ctx
        targets = [-g for g in ctx.ghost_lift(self)]
        return WittVec(ctx, ctx._solve_ghost(targets, ctx.n))

    def frobenius(self):
        """F: W_n -> W_{n-1}, the unique map shifting ghost components."""
        ctx = self.ctx
        if ctx.n < 2:
            raise ParameterError("F needs Witt length >= 2")
        targets = ctx.ghost_lift(self)[1:]
        short = ctx.resize(ctx.n - 1)
        return WittVec(short, short._solve_ghost(targets, short.n))

    def verschiebung(self):
        """V: W_n -> W_{n+1}, prepend a zero coordinate."""
        ctx = self.ctx.resize(self.ctx.n + 1)
        return WittVec(ctx, (self.ctx.ring.zero,) + self.coords)

    def restriction(self):
        """R: W_n -> W_{n-1}, drop the last coordinate."""
        if self.ctx.n < 2:
            raise ParameterError("R needs Witt length >= 2")
        ctx = self.ctx.resize(self.ctx.n - 1)
        return WittVec(ctx, self.coords[:-1])

    def map_coords(self, fn):
        """Coordinatewise map (e.g. a Galois action on the coefficient ring)."""
        return WittVec(self.ctx, tuple(fn(a) for a in self.coords))

    def __eq__(self, other):
        return (isinstance(other, WittVec) and other.ctx.n == self.ctx.n
                and other.coords == self.coords)

    def __repr__(self):
        return f"W{list(self.coords)}"

    def serialize(self):
        return [a.serialize() for a in self.coords]
