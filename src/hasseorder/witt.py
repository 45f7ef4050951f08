"""p-typical Witt vectors W_n over a truncated local ring R.

R is any kernel ring `LocalRingCtx`, R_{e,n_R} over F_{p^m}: Z/p^M is
`base_ring(p, 1, M)`, F_q is `residue_field(p, m)`, and S, T are the rings of
the algebra.  All ring laws are computed by the ghost-lift method:
coordinates are lifted into the lift ring, the kernel ring at (K, n_R),

    L = (Z/p^K)[theta]/(G)[t]/(t^n_R),

a truncation of a p-torsion-free ring with R's flat coordinates.  The ghost
components w_i = sum_{j<=i} p^j a_j^{p^{i-j}} are combined in L, and the
resulting coordinates are solved top-down with exact divisions by p^i.  L carries
n + 2 extra digits of p-adic precision so every division is exact before
the final reduction back to R; an inexact one raises InternalError.  The
method only adds, multiplies, takes p-th powers and divides by p^i, so L
needs no Frobenius lift of its own.

The ghost arithmetic runs on L's flat coefficient tuples: a `RingElem` is
built only where the API hands one out, for the reduced coordinates and for
`ghost`.  Sums and differences of ghost components are left unreduced until
the solve reduces them mod p^K, and a negative is 0 - x; a product multiplies
L's packings (`lift._prod`) and finishes once, and each p-th power is one
call of `localring._pth_power` on L's data, the one packed p-th power of the
kernel rings (also the Frobenius of `ff`'s irreducibility test).
`WittCtx.resize` keeps the context of each length it builds.
"""

from __future__ import annotations

import operator

from . import localring as lr
from .errors import CtxMismatchError, InternalError, ParameterError

MAX_N = 6


def _add(a, b):
    return list(map(operator.add, a, b))


def _sub(a, b):
    return list(map(operator.sub, a, b))


class WittCtx:
    """Length-n p-typical Witt vectors over a kernel ring R, with p = R.p.

    `lift` is the lift ring, and `_pth` and `_prod` its p-th power and
    product on coefficient tuples (`localring._pth_power`, `lift._prod`),
    built once.  `resize(n2)` returns the context of length n2, built on
    first use and then kept; the contexts on one lift ring share that cache.
    It passes `lift` on as long as its precision suffices, because
    `frobenius` solves a long vector's ghost components in the shorter
    context; a context built on a new lift starts its own cache.
    """

    def __init__(self, n, R, _lift=None):
        if n < 1 or n > MAX_N:
            raise ParameterError(f"Witt length n = {n} out of range [1, {MAX_N}]")
        self.p = p = R.p
        self.n = n
        self.ring = R
        self.lift = L = _lift if _lift is not None else \
            lr.LocalRingCtx(p, R.m, 1, R.e + n + 2, R.n)
        self._pth = lr._pth_power(p, L.m, L.n, L.modulus, L.poly)
        pack, finish = L._prod
        self._prod = lambda a, b: finish(pack(a) * pack(b))
        self._pw = [p ** j for j in range(n)]
        self._sizes = {n: self}
        self.zero = WittVec(self, (R.zero,) * n)
        self.one = self.teich(R.one)

    def resize(self, n2):
        ctx = self._sizes.get(n2)
        if ctx is None:
            if self.lift.e >= self.ring.e + n2:
                ctx = WittCtx(n2, self.ring, self.lift)
                ctx._sizes = self._sizes
            else:
                ctx = WittCtx(n2, self.ring)
            self._sizes[n2] = ctx
        return ctx

    # -- vectors -----------------------------------------------------------

    def vec(self, coords):
        coords = tuple(coords)
        if len(coords) != self.n:
            raise ParameterError(f"expected {self.n} coordinates, got {len(coords)}")
        ring = self.ring
        if any(not isinstance(c, lr.RingElem) or c.ctx is not ring for c in coords):
            raise CtxMismatchError("Witt coordinates must lie in the coefficient ring")
        return WittVec(self, coords)

    def teich(self, a):
        return self.vec((a,) + (self.ring.zero,) * (self.n - 1))

    def random(self, rng):
        return WittVec(self, tuple(self.ring.random(rng) for _ in range(self.n)))

    # -- ghost machinery ---------------------------------------------------

    def _ghost(self, v):
        """Ghost components of v in the lift ring (exact), as coefficient
        tuples.  They are computed once per vector and lift ring: v keeps
        the last ones with the lift ring they lie in."""
        L = self.lift
        if v._ghost is not None and v._ghost[0] is L:
            return v._ghost[1]
        pth = self._pth
        out, powers = [], []  # powers[j] = a_j^(p^(i-j)) in round i
        for a in v.coords:
            powers = [pth(y) for y in powers] + [a.coeffs]
            out.append(self._ghost_sum(powers))
        out = tuple(out)
        v._ghost = (L, out)
        return out

    def _ghost_sum(self, powers):
        """sum_j p^j powers[j] in the lift ring, with one reduction."""
        if not powers:
            return self.lift.zero.coeffs
        mod, pw = self.lift.modulus, self._pw
        return tuple([sum(map(operator.mul, pw, col)) % mod for col in zip(*powers)])

    def ghost(self, v):
        """Ghost components reduced back into the coefficient ring."""
        return [self.ring.from_vec(g) for g in self._ghost(v)]

    def _solve_ghost(self, targets, n_out):
        """Witt coordinates whose ghost components are the given coefficient
        tuples of the lift ring (which need not be reduced)."""
        mod, pw, pth = self.lift.modulus, self._pw, self._pth
        coords, powers = [], []  # powers[j] = c_j^(p^(i-j)) in round i
        for i in range(n_out):
            pi = pw[i]
            diff = [(t - s) % mod for t, s in zip(targets[i], self._ghost_sum(powers))]
            if any(c % pi for c in diff):
                raise InternalError("inexact division by p^i in Witt ghost solve")
            # keep the full-precision lift-ring coordinate: re-lifting the
            # reduced value would corrupt the remaining divisions
            c = tuple([c // pi for c in diff])
            coords.append(c)
            if i + 1 < n_out:
                powers = [pth(y) for y in powers + [c]]
        return tuple([self.ring.from_vec(c) for c in coords])


class WittVec:
    """A length-n Witt vector: coordinates (a_0, ..., a_{n-1}), and its
    ghost components once computed (`WittCtx._ghost`)."""

    __slots__ = ("ctx", "coords", "_ghost")

    def __init__(self, ctx, coords):
        self.ctx = ctx
        self.coords = coords
        self._ghost = None  # (lift ring, ghost tuples in it)

    def _check(self, other):
        if not isinstance(other, WittVec) or other.ctx.ring is not self.ctx.ring \
                or other.ctx.n != self.ctx.n:
            raise CtxMismatchError("Witt vectors from different contexts")

    def _binop(self, other, combine):
        self._check(other)
        ctx = self.ctx
        targets = [combine(a, b) for a, b in zip(ctx._ghost(self), ctx._ghost(other))]
        return WittVec(ctx, ctx._solve_ghost(targets, ctx.n))

    def __add__(self, other):
        return self._binop(other, _add)

    def __sub__(self, other):
        return self._binop(other, _sub)

    def __mul__(self, other):
        return self._binop(other, self.ctx._prod)

    def __neg__(self):
        return self.ctx.zero - self

    def frobenius(self):
        """F: W_n -> W_{n-1}, the unique map shifting ghost components."""
        ctx = self.ctx
        if ctx.n < 2:
            raise ParameterError("F needs Witt length >= 2")
        targets = ctx._ghost(self)[1:]
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
