"""p-typical Witt vectors W_n over Z/p^M and truncated local rings (F_q too).

All ring laws are computed by the ghost-lift method: coordinates are lifted
into a p-torsion-free ring carrying a Frobenius lift, the ghost components
w_i = sum_{j<=i} p^j a_j^{p^{i-j}} are combined there, and the resulting
coordinates are solved top-down with exact divisions by p^i.  The lift ring
carries n extra digits of p-adic precision so every division is exact before
the final reduction back to the coefficient ring.
"""

from __future__ import annotations

from . import localring as lr
from .errors import CtxMismatchError, InternalError, ParameterError

MAX_N = 6
MAX_P = 13


# ---------------------------------------------------------------------------
# lift-ring adapters

class _ZmodLift:
    """Z/p^K lifting Z/p^M; the identity is already a Frobenius lift."""

    def __init__(self, p, M, K):
        self.p = p
        self.M = M
        self.K = K
        self.pK = p ** K
        self.pM = p ** M

    def lift(self, a):
        return a % self.pK

    def reduce(self, y):
        return y % self.pM

    def zero(self):
        return 0

    def add(self, a, b):
        return (a + b) % self.pK

    def sub(self, a, b):
        return (a - b) % self.pK

    def mul(self, a, b):
        return (a * b) % self.pK

    def mul_int(self, a, c):
        return (a * c) % self.pK

    def pow(self, a, e):
        return pow(a, e, self.pK)

    def divp(self, a, i):
        pi = self.p ** i
        if a % pi:
            raise InternalError("inexact division by p^i in Witt ghost solve")
        return a // pi

    def phi(self, a):
        return a

    def phi_check(self):
        return True


class _RingLift:
    """(Z/p^K)[theta]/(G)[t]/(t^n) lifting a coefficient ring with the same
    flat coordinates: a mixed-characteristic ring or F_q (n = 1), or
    k[[t]]/(t^N) (n = N).  Its Frobenius lift is the p-power lift phi on
    theta together with t -> t^p."""

    def __init__(self, coeff, m, n, K):
        self.coeff = coeff
        self.p = p = coeff.p
        self.K = K
        if n == 1:
            self.ring = lr.LocalRingCtx(lr.MIXED, p, m, 1, K)
        else:
            self.ring = lr.LocalRingCtx(lr.EQUAL, p, m, 1, n, coeff_exp=K)

    def lift(self, a):
        return lr.RingElem(self.ring, a.coeffs)

    def reduce(self, y):
        return self.coeff.from_vec(y.coeffs)

    def zero(self):
        return self.ring.zero

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def mul_int(self, a, c):
        return a.scale(c)

    def pow(self, a, e):
        return a ** e

    def divp(self, a, i):
        pi = self.p ** i
        if any(c % pi for c in a.coeffs):
            raise InternalError("inexact division by p^i in Witt ghost solve")
        return lr.RingElem(self.ring, tuple([c // pi for c in a.coeffs]))

    def phi(self, a):
        ring = self.ring
        c = ring.frobenius_p(a, 1).coeffs
        if ring.n == 1:
            return lr.RingElem(ring, c)
        m = ring.m
        out = [0] * len(c)
        for i in range(0, (ring.n - 1) // self.p + 1):  # t^i -> t^(p*i)
            out[i * self.p * m:(i * self.p + 1) * m] = c[i * m:(i + 1) * m]
        return lr.RingElem(ring, tuple(out))

    def phi_check(self):
        g = self.ring.gen
        if any(c % self.p for c in (self.phi(g) - g ** self.p).coeffs):
            return False
        t = self.ring.uniformizer
        return self.ring.n == 1 or (self.phi(t) - t ** self.p).is_zero()


class WittCtx:
    """Length-n p-typical Witt vectors over a supported coefficient ring."""

    def __init__(self, p, n, coeff, _adapter=None):
        if n < 1 or n > MAX_N:
            raise ParameterError(f"Witt length n = {n} out of range [1, {MAX_N}]")
        if p > MAX_P:
            raise ParameterError(f"p = {p} exceeds the supported cap {MAX_P}")
        self.p = p
        self.n = n
        self.coeff = coeff  # ("zmod", M) | ("local", LocalRingCtx)
        kind = coeff[0]
        if _adapter is not None:
            self.lift = _adapter
        else:
            headroom = n + 2
            if kind == "zmod":
                M = coeff[1]
                self.lift = _ZmodLift(p, M, M + headroom)
            elif kind == "local":
                R = coeff[1]
                if R.p != p:
                    raise ParameterError("coefficient ring characteristic mismatch")
                self.lift = _RingLift(R, R.m, R.n, R.zp_exp + headroom)
            else:
                raise ParameterError(f"unsupported coefficient ring kind {kind!r}")
            if not self.lift.phi_check():
                raise InternalError("Frobenius lift fails phi(a) = a^p mod p")

    # -- coefficient-ring helpers -----------------------------------------

    def _min_lift_prec(self, n):
        kind, c = self.coeff
        return (c if kind == "zmod" else c.zp_exp) + n

    def resize(self, n2):
        if n2 == self.n:
            return self
        adapter = self.lift if self.lift.K >= self._min_lift_prec(n2) else None
        return WittCtx(self.p, n2, self.coeff, _adapter=adapter)

    def coeff_zero(self):
        return 0 if self.coeff[0] == "zmod" else self.coeff[1].zero

    def coeff_one(self):
        return 1 if self.coeff[0] == "zmod" else self.coeff[1].one

    def coeff_random(self, rng):
        kind, c = self.coeff
        return rng.randrange(self.p ** c) if kind == "zmod" else c.random(rng)

    def coeff_eq(self, a, b):
        if self.coeff[0] == "zmod":
            M = self.p ** self.coeff[1]
            return (a - b) % M == 0
        return a == b

    # -- vectors -----------------------------------------------------------

    def vec(self, coords):
        coords = list(coords)
        if len(coords) != self.n:
            raise ParameterError(f"expected {self.n} coordinates, got {len(coords)}")
        return WittVec(self, tuple(coords))

    @property
    def zero(self):
        return WittVec(self, tuple(self.coeff_zero() for _ in range(self.n)))

    @property
    def one(self):
        return self.teich(self.coeff_one())

    def teich(self, a):
        return WittVec(self, (a,) + tuple(self.coeff_zero() for _ in range(self.n - 1)))

    def random(self, rng):
        return WittVec(self, tuple(self.coeff_random(rng) for _ in range(self.n)))

    # -- ghost machinery ---------------------------------------------------

    def ghost_lift(self, v):
        """Ghost components in the lift ring (exact)."""
        L, p = self.lift, self.p
        out, powers = [], []  # powers[j] = a_j^(p^(i-j)) in round i
        for a in v.coords:
            powers = [L.pow(y, p) for y in powers] + [L.lift(a)]
            out.append(self._ghost_sum(powers))
        return out

    def _ghost_sum(self, powers):
        """sum_j p^j powers[j] in the lift ring."""
        L = self.lift
        acc = L.zero()
        for j, y in enumerate(powers):
            acc = L.add(acc, L.mul_int(y, self.p ** j))
        return acc

    def ghost(self, v):
        """Ghost components reduced back into the coefficient ring."""
        return [self.lift.reduce(g) for g in self.ghost_lift(v)]

    def _solve_ghost(self, targets, n_out):
        """Witt coordinates whose ghost equals the given lift-ring targets."""
        L = self.lift
        coords_lift, powers = [], []  # powers[j] = c_j^(p^(i-j)) in round i
        for i in range(n_out):
            # keep the full-precision lift-ring coordinate: re-lifting the
            # reduced value would corrupt the remaining divisions
            c = L.divp(L.sub(targets[i], self._ghost_sum(powers)), i)
            coords_lift.append(c)
            if i + 1 < n_out:
                powers = [L.pow(y, self.p) for y in powers + [c]]
        return [L.reduce(c) for c in coords_lift]


class WittVec:
    """A length-n Witt vector: coordinates (a_0, ..., a_{n-1})."""

    __slots__ = ("ctx", "coords")

    def __init__(self, ctx, coords):
        self.ctx = ctx
        self.coords = coords

    def _check(self, other):
        if not isinstance(other, WittVec) or other.ctx.coeff != self.ctx.coeff \
                or other.ctx.n != self.ctx.n:
            raise CtxMismatchError("Witt vectors from different contexts")

    def _binop(self, other, combine):
        self._check(other)
        ctx = self.ctx
        gx = ctx.ghost_lift(self)
        gy = ctx.ghost_lift(other)
        targets = [combine(a, b) for a, b in zip(gx, gy)]
        return WittVec(ctx, tuple(ctx._solve_ghost(targets, ctx.n)))

    def __add__(self, other):
        return self._binop(other, self.ctx.lift.add)

    def __sub__(self, other):
        return self._binop(other, self.ctx.lift.sub)

    def __mul__(self, other):
        return self._binop(other, self.ctx.lift.mul)

    def __neg__(self):
        ctx = self.ctx
        L = ctx.lift
        targets = [L.sub(L.zero(), g) for g in ctx.ghost_lift(self)]
        return WittVec(ctx, tuple(ctx._solve_ghost(targets, ctx.n)))

    def frobenius(self):
        """F: W_n -> W_{n-1}, the unique map shifting ghost components."""
        ctx = self.ctx
        if ctx.n < 2:
            raise ParameterError("F needs Witt length >= 2")
        targets = ctx.ghost_lift(self)[1:]
        short = ctx.resize(ctx.n - 1)
        return WittVec(short, tuple(short._solve_ghost(targets, short.n)))

    def verschiebung(self):
        """V: W_n -> W_{n+1}, prepend a zero coordinate."""
        ctx = self.ctx.resize(self.ctx.n + 1)
        return WittVec(ctx, (self.ctx.coeff_zero(),) + self.coords)

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
        if not isinstance(other, WittVec) or other.ctx.n != self.ctx.n:
            return False
        return all(self.ctx.coeff_eq(a, b) for a, b in zip(self.coords, other.coords))

    def __repr__(self):
        return f"W{list(self.coords)}"

    def serialize(self):
        out = []
        for a in self.coords:
            out.append(a if isinstance(a, int) else a.serialize())
        return out
