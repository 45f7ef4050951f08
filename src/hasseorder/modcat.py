"""Graded (T, G)-modules with phi, the F/H equivalence with left
A (x)_S T-modules, the deg/ind adjunction, module-level reduced trace, and
the constructive decomposition of projectives into standard size-1 objects.

Graded pieces are indexed by Frobenius exponents k (g = sigma^k), and phi
has degree sigma^{-1} for the TWIST generator sigma_r = sigma^r: the block
phi[k] maps piece k to piece succ(k) = (k - r) mod d.  Because gcd(r, d) = 1
the d pieces form a single phi-cycle, and the cycle condition phi^d = pi_K
is the composite around that cycle.  The index arithmetic of the twist
(succ, x_power, cycle) is read from `TensorRingCtx`.

A module is immutable: phi is frozen at construction into a tuple of
blocks, each a tuple of row tuples.  So a module keeps what it derives from
phi (that `validate` passed, and the split of `decompose` along each
orbit index) for good, and `decompose` under a second rule reuses every
split the first one made.
"""

from __future__ import annotations

from . import linalg
from .errors import (CtxMismatchError, NotInvertibleError, ParameterError,
                     PrecisionError, RepresentationError, ValidationError)
from .tensor import TensorRingCtx


class GradedPhiModule:
    """(P, (P_g)_{g in G}, phi): free blocks T^{n_g} and matrices of phi,
    frozen as tuples of row tuples."""

    def __init__(self, ctx: TensorRingCtx, ranks, phi, slack=0):
        if len(ranks) != ctx.d or len(phi) != ctx.d:
            raise ParameterError(f"expected {ctx.d} ranks and phi blocks")
        self.ctx = ctx
        self.ranks = list(ranks)
        # digits of working precision consumed by saturations that produced
        # this module; identities hold mod pi_K^{N - slack}
        self.slack = slack
        self.phi = tuple(tuple(map(tuple, m)) for m in phi)
        self._validated = False  # validate passed
        self._splits = {}    # orbit index b -> (step, quotient) of decompose
        for k in range(ctx.d):
            m = self.phi[k]
            rows, cols = self.ranks[ctx.succ(k)], self.ranks[k]
            if len(m) != rows or any(len(r) != cols for r in m):
                raise ParameterError(f"phi block at g = {k} has wrong shape")
            for row in m:
                for e in row:
                    if e.ctx is not ctx.T:
                        raise CtxMismatchError("phi entries must lie in T")

    def validate(self):
        """Check the cycle condition phi^d = pi_K * id at every starting g.

        Raises ValidationError naming the offending starting pieces.  A pass
        is kept, and a second call returns at once.
        """
        if self._validated:
            return
        piK = self.ctx.T.uniformizer
        tol = self.ctx.T.prec - self.slack
        bad = []
        for k, M in enumerate(cycle_composites(self)):
            ok = all((e - piK if i == c else e).ord() >= tol
                     for i, row in enumerate(M) for c, e in enumerate(row))
            if not ok:
                bad.append(k)
        if bad:
            raise ValidationError(
                f"cycle condition phi^d = pi_K fails starting at g in {bad}")
        self._validated = True

    def __eq__(self, other):
        return (isinstance(other, GradedPhiModule) and other.ctx is self.ctx
                and other.ranks == self.ranks
                and other.phi == self.phi)

    def serialize(self):
        return {"ranks": list(self.ranks),
                "phi": [[[e.serialize() for e in row] for row in m]
                        for m in self.phi]}


class ModuleMap:
    """A degree-1 phi-equivariant map of graded modules: per-piece blocks."""

    def __init__(self, source, target, blocks):
        if source.ctx is not target.ctx:
            raise CtxMismatchError("source and target from different contexts")
        self.source = source
        self.target = target
        self.blocks = [[list(row) for row in b] for b in blocks]
        ctx = source.ctx
        for k in range(ctx.d):
            b = self.blocks[k]
            if len(b) != target.ranks[k] or any(len(r) != source.ranks[k]
                                                for r in b):
                raise ParameterError(f"map block at g = {k} has wrong shape")
        if not self.is_equivariant():
            raise ValidationError("map is not phi-equivariant")

    def is_equivariant(self):
        ctx = self.source.ctx
        T = ctx.T
        for k in range(ctx.d):
            lhs = T.matmul(self.blocks[ctx.succ(k)], self.source.phi[k])
            rhs = T.matmul(self.target.phi[k], self.blocks[k])
            if lhs != rhs:
                return False
        return True


# ---------------------------------------------------------------------------
# standard objects and the F/H equivalence

def standard(ctx: TensorRingCtx, h: int) -> GradedPhiModule:
    """F(A (x)_S T * e_h) = ind_{h o sigma_r}(T): all ranks 1, phi = 1 except
    pi_K out of piece h o sigma_r."""
    return ind(ctx, h + ctx.r, 1)


def direct_sum(mods):
    """Direct sum of graded modules over a common ctx."""
    ctx = mods[0].ctx
    T, d = ctx.T, ctx.d
    ranks = [sum(m.ranks[k] for m in mods) for k in range(d)]
    phi = []
    for k in range(d):
        t = ctx.succ(k)
        rows, cols = ranks[t], ranks[k]
        M = linalg.rmat_zero(T, rows, cols)
        ro = co = 0
        for m in mods:
            for i, row in enumerate(m.phi[k]):
                for j, e in enumerate(row):
                    M[ro + i][co + j] = e
            ro += m.ranks[t]
            co += m.ranks[k]
        phi.append(M)
    return GradedPhiModule(ctx, ranks, phi)


def scramble(module: GradedPhiModule, rng) -> GradedPhiModule:
    """An isomorphic copy of `module`: each graded piece, in order, is
    base-changed by a random invertible T-matrix drawn from rng."""
    ctx = module.ctx
    T, d = ctx.T, ctx.d

    def invertible(n):
        while True:
            B = [[T.random(rng) for _ in range(n)] for _ in range(n)]
            try:
                return B, linalg.rmat_inv(B, T)
            except NotInvertibleError:
                continue

    pairs = [invertible(module.ranks[k]) for k in range(d)]
    phi = [T.matmul(pairs[ctx.succ(k)][1], T.matmul(module.phi[k], pairs[k][0]))
           for k in range(d)]
    return GradedPhiModule(ctx, module.ranks, phi)


def H(module: GradedPhiModule):
    """Assemble the left A (x)_S T-module: a free T-module with the actions
    of the idempotents e_g and of x = pi_D (x) 1."""
    ctx = module.ctx
    T, d = ctx.T, ctx.d
    offs = [0]
    for k in range(d):
        offs.append(offs[-1] + module.ranks[k])
    n = offs[-1]
    e_mats = []
    for k in range(d):
        E = linalg.rmat_zero(T, n, n)
        for i in range(offs[k], offs[k + 1]):
            E[i][i] = T.one
        e_mats.append(E)
    X = linalg.rmat_zero(T, n, n)
    for k in range(d):
        t = ctx.succ(k)
        for i, row in enumerate(module.phi[k]):
            for j, e in enumerate(row):
                X[offs[t] + i][offs[k] + j] = e
    return {"ctx": ctx, "n": n, "e": e_mats, "x": X}


def F(om) -> GradedPhiModule:
    """Recover the graded module from an A (x)_S T-module presentation.

    The e_g-action matrices must be orthogonal 0/1 diagonal projections
    summing to the identity (free direct summands in canonical form).
    """
    ctx = om["ctx"]
    T, d = ctx.T, ctx.d
    n = om["n"]
    blocks = []
    seen = set()
    for k in range(d):
        E = om["e"][k]
        idx = {i for i in range(n) if E[i][i] == T.one}
        if any(not E[i][j].is_zero() for i in range(n) for j in range(n)
               if i != j or i not in idx):
            raise RepresentationError(
                "e_g matrices must be 0/1 diagonal projections")
        if seen & idx:
            raise RepresentationError("e_g projections are not orthogonal")
        seen |= idx
        blocks.append(sorted(idx))
    if len(seen) != n:
        raise RepresentationError("e_g projections do not sum to the identity")
    X = om["x"]
    ranks = [len(b) for b in blocks]
    phi = []
    for k in range(d):
        rows = blocks[ctx.succ(k)]
        if any(not X[i][j].is_zero() for i in set(range(n)) - set(rows)
               for j in blocks[k]):
            raise RepresentationError(
                "x-action does not shift degree by sigma_r^{-1}")
        phi.append([[X[i][j] for j in blocks[k]] for i in rows])
    return GradedPhiModule(ctx, ranks, phi)


# ---------------------------------------------------------------------------
# deg / ind adjunction, trd / ird / tr

def ind(ctx: TensorRingCtx, g: int, q: int) -> GradedPhiModule:
    """ind_g(T^q): all ranks q, phi = id except pi_K * id out of piece g."""
    T, d = ctx.T, ctx.d
    g %= d
    ranks = [q] * d
    phi = []
    for k in range(d):
        M = linalg.rmat_id(T, q)
        if k == g:
            M = linalg.rmat_scale(M, T.uniformizer)
        phi.append(M)
    return GradedPhiModule(ctx, ranks, phi)


def deg(module: GradedPhiModule, g: int) -> int:
    """deg_g extracts the free T-module at piece g (reported by rank)."""
    if not 0 <= g < module.ctx.d:
        raise ParameterError(f"degree index g = {g} out of range")
    return module.ranks[g]


def cycle_composites(module: GradedPhiModule):
    """The d composites phi^d around the cycle, indexed by their start
    piece.

    With c = ctx.cycle, the composite out of piece c_j is P_j * Q_j, where
    Q_j = phi[c_{d-1}] ... phi[c_j] and P_j = phi[c_{j-1}] ... phi[c_0]
    (P_0 = id).  The suffix products Q_j and the prefix products P_j are
    each formed once: 3d - 4 matrix products in all for d >= 2, against
    d(d - 1) for d separate composites of d phi-maps.
    """
    ctx = module.ctx
    T, d, c = ctx.T, ctx.d, ctx.cycle
    phi = module.phi
    Q = [None] * d
    Q[d - 1] = phi[c[d - 1]]
    for j in range(d - 2, -1, -1):
        Q[j] = T.matmul(Q[j + 1], phi[c[j]])
    out = [None] * d
    out[c[0]] = Q[0]
    P = None
    for j in range(1, d):
        P = phi[c[0]] if j == 1 else T.matmul(phi[c[j - 1]], P)
        out[c[j]] = T.matmul(P, Q[j])
    return out


def adjoint(module: GradedPhiModule, g: int, f) -> ModuleMap:
    """alpha(f): Hom_T(deg_g P, Q) -> Hom(P, ind_g Q), alpha(f)_h = f o phi^i
    with g = h o sigma_r^{-i}, 0 <= i < d.

    One walk away from g visits each h in the order of i = x_power(g, h).
    phi[h] maps piece h to the piece visited before it, so each block is the
    previous one times phi[h]: d - 1 products of q-row matrices.
    """
    ctx = module.ctx
    T, d = ctx.T, ctx.d
    g %= d
    if any(len(row) != module.ranks[g] for row in f):
        raise ParameterError("adjoint argument must be a map out of deg_g")
    blocks = [None] * d
    blocks[g] = M = f
    for h in sorted(range(d), key=lambda h: ctx.x_power(g, h))[1:]:
        blocks[h] = M = T.matmul(M, module.phi[h])
    return ModuleMap(module, ind(ctx, g, len(f)), blocks)


def trd(module: GradedPhiModule) -> int:
    """Module-level reduced trace: deg_1 (the identity component)."""
    return deg(module, 0)


def tr(module: GradedPhiModule) -> int:
    """Module-level trace: the direct sum of all graded pieces."""
    return sum(module.ranks)


def ird(ctx: TensorRingCtx, q: int):
    """Ird(T^q) = H(ind_1(T^q)) as an A (x)_S T-module presentation."""
    return H(ind(ctx, 0, q))


# ---------------------------------------------------------------------------
# decomposition into standards (the Addendum induction)

def _vec_ord(v, prec):
    return min((c.ord() for c in v), default=prec)


def decompose(module: GradedPhiModule, rule="min"):
    """Split a projective of size r into standard size-1 objects.

    Returns a list of steps, each with the label h of the split-off standard
    F(A (x)_S T * e_h), the cycle scalars of the size-1 sub-object, and the
    per-piece change-of-basis witnesses.  Each change of basis is elementary
    (one identity column replaced by a saturated orbit vector), so each
    quotient is a rank-one update of phi.  The label multiset realizes the
    Krull-Schmidt decomposition.

    Each split is kept by the (immutable) module it was taken from, so a
    second call (under either rule) returns the same step dicts where it
    splits along the same orbits; the library never mutates a step.
    """
    module.validate()
    size = module.ranks[0]
    if any(n != size for n in module.ranks):
        raise ParameterError("decomposition needs equal ranks (projective of "
                             "constant size)")
    steps = []
    current = module
    for _ in range(size):
        step, current = _split_one(current, rule)
        steps.append(step)
    return steps


def _orbit(module: GradedPhiModule, b: int):
    """The phi-orbit of basis vector b of piece 0 along the cycle: d vectors."""
    ctx = module.ctx
    T = ctx.T
    x = [T.one if i == b else T.zero for i in range(module.ranks[0])]
    vecs = [x]
    for j in range(ctx.d - 1):
        vecs.append(linalg.rmat_vec(module.phi[ctx.cycle[j]], vecs[-1], T))
    return vecs


def _split_one(module: GradedPhiModule, rule):
    """Split one size-1 sub-object off `module`: (step, quotient).

    `rule` picks the orbit index b: "first" takes 0, "min" the first b whose
    orbit has the least sum of valuations.  The split along b is kept by
    the module (`_split_along`).
    """
    size, prec = module.ranks[0], module.ctx.T.prec
    if rule == "min":
        orbits = [_orbit(module, b) for b in range(size)]
        b = min(range(size),
                key=lambda b: sum(_vec_ord(v, prec) for v in orbits[b]))
    elif rule == "first":
        orbits, b = None, 0
    else:
        raise ParameterError(f"unknown selection rule {rule!r}")
    splits = module._splits
    if b not in splits:
        splits[b] = _split_along(module, orbits[b] if orbits else _orbit(module, b))
    return splits[b]


def _split_along(module: GradedPhiModule, vecs):
    """Split off the sub-object spanned by the saturated phi-orbit `vecs`:
    (step, quotient).

    The change of basis is elementary and inverted in closed form; the
    quotient's phi is a rank-one update of the module's phi.
    """
    ctx = module.ctx
    T, d = ctx.T, ctx.d
    prec = T.prec
    size = module.ranks[0]
    cycle = ctx.cycle  # pieces visited by the phi-orbit out of piece 1

    sat = []
    vmax = 0
    for v in vecs:
        w = _vec_ord(v, prec)
        if module.slack + w > prec // 2:
            raise PrecisionError("saturation exceeds the N/2 precision guard")
        vmax = max(vmax, w)
        sat.append([c.shift_down(w) for c in v])
    # everything below is only representable modulo pi_K^eff
    eff = prec - module.slack - vmax

    # cycle scalars: phi[k_j] x'_j = lambda_j x'_{j+1}
    units = [next(i for i, c in enumerate(s) if c.is_unit()) for s in sat]
    unit_inv = [s[u].inv() for s, u in zip(sat, units)]
    lambdas = [None] * d
    for j in range(d):
        w = linalg.rmat_vec(module.phi[cycle[j]], sat[j], T)
        j1 = (j + 1) % d
        lam = w[units[j1]] * unit_inv[j1]
        if any((a - lam * b).ord() < eff for a, b in zip(w, sat[j1])):
            raise ValidationError("phi-orbit does not span a size-1 "
                                  "sub-object; input is not projective")
        lambdas[j] = lam

    ords = [lam.ord() for lam in lambdas]
    if sum(ords) != 1 or ords.count(1) != 1:
        raise ValidationError("size-1 factor has cycle-scalar valuations "
                              f"{ords}; expected a single non-isomorphism of "
                              "cokernel length 1")
    j0 = ords.index(1)
    g0 = cycle[j0]            # source piece of the non-iso, g0 = h o sigma_r
    label = ctx.succ(g0)      # the standard's label h

    # basis[k] is the identity with column units[j] replaced by sat[j],
    # moved to the front.  With s, u, v = sat, unit slot and s[u]^{-1} at
    # the target piece, basis[t]^{-1} phi[k] basis[k] has first column
    # (lambda_j, w - lambda_j * s), checked above, and lower-right block
    # phi[k][i][c] - (phi[k][u][c] * v) * s[i] for i != u, c != units[j].
    basis = [None] * d
    new_phi = [None] * d
    for j, k in enumerate(cycle):
        j1 = (j + 1) % d
        s, u, v = sat[j1], units[j1], unit_inv[j1]
        keep = [c for c in range(size) if c != units[j]]
        basis[k] = [[sat[j][i]] + [T.one if i == c else T.zero for c in keep]
                    for i in range(size)]
        phi = module.phi[k]
        coef = [phi[u][c] * v for c in keep]
        new_phi[k] = [[phi[i][c] - a * s[i] for c, a in zip(keep, coef)]
                      for i in range(size) if i != u]

    quotient = GradedPhiModule(ctx, [size - 1] * d, new_phi,
                               slack=module.slack + vmax)
    if size > 1:
        quotient.validate()
    step = {"label": label, "lambdas": lambdas, "basis": basis,
            "orbit_unit_slots": units}
    return step, quotient


def labels_multiset(steps):
    return sorted(s["label"] for s in steps)
