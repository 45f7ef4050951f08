"""Deterministic verification suites driven by the CLI.

Each suite derives an independent RNG stream from (seed, suite name), so
running suites in any order or in parallel yields identical reports.  `run`
builds the contexts (S, T, A, A (x)_S T) of a config once, before any suite,
so a parameter error precedes every suite, and hands them to each suite.
Within a loop of checks each shared operand (a product such as a*b, an
image such as F(x)) is formed once and read by every check that needs it.
The --inject-fault hooks deliberately corrupt one value inside a suite so
the test harness can prove the suites are non-vacuous.
"""

from __future__ import annotations

import time

import random

from . import algebra as almod
from . import linalg
from . import localring as lr
from . import modcat
from . import tensor as tnmod
from . import witt as wmod
from .errors import InternalError, ParameterError, ValidationError

SCHEMA = "hasse-order-report/1"

FAULTS = ("ff.mul", "local.sigma", "witt.fv", "algebra.nrd", "tensor.idem",
          "modcat.cycle")


def _ser(v):
    """v with its elements serialized: lists entrywise, at any depth; a
    value without `serialize` as it is."""
    if isinstance(v, list):
        return [_ser(x) for x in v]
    return v.serialize() if hasattr(v, "serialize") else v


class Recorder:
    def __init__(self, name):
        self.name = name
        self.cases = 0
        self.failures = []

    def check(self, case, ok, expected="", got=""):
        """Count a case; on failure record both values, serialized."""
        self.cases += 1
        if not ok:
            self.failures.append({"case": case, "expected": str(_ser(expected)),
                                  "got": str(_ser(got))})

    def check_eq(self, case, expected, got):
        """check(got == expected), recording both sides."""
        self.check(case, got == expected, expected, got)

    def report(self):
        return {"name": self.name, "cases": self.cases,
                "failures": self.failures}


def _inverse(rec, case, one, x):
    """x.inv(), or None after recording a failure of `case` (expected
    `one`, got the message) when the inverse fails its own check."""
    try:
        return x.inv()
    except InternalError as ex:
        rec.check(case, False, one, str(ex))
        return None


def _contexts(cfg):
    """(S, T, A, A (x)_S T) for a config with keys p, f, d, r, N, mode;
    the twist r is 0 when d = 1."""
    S = lr.base_ring(cfg["p"], cfg["f"], cfg["N"], cfg["mode"])
    T = lr.unramified(S, cfg["d"])
    r = cfg["r"] if cfg["d"] > 1 else 0
    return S, T, almod.make(T, r), tnmod.make(T, r)


# ---------------------------------------------------------------------------

def suite_finite_field(cfg, ctxs, rng, fault):
    rec = Recorder("finite_field")
    p = cfg["p"]
    for m in (cfg["f"], cfg["f"] * cfg["d"]):
        F = lr.residue_field(p, m)
        for i in range(200):
            a, b, c = F.random(rng), F.random(rng), F.random(rng)
            ab = a * b
            if fault == "ff.mul" and i == 0:
                ab = ab + F.one
            rec.check_eq(f"assoc m={m}", a * (b * c), ab * c)
            rec.check_eq(f"distrib m={m}", a * b + a * c, a * (b + c))
            if not a.is_zero():
                iv = _inverse(rec, f"inverse m={m}", F.one, a)
                if iv is not None:
                    rec.check_eq(f"inverse m={m}", F.one, a * iv)
                rec.check_eq(f"unit-order m={m}", F.one, a ** (p ** m - 1))
        # the Frobenius (a linear map) against the power map x -> x^(p^k)
        for _ in range(50):
            a, b = F.random(rng), F.random(rng)
            fa, fb = F.frobenius_p(a), F.frobenius_p(b)
            rec.check_eq(f"frob-add m={m}", (a + b) ** p, fa + fb)
            rec.check_eq(f"frob-mul m={m}", (a * b) ** p, fa * fb)
            rec.check_eq(f"frob-order m={m}", [a ** p ** (m - 1), a],
                         [F.frobenius_p(a, m - 1), a ** p ** m])
    return rec.report()


def _fixed_log_size(T):
    """log_p of the number of fixed points of sigma on T: the kernel size
    of sigma - id, from its columns on the unit vectors."""
    cols = []
    for i in range(T.zp_rank):
        v = [0] * T.zp_rank
        v[i] = 1
        e = T.from_vec(v)
        cols.append(T.to_vec(T.frobenius(e, 1) - e))
    return linalg.kernel_log_size(cols, T.p, T.e)


def suite_local_ring(cfg, ctxs, rng, fault):
    rec = Recorder("local_ring")
    S, T, _, _ = ctxs
    N = cfg["N"]
    for _ in range(100):
        x, y = T.random(rng), T.random(rng)
        xy, xpy, sx, sy = x * y, x + y, T.frobenius(x, 1), T.frobenius(y, 1)
        if not (x.is_zero() or y.is_zero()):
            rec.check_eq("ord-mul", min(x.ord() + y.ord(), N), xy.ord())
        low, o = min(x.ord(), y.ord()), xpy.ord()
        rec.check("ord-add", o >= low, low, o)
        if fault == "local.sigma":
            sx = sx + T.one
            fault = None
        rec.check_eq("sigma-add", T.frobenius(xpy, 1), sx + sy)
        rec.check_eq("sigma-mul", T.frobenius(xy, 1), sx * sy)
        # sigma^d by d applications of sigma: frobenius reduces k mod d
        sdx = x
        for _ in range(T.d):
            sdx = T.frobenius(sdx, 1)
        rec.check_eq("sigma-order", x, sdx)
        tr, nm = T.trace_rel(x), T.norm_rel(x)
        rec.check_eq("trace-in-S", tr, T.frobenius(tr, 1))
        rec.check_eq("norm-in-S", nm, T.frobenius(nm, 1))
        if x.is_unit():
            iv = _inverse(rec, "inv", T.one, x)
            if iv is not None:
                rec.check_eq("inv", T.one, x * iv)
    if T.d > 1 and T.n == 1:
        # sigma lifts the q-power Frobenius, not another generator of Gal(T/S)
        rec.check_eq("hensel", T.residue_of(T.gen) ** (T.p ** T.f),
                     T.residue_of(T.frobenius(T.gen, 1)))
    # fixed points of sigma = embedded S, by kernel size of (sigma - id)
    rec.check_eq("fixed-points", cfg["f"] * N, _fixed_log_size(T))
    for _ in range(20):
        e = T.embed_base(S.random(rng))
        rec.check_eq("embed-fixed", e, T.frobenius(e, 1))
        a = T.residue_of(T.random(rng))
        y = T.teich(a)
        rec.check_eq("teich-residue", a, T.residue_of(y))
        rec.check_eq("teich-stable", y, y ** (T.p ** T.m))
    return rec.report()


def suite_witt(cfg, ctxs, rng, fault):
    rec = Recorder("witt")
    p = cfg["p"]
    S = lr.base_ring(p, cfg["f"], min(cfg["N"], 6), cfg["mode"])
    # case label -> coefficient ring; "zmod" is Z/p^6, "ff" is F_{p^2}
    coeffs = {"zmod": lr.base_ring(p, 1, 6), "ff": lr.residue_field(p, 2),
              "local": S}
    for kind, R in coeffs.items():
        for n in (2, 3, 4):
            W = wmod.WittCtx(n, R)
            for i in range(8):
                x, y, z = W.random(rng), W.random(rng), W.random(rng)
                xy, fx, ry = x * y, x.frobenius(), y.restriction()
                gx, gy = W.ghost(x), W.ghost(y)
                gsum = W.ghost(x + y)
                gprod = W.ghost(xy)
                rec.check_eq(f"ghost-add {kind} n={n}",
                             [a + b for a, b in zip(gx, gy)], gsum)
                rec.check_eq(f"ghost-mul {kind} n={n}",
                             [a * b for a, b in zip(gx, gy)], gprod)
                rec.check_eq(f"assoc {kind} n={n}", xy * z, x * (y * z))
                rec.check_eq(f"distrib {kind} n={n}", x * (y + z), xy + x * z)
                rec.check_eq(f"F-hom {kind} n={n}",
                             xy.frobenius(), fx * y.frobenius())
                fv = x.verschiebung().frobenius()
                if fault == "witt.fv" and i == 0:
                    fv = fv + W.one
                px = W.zero
                for _ in range(p):
                    px = px + x
                rec.check_eq(f"FV=p {kind} n={n}", px, fv)
                rec.check_eq(f"projection {kind} n={n}", x * ry.verschiebung(),
                             (fx * ry).verschiebung())
                a = R.random(rng)
                b = R.random(rng)
                ta = W.teich(a)
                rec.check_eq(f"teich-mul {kind} n={n}",
                             ta * W.teich(b), W.teich(a * b))
                rec.check_eq(f"F-teich {kind} n={n}",
                             ta.frobenius(), W.resize(n - 1).teich(a ** p))
    # identities over S needing valuations
    for n in (2, 3, 4):
        W = wmod.WittCtx(n, S)
        for _ in range(8):
            a = W.random(rng)
            diff = a.frobenius() - a.restriction().map_coords(lambda c: c ** p)
            ords = [c.ord() for c in diff.coords]
            rec.check(f"F=R^p n={n}", min(ords) >= 1, 1, ords)
        piK = S.uniformizer
        for m in (1, 2, 3, 4):
            a = W.vec([S.random(rng) * piK ** m for _ in range(n)])
            fa = a.frobenius()
            # a zero coordinate lies in every power of the maximal ideal
            rec.check(f"F-filtration n={n} m={m}",
                      all(c.is_zero() or c.ord() >= m + 1 for c in fa.coords),
                      m + 1, [c.ord() for c in fa.coords])
        # iterated F raises the valuation filtration: after n-1 steps the
        # single remaining coordinate lies in m^n (zero once n >= prec)
        v = W.vec([S.random(rng) * piK for _ in range(n)])
        for _ in range(n - 1):
            v = v.frobenius()
        ords = [c.ord() for c in v.coords]
        rec.check(f"F-kill n={n}", min(ords) >= min(n, S.prec), min(n, S.prec), ords)
    # Galois fixed points on W_n(T), d in {2, 3}
    for dd in (2, 3):
        T = lr.unramified(lr.base_ring(p, cfg["f"], 4, cfg["mode"]), dd)
        Sd = T.base
        klog = _fixed_log_size(T)
        for n in (2, 3):
            W = wmod.WittCtx(n, T)
            WS = wmod.WittCtx(n, Sd)
            for _ in range(5):
                a = WS.random(rng)
                emb = W.vec([T.embed_base(c) for c in a.coords])
                rec.check_eq(f"galois-embed-fixed d={dd} n={n}", emb,
                             emb.map_coords(lambda c: T.frobenius(c, 1)))
                fe = emb.frobenius()
                rec.check_eq(f"galois-F-equivariant d={dd} n={n}", fe,
                             fe.map_coords(lambda c: T.frobenius(c, 1)))
            # coordinatewise action: fixed set size is (size of S)^n
            rec.check_eq(f"galois-rank d={dd} n={n}", n * cfg["f"] * 4, n * klog)
    # re-indexing over k_S: phi^n bijective, F = W(phi) o R in char p
    kS = lr.residue_field(p, cfg["f"])
    for n in (2, 3, 4):
        W = wmod.WittCtx(n, kS)
        for _ in range(8):
            a = W.random(rng)
            img = a.map_coords(lambda c: kS.frobenius_p(c, n))
            back = img.map_coords(lambda c: kS.frobenius_p(c, -n))
            rec.check_eq(f"reindex-bijective n={n}", a, back)
            fa = a.frobenius()
            rec.check_eq(f"F=WphiR n={n}", fa,
                         a.restriction().map_coords(lambda c: c ** p))
            rec.check_eq(f"reindex-F n={n}",
                         fa.map_coords(lambda c: kS.frobenius_p(c, n)), img.frobenius())
    return rec.report()


def suite_algebra(cfg, ctxs, rng, fault):
    rec = Recorder("algebra")
    S, T, A, _ = ctxs
    d, N = A.d, A.prec
    for i in range(60):
        a, b, c = A.random(rng), A.random(rng), A.random(rng)
        ab = a * b
        rec.check_eq("assoc", a * (b * c), ab * c)
        rec.check_eq("distrib", ab + a * c, a * (b + c))
        rec.check_eq("embed-mul", T.matmul(a.embed(), b.embed()), ab.embed())
        if not (a.is_zero() or b.is_zero()):
            oa, ob = a.ord(), b.ord()
            if oa + ob <= d * (N - 1):
                rec.check_eq("ord-mul", oa + ob, ab.ord())
    for i in range(60):
        a = A.random(rng)
        trd, nrd = a.trd_nrd()
        if fault == "algebra.nrd" and i == 0:
            nrd = nrd + S.one
        tr, nm = a.full_norm_trace()
        rec.check_eq("Nrd^d=N", nm, nrd ** d)
        rec.check_eq("d*Trd=Tr", trd.scale(d), tr)
        if a.ord() <= d * (N - 2):
            rec.check_eq("ord=vK(Nrd)", nrd.ord(), a.ord())
            iv = _inverse(rec, "inv", A.one, a)
            if iv is not None:
                left, right = a * iv, iv * a
                rec.check("inv", (left - A.one).is_zero() and (right - A.one).is_zero(),
                          [A.one, A.one], [left, right])
    piD = A.pi_D
    rec.check_eq("piD^d=piK", A.from_T(T.uniformizer), piD ** d)
    # twist and conjugation of exact order d on T
    for j in range(T.zp_rank):
        v = [0] * T.zp_rank
        v[j] = 1
        t = A.from_T(T.from_vec(v))
        rec.check_eq("twist", A.from_T(T.frobenius(T.from_vec(v), A.r)),
                     t.conjugate_by(piD))
    t = A.from_T(T.gen)
    c = t
    order = 0
    for k in range(1, d + 1):
        c = c.conjugate_by(piD)
        if c == t and order == 0:
            order = k
    rec.check_eq("conj-order", d, order)
    for _ in range(20):
        pi = A.random(rng)
        a = A.random(rng)
        if pi.is_zero() or a.is_zero():
            continue
        if pi.ord() > d * (N - 2):
            continue
        rec.check_eq("conj-ord-preserving", a.ord(), a.conjugate_by(pi).ord())
    return rec.report()


def u_mul(TO, a, b):
    """Oracle product of u-coefficient lists in T[u]/(G): schoolbook, then
    reduction by the monic G."""
    T, d, G = TO.T, TO.d, TO.G
    out = [T.zero] * (2 * d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    for k in range(2 * d - 2, d - 1, -1):
        c = out[k]
        for i in range(d + 1):
            out[k - d + i] = out[k - d + i] - c * G[i]
    return out[:d]


def u_eval(TO, a):
    """Oracle w-components of a u-polynomial: its values at the roots
    sigma^k(theta) of G."""
    return [TO.T._horner(a, rt) for rt in TO.roots]


def u_sigma_left(TO):
    """Oracle sigma (x) id on u-coefficients, as a function of them: u =
    theta (x) 1 goes to sigma(theta) (x) 1, written in the u-basis through
    the S-coordinates of sigma(theta); the coefficients (the right factor)
    stay.  The map is T-linear in the u-coefficients: its d x d matrix has
    the columns sigma(theta)^k in the u-basis, taken here by u_mul."""
    T = TO.T
    img = [T.embed_base(s) for s in T.rel_coords(T.frobenius(T.gen, 1))]
    cols = [[T.one] + [T.zero] * (TO.d - 1)]
    for _ in range(1, TO.d):
        cols.append(u_mul(TO, cols[-1], img))
    M = [list(row) for row in zip(*cols)]
    return lambda a: linalg.rmat_vec(M, a, T)


def suite_tensor(cfg, ctxs, rng, fault):
    rec = Recorder("tensor")
    S, T, A, TO = ctxs
    d = TO.d
    # T (x)_S T computes in components; each check below compares it with
    # the u-basis oracle (u_mul, u_eval, u_sigma_left)
    sigma_left = u_sigma_left(TO)
    us = [e.u_coeffs() for e in TO.idempotents]
    total = [T.zero] * d
    for k, e in enumerate(TO.idempotents):
        ek = e
        if fault == "tensor.idem" and k == 0:
            ek = ek + TO.one
        uk = ek.u_coeffs()
        total = [a + b for a, b in zip(total, uk)]
        rec.check_eq("idem-square", uk, u_mul(TO, uk, uk))
        rec.check_eq("w-delta", [T.one if j == k else T.zero for j in range(d)],
                     u_eval(TO, uk))
    rec.check_eq("idem-sum", [T.one] + [T.zero] * (d - 1), total)
    for j in range(d):
        for k in range(j + 1, d):
            rec.check_eq("idem-orth", [T.zero] * d, u_mul(TO, us[j], us[k]))
    # w is a ring isomorphism; sigma (x) id permutes components
    for _ in range(40):
        x, y = TO.random(rng), TO.random(rng)
        ux, uy = x.u_coeffs(), y.u_coeffs()
        rec.check_eq("w-roundtrip", x, TO.elem(ux))
        uxy = u_mul(TO, ux, uy)
        rec.check_eq("w-mul", uxy, (x * y).u_coeffs())
        rec.check_eq("sigma-left-hom", sigma_left(uxy),
                     (x.sigma_left() * y.sigma_left()).u_coeffs())
    for k in range(d):
        e = TO.idempotents[k]
        # each side of a chained equality against its last term
        want = us[(k - 1) % d]
        rec.check_eq("sigma-idem", [want, want],
                     [e.sigma_left().u_coeffs(), sigma_left(us[k])])
        want = us[(k + 1) % d]
        rec.check_eq("sigma-right-idem", [want, want],
                     [e.sigma_right(1).u_coeffs(),
                      [T.frobenius(c, 1) for c in us[k]]])
    # order relations and embedding
    rec.check_eq("x^d=piK", TO.order_scalar(TO.right(T.uniformizer)), TO.x_elem ** d)
    for h in range(d):
        rec.check_eq("x-past-e", TO.order_idempotent((h - TO.r) % d) * TO.x_elem,
                     TO.x_elem * TO.order_idempotent(h))
    for _ in range(20):
        a, b = A.random(rng), A.random(rng)
        rec.check_eq("order-compat", TO.order_from_D(a * b),
                     TO.order_from_D(a) * TO.order_from_D(b))
        z, w = TO.order_random(rng), TO.order_random(rng)
        M = TO.embed_l(z)
        rec.check_eq("l-hom", TO.embed_l(z * w),
                     T.matmul(M, TO.embed_l(w)))
        rec.check("milnor-member", TO.milnor_member(M),
                  "lower triangular mod m_T", M)
        try:
            back = TO.embed_l(TO.milnor_preimage(M))
        except (InternalError, ParameterError) as ex:
            back = repr(ex)
        rec.check_eq("milnor-roundtrip", M, back)
    # image mod m_T spans the lower-triangular algebra; radical the strict part
    lattice = TO.milnor_lattice()
    span_rows = TO.residue_rows(lattice)
    rad_rows = TO.residue_rows([TO.x_elem * b for b in lattice])
    rec.check_eq("milnor-dim", d * (d + 1) // 2, len(linalg.echelon_basis(span_rows)))
    rec.check_eq("radical-dim", d * (d - 1) // 2, len(linalg.echelon_basis(rad_rows)))
    for rows, strict in ((span_rows, False), (rad_rows, True)):
        # (row, j, s) of each nonzero residue entry above (or on) the diagonal
        bad = [(n, j, s) for n, vec in enumerate(rows)
               for j in range(d) for s in range(d)
               if (s > j or (strict and s == j)) and not vec[j * d + s].is_zero()]
        rec.check_eq("triangular-shape" + ("-strict" if strict else ""), [], bad)
    # Peirce pattern
    for h in range(d):
        cnt = 0
        for g in range(d):
            try:
                info = TO.peirce(g, h)
            except InternalError as ex:
                rec.check_eq("peirce-cokernel-len", 1, repr(ex))
                continue
            if info["cokernel_length"]:
                cnt += 1
                rec.check_eq("peirce-cokernel-len", 1, info["cokernel_length"])
                rec.check_eq("peirce-position", 0, (g - h - TO.r) % d)
        rec.check_eq("peirce-one-per-column", 1, cnt)
    return rec.report()


def suite_modcat(cfg, ctxs, rng, fault):
    rec = Recorder("modcat")
    S, T, A, TO = ctxs
    d = TO.d
    piK = T.uniformizer

    for i in range(30):
        labels = sorted(rng.randrange(d) for _ in range(rng.randrange(1, 4)))
        mod = modcat.scramble(modcat.direct_sum(
            [modcat.standard(TO, h) for h in labels]), rng)
        if fault == "modcat.cycle" and i == 0:
            mod = modcat.GradedPhiModule(
                TO, mod.ranks, [linalg.rmat_scale(mod.phi[0], piK), *mod.phi[1:]])
        try:
            mod.validate()
            err = None
        except ValidationError as ex:
            err = str(ex)
        rec.check("cycle", err is None, "phi^d = pi_K", err)
        if err is not None:
            continue
        rec.check_eq("FH-roundtrip", mod, modcat.F(modcat.H(mod)))
        for rule in ("min", "first"):
            try:
                got = modcat.labels_multiset(modcat.decompose(mod, rule=rule))
            except Exception as ex:
                rec.check(f"decompose-{rule}", False, labels, repr(ex))
                continue
            rec.check_eq(f"decompose-{rule}", labels, got)
    # adjunction
    for _ in range(15):
        labels = [rng.randrange(d) for _ in range(rng.randrange(1, 3))]
        mod = modcat.scramble(modcat.direct_sum(
            [modcat.standard(TO, h) for h in labels]), rng)
        g = rng.randrange(d)
        q = rng.randrange(1, 3)
        f = [[T.random(rng) for _ in range(mod.ranks[g])] for _ in range(q)]
        try:
            al = modcat.adjoint(mod, g, f)
            err = None
        except ValidationError as ex:
            err = str(ex)
        rec.check("adjoint-equivariant", err is None, "equivariant", err)
        if err is not None:
            continue
        rec.check_eq("adjoint-restriction", f, al.blocks[g])
        # the unit alpha(id): its block at h is phi along the succ-walk from
        # h to g, whose determinant has one pi_K for each summand whose pi_K
        # edge, out of piece e = (l + r) mod d, the walk passes before g
        unit = modcat.adjoint(mod, g, linalg.rmat_id(T, mod.ranks[g]))
        edges = [(l + TO.r) % d for l in labels]
        rec.check_eq("adjoint-unit",
                     [min(sum(TO.x_power(e, h) < TO.x_power(g, h) for e in edges), T.prec)
                      for h in range(d)],
                     [linalg.det(b, T).ord() for b in unit.blocks])
    # trd / ird / tr ranks
    for q in (1, 2, 3):
        P = modcat.F(modcat.ird(TO, q))
        rec.check_eq("tr-rank", d * q, modcat.tr(P))
        rec.check_eq("trd-iso", q, modcat.trd(P))
    return rec.report()


SUITES = {
    "finite_field": suite_finite_field,
    "local_ring": suite_local_ring,
    "witt": suite_witt,
    "algebra": suite_algebra,
    "tensor": suite_tensor,
    "modcat": suite_modcat,
}


def run(cfg, suite_names=None, fault=None):
    """Run the selected suites on one build of the contexts; returns the
    versioned report dict.  An unknown suite or fault name (a falsy fault
    is none) raises ParameterError before anything is built."""
    names = list(SUITES) if not suite_names else list(suite_names)
    for name in names:
        if name not in SUITES:
            raise ParameterError(f"unknown suite {name!r}")
    if fault and fault not in FAULTS:
        raise ParameterError(f"unknown fault {fault!r}")
    t0 = time.time()
    ctxs = _contexts(cfg)
    results = []
    for name in names:
        rng = random.Random(f"{cfg['seed']}:{name}")
        results.append(SUITES[name](cfg, ctxs, rng, fault))
    return {
        "schema": SCHEMA,
        "params": dict(cfg, r=ctxs[2].r),
        "fault": fault,
        "suites": results,
        "wall_time": round(time.time() - t0, 3),
    }


def total_failures(report):
    return sum(len(s["failures"]) for s in report["suites"])
