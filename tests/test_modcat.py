import random

import pytest

from hasseorder import algebra, linalg, modcat, suites, tensor
from hasseorder import localring as lr
from hasseorder.errors import ParameterError, RepresentationError, ValidationError


def make(p=3, f=1, d=2, r=1, N=8, mode=lr.MIXED):
    S = lr.base_ring(p, f, N, mode)
    T = lr.unramified(S, d)
    r = r if d > 1 else 0
    return S, T, tensor.make(T, r)


CONFIGS = ((3, 2, 1, lr.MIXED), (5, 3, 1, lr.MIXED), (5, 3, 2, lr.MIXED),
           (3, 4, 1, lr.MIXED), (3, 2, 1, lr.EQUAL))


def phi_composite(module, start, steps):
    """Oracle: the composite of `steps` phi-maps out of piece `start`."""
    ctx = module.ctx
    if steps == 0:
        return linalg.rmat_id(ctx.T, module.ranks[start])
    M = module.phi[start]
    cur = ctx.succ(start)
    for _ in range(steps - 1):
        M = ctx.T.matmul(module.phi[cur], M)
        cur = ctx.succ(cur)
    return M


def corrupt_first_block(mod, s):
    """The module with phi[0] scaled by s and the other blocks kept."""
    return modcat.GradedPhiModule(
        mod.ctx, mod.ranks, [linalg.rmat_scale(mod.phi[0], s), *mod.phi[1:]])


def test_standard_is_the_hand_built_module():
    # F(A (x)_S T e_h): ranks 1, phi = 1 except pi_K out of piece (h + r) mod d
    for (p, d, r, mode) in CONFIGS + ((3, 1, 0, lr.MIXED),):
        S, T, TO = make(p=p, d=d, r=r, mode=mode)
        for h in range(-1, d + 1):
            g0 = (h + TO.r) % d
            want = modcat.GradedPhiModule(
                TO, [1] * d, [[[T.uniformizer if k == g0 else T.one]] for k in range(d)])
            assert modcat.standard(TO, h) == want
            assert modcat.standard(TO, h).serialize() == want.serialize()


def test_standard_validates():
    for (p, d, r, mode) in CONFIGS:
        S, T, TO = make(p=p, d=d, r=r, mode=mode)
        for h in range(d):
            mod = modcat.standard(TO, h)
            mod.validate()


def test_invalid_phi_detected():
    S, T, TO = make()
    mod = corrupt_first_block(modcat.standard(TO, 0), T.uniformizer)
    with pytest.raises(ValidationError):
        mod.validate()


def test_bad_shapes_rejected():
    S, T, TO = make()
    with pytest.raises(ParameterError):
        modcat.GradedPhiModule(TO, [1], [[[T.one]]])


def test_fh_roundtrip():
    rng = random.Random(0)
    for (p, d, r, mode) in CONFIGS:
        S, T, TO = make(p=p, d=d, r=r, mode=mode)
        for _ in range(10):
            labels = [rng.randrange(d) for _ in range(rng.randrange(1, 4))]
            mod = modcat.scramble(modcat.direct_sum(
                [modcat.standard(TO, h) for h in labels]), rng)
            assert modcat.F(modcat.H(mod)) == mod


def test_f_rejects_bad_presentations():
    S, T, TO = make()
    om = modcat.H(modcat.direct_sum([modcat.standard(TO, h) for h in (0, 1)]))

    def broken(key, k, i, j, value):
        out = dict(om, e=[[row[:] for row in E] for E in om["e"]],
                   x=[row[:] for row in om["x"]])
        M = out["x"] if key == "x" else out["e"][k]
        M[i][j] = value
        return out

    two = T.from_int(2)
    for bad, msg in ((broken("e", 0, 0, 1, T.one), "0/1 diagonal"),
                     (broken("e", 0, 0, 0, two), "0/1 diagonal"),
                     (broken("e", 1, 0, 0, T.one), "not orthogonal"),
                     (broken("e", 0, 0, 0, T.zero), "sum to the identity"),
                     (broken("x", 0, 0, 0, T.one), "shift degree")):
        with pytest.raises(RepresentationError, match=msg):
            modcat.F(bad)


def test_decompose_recovers_labels():
    rng = random.Random(1)
    for (p, d, r, mode) in CONFIGS:
        S, T, TO = make(p=p, d=d, r=r, mode=mode)
        for _ in range(8):
            labels = sorted(rng.randrange(d)
                            for _ in range(rng.randrange(1, 4)))
            mod = modcat.scramble(modcat.direct_sum(
                [modcat.standard(TO, h) for h in labels]), rng)
            for rule in ("min", "first"):
                steps = modcat.decompose(mod, rule=rule)
                assert modcat.labels_multiset(steps) == labels


def test_decompose_rejects_corrupt_module():
    S, T, TO = make()
    mod = corrupt_first_block(modcat.standard(TO, 0), T.uniformizer)
    with pytest.raises(ValidationError):
        modcat.decompose(mod)


def test_validate_reruns_after_phi_changes(monkeypatch):
    rng = random.Random(5)
    S, T, TO = make(d=3)
    calls = []
    composites = modcat.cycle_composites

    def spy(module):
        out = composites(module)
        calls.extend(out)
        return out
    monkeypatch.setattr(modcat, "cycle_composites", spy)
    mod = modcat.scramble(modcat.direct_sum(
        [modcat.standard(TO, h) for h in (0, 2)]), rng)
    mod.validate()
    assert len(calls) == 3
    # the kept pass, and decompose's own check is free
    mod.validate()
    assert len(calls) == 3
    modcat.decompose(mod)
    done = len(calls)
    # phi is frozen: an entry cannot be changed in place
    with pytest.raises(TypeError):
        mod.phi[1][0][1] = mod.phi[1][0][1] + T.uniformizer ** 2 * T.gen
    mod.validate()
    assert len(calls) == done
    # a module built from the changed phi checks its own composites
    phi = [[list(row) for row in m] for m in mod.phi]
    phi[1][0][1] = phi[1][0][1] + T.uniformizer ** 2 * T.gen
    changed = modcat.GradedPhiModule(TO, mod.ranks, phi)
    with pytest.raises(ValidationError):
        changed.validate()
    assert len(calls) == done + 3
    # and none of the splits of the module it came from
    for rule in ("min", "first"):
        with pytest.raises(ValidationError):
            modcat.decompose(changed, rule=rule)
    with pytest.raises(ValidationError):
        changed.validate()


def test_cycle_composites_match_phi_composite():
    """The composites from shared prefix and suffix products equal d
    separate phi_composite calls, for blocks of unequal ranks."""
    rng = random.Random(11)
    for mode in (lr.MIXED, lr.EQUAL):
        for d, r in ((1, 0), (2, 1), (3, 2), (4, 3), (5, 2)):
            S, T, TO = make(d=d, r=r, N=4, mode=mode)
            ranks = [rng.randrange(1, 4) for _ in range(d)]
            phi = [[[T.random(rng) for _ in range(ranks[k])]
                    for _ in range(ranks[TO.succ(k)])] for k in range(d)]
            mod = modcat.GradedPhiModule(TO, ranks, phi)
            assert modcat.cycle_composites(mod) == [
                phi_composite(mod, k, d) for k in range(d)]


def test_decompose_under_a_second_rule_matches_a_fresh_one():
    """decompose under one rule after the other (which stores its splits)
    gives what a fresh copy of the module gives under that rule alone."""
    rng = random.Random(7)
    for (p, d, r, mode) in CONFIGS:
        S, T, TO = make(p=p, d=d, r=r, mode=mode)
        for first, second in (("min", "first"), ("first", "min")):
            for size in (1, 2, 3):
                mod = modcat.scramble(modcat.direct_sum(
                    [modcat.standard(TO, rng.randrange(d)) for _ in range(size)]), rng)
                copy = modcat.GradedPhiModule(TO, mod.ranks, mod.phi, mod.slack)
                modcat.decompose(mod, rule=first)
                got = modcat.decompose(mod, rule=second)
                want = modcat.decompose(copy, rule=second)
                keys = ("label", "lambdas", "basis", "orbit_unit_slots")
                assert [[s[k] for k in keys] for s in got] == \
                    [[s[k] for k in keys] for s in want]


def test_deg_ind_and_ranks():
    for (p, d, r, mode) in CONFIGS:
        S, T, TO = make(p=p, d=d, r=r, mode=mode)
        for q in (1, 2, 3):
            ind = modcat.ind(TO, 0, q)
            ind.validate()
            assert modcat.deg(ind, 0) == q
            assert modcat.tr(ind) == d * q
            # module-level Tr = d * Trd and the ird round trip
            P = modcat.F(modcat.ird(TO, q))
            assert modcat.tr(P) == d * q
            assert modcat.trd(P) == q


def test_adjoint():
    rng = random.Random(2)
    # d = 5, r = 2: the one config where r^{-1} mod d differs from r
    for (p, d, r, mode) in CONFIGS[:3] + ((3, 5, 2, lr.MIXED),):
        S, T, TO = make(p=p, d=d, r=r, mode=mode)
        for _ in range(10):
            labels = [rng.randrange(d) for _ in range(rng.randrange(1, 3))]
            mod = modcat.scramble(modcat.direct_sum(
                [modcat.standard(TO, h) for h in labels]), rng)
            g = rng.randrange(d)
            q = rng.randrange(1, 3)
            f = [[T.random(rng) for _ in range(mod.ranks[g])]
                 for _ in range(q)]
            al = modcat.adjoint(mod, g, f)
            # the map is phi-equivariant by construction (checked in ctor)
            assert al.is_equivariant()
            # restriction to the g-block recovers f: the triangle identity
            assert al.blocks[g] == f
            # each block is f after the phi-composite into piece g
            for h in range(d):
                assert al.blocks[h] == T.matmul(
                    f, phi_composite(mod, h, TO.x_power(g, h)))


def test_equivariance_check_rejects_bad_map():
    S, T, TO = make()
    src = modcat.standard(TO, 0)
    tgt = modcat.standard(TO, 1)
    blocks = [[[T.one]] for _ in range(TO.d)]
    with pytest.raises(ValidationError):
        modcat.ModuleMap(src, tgt, blocks)


def test_serialize_shape():
    S, T, TO = make()
    mod = modcat.standard(TO, 1)
    data = mod.serialize()
    assert data["ranks"] == [1, 1]
    assert len(data["phi"]) == 2


def test_split_one_matches_generic_conjugation():
    """Each step's quotient is the conjugate B_t^{-1} phi_k B_k by the step's
    basis witnesses, computed here by a generic inverse and two products:
    its first column is (lambda_j, 0, ...) to eff digits and its lower-right
    block is the quotient's phi_k exactly."""
    rng = random.Random(3)
    cases = CONFIGS + ((5, 1, 0, lr.MIXED), (3, 1, 0, lr.EQUAL))
    for (p, d, r, mode) in cases:
        S, T, TO = make(p=p, d=d, r=r, mode=mode)
        cycle = [(-TO.r * j) % d for j in range(d)]
        for size in (1, 2, 3):
            labels = [rng.randrange(d) for _ in range(size)]
            mod = modcat.scramble(modcat.direct_sum(
                [modcat.standard(TO, h) for h in labels]), rng)
            for rule in ("min", "first"):
                current = mod
                for _ in range(size):
                    step, quotient = modcat._split_one(current, rule)
                    eff = T.prec - quotient.slack
                    basis = step["basis"]
                    for k in range(d):
                        t = TO.succ(k)
                        Mt = T.matmul(linalg.rmat_inv(basis[t], T),
                                      T.matmul(current.phi[k], basis[k]))
                        lam = step["lambdas"][cycle.index(k)]
                        assert (Mt[0][0] - lam).ord() >= eff
                        assert all(row[0].ord() >= eff for row in Mt[1:])
                        lower = [row[1:] for row in Mt[1:]]
                        assert len(lower) == len(quotient.phi[k])
                        assert lower == [list(row) for row in quotient.phi[k]]
                    current = quotient
                assert current.ranks == [0] * d


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4(f)")
def test_a_precision_limit_is_not_reported_as_structure():
    """Equal (p, f, d, r, N) = (2, 1, 3, 1, 2), seed 0: a cycle scalar that
    is zero at this precision reads as valuation N, the cap of `ord`, so
    one `decompose-first` case claims the module is not projective.  A
    failure here may be a PrecisionError, never a ValidationError."""
    cfg = {"p": 2, "f": 1, "d": 3, "r": 1, "N": 2, "mode": lr.EQUAL, "seed": 0}
    failures = suites.run(cfg, ["modcat"])["suites"][0]["failures"]
    assert not [f for f in failures if f["got"].startswith("ValidationError(")]
