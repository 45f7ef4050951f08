"""Golden outputs: SHA-256 digests of CLI output that must not drift.

`verify --output json` is compared without its `wall_time` key; dumps and
evals are compared byte for byte.  A digest changes only when an output
changes, so a refactor that keeps these digests keeps the reports.

Witt-vector arithmetic is pinned the same way: passing verify reports record
only case counts, so the coordinates of seeded sums, products, negatives,
Frobenius and Verschiebung images are digested here directly.  The same
holds for `modcat.decompose`: the labels, cycle scalars, change-of-basis
witnesses and unit slots of its steps are digested here, and for the exact
inverses `RingElem.inv`, `DElem.inv` and `linalg.rmat_inv`, and for
`DElem.trd_nrd` and `DElem.inv` at d = 8 and 12.
"""

import hashlib
import json
import random

import pytest

from hasseorder import algebra, cli, linalg, modcat, tensor, witt
from hasseorder import localring as lr
from hasseorder.errors import NotInvertibleError

FLAGS = ["--p", "3", "--f", "1", "--r", "1", "--N", "8", "--seed", "0"]
VERIFY = ["--output", "json", "verify"]
MIXED_P5 = ["--p", "5", "--f", "1", "--d", "3", "--r", "2", "--N", "8", "--seed", "0",
            "--mode", "mixed"]

# name -> (argv, SHA-256 of the output)
GOLDEN = {
    "verify-mixed-d2": (
        FLAGS + ["--d", "2", "--mode", "mixed"] + VERIFY,
        "8c94778f0844553495f7757a92aa3eee8d80c1d07cda70b31334bba8c7a1f5ca"),
    "verify-equal-d2": (
        FLAGS + ["--d", "2", "--mode", "equal"] + VERIFY,
        "50dd30465d618cb519d5ecd62bb473112c790ccebfe14c67994788a032bf98ab"),
    # d = 5: the first index where the twist r = 2 differs from r^-1 = 3
    "verify-mixed-d5": (
        ["--p", "3", "--f", "1", "--d", "5", "--r", "2", "--N", "6", "--seed", "0",
         "--mode", "mixed"] + VERIFY,
        "e2fb9577f5aa59017d2e60d086111332e05a95f8a90944581389eb486b989fa6"),
    "dump-milnor-basis-mixed-d3": (
        FLAGS + ["--d", "3", "--mode", "mixed", "dump", "milnor-basis"],
        "c1a1f9c39c3d4b778ccb299e265011713b5dd47151e040575c3879431a43812e"),
    "eval-mixed-f2-d2": (
        ["--p", "3", "--f", "2", "--d", "2", "--r", "1", "--N", "8", "--mode", "mixed",
         "--output", "json", "eval", "(1 + 2*th + x)*(3 - th*x) + 5*pK*x"],
        "ded07a261847c196f39b2c1578dcd1f959f831c30eb216fc23d4a96e81819e5d"),
    "eval-mixed-p5-f2-d3": (
        ["--p", "5", "--f", "2", "--d", "3", "--r", "1", "--N", "8", "--mode", "mixed",
         "--output", "json", "eval", "(2 + th*x)*(1 - 3*th^2*x^2) + 4*pK*x"],
        "aa159570d079491da8992bcf819c91f987323dacc0d9bb642aec1582643fd9bc"),
    "eval-equal-p5-f2-d3": (
        ["--p", "5", "--f", "2", "--d", "3", "--r", "1", "--N", "8", "--mode", "equal",
         "--output", "json", "eval", "(2 + th*x)*(1 - 3*th^2*x^2) + 4*t*x"],
        "0e76e84b0f4a3e7a0a57b1ace675cd17b4fa1f78098e35f13fa5fa79ab9125b2"),
    "dump-peirce-equal-d4": (
        FLAGS + ["--d", "4", "--mode", "equal", "dump", "peirce"],
        "cf3de1a57639acf8ca981c7354d63064c6abdacf000b0ca108c0cabaa2309fab"),
    "dump-idempotents-equal-d4": (
        FLAGS + ["--d", "4", "--mode", "equal", "dump", "idempotents"],
        "3058586f235cd6c754ed47955aa65fe9359765785aa10737b9d85076ea5578e0"),
    "dump-peirce-mixed-p5-d3": (
        MIXED_P5 + ["dump", "peirce"],
        "82af3331dd08185793ff2ef5111e2a0c2cea3199758d0b5e08dd03a82fe0ef92"),
    "dump-idempotents-mixed-p5-d3": (
        MIXED_P5 + ["dump", "idempotents"],
        "1241d02c92c5f29257e92a9cd21437ecc103d5bb24945301a4abf160af8ddb3c"),
}


def digest(argv, capsys):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    if "verify" in argv:
        report = json.loads(out)
        report.pop("wall_time")
        out = json.dumps(report, indent=2)
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(name, capsys):
    argv, want = GOLDEN[name]
    assert digest(argv, capsys) == want


# coefficient ring of each Witt digest, as a function of p
WITT_RINGS = {
    "zmod": lambda p: lr.base_ring(p, 1, 6),
    "ff": lambda p: lr.residue_field(p, 2),
    "mixed": lambda p: lr.base_ring(p, 2, 6, lr.MIXED),
    "equal": lambda p: lr.base_ring(p, 1, 6, lr.EQUAL),
    "T": lambda p: lr.unramified(lr.base_ring(p, 1, 4, lr.EQUAL), 2),
}

# kind -> SHA-256 of the coordinates of x+y, x*y, -x, F(x), V(x) in W_3
WITT_GOLDEN = {
    "T": "b34f6414454f9dccedcb542e12115714d59909e7fd10f97ddbb647bc6419123c",
    "equal": "ffbc98c1d0bcd7dbe3e22a7d5f557baac269f61f4a1a9262a29571517f8704f3",
    "ff": "042bcb94f52f2b12393ce7230e3f95b250a47a2cf90ba2352727874d8843a678",
    "mixed": "e26dc64c066a8247e3a118a8247e46f847a337a0258f800642852e05fbb939c8",
    "zmod": "a9483ee65aa2251c450a7f2243f78209f969694d0619005049b71b4379e53cf3",
}


def witt_digest(kind):
    """Each coordinate is written as its flat coefficient tuple."""
    rows = []
    for p in (2, 3, 13):
        W = witt.WittCtx(3, WITT_RINGS[kind](p))
        rng = random.Random(f"golden-witt:{kind}:{p}")
        for _ in range(3):
            x, y = W.random(rng), W.random(rng)
            for v in (x + y, x * y, -x, x.frobenius(), x.verschiebung()):
                rows.append([list(c.coeffs) for c in v.coords])
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


@pytest.mark.parametrize("kind", sorted(WITT_RINGS))
def test_witt_golden_digest(kind):
    assert witt_digest(kind) == WITT_GOLDEN[kind]


# kind -> SHA-256 of x+y, x*y, -x, F(x), V(R(x)) in W_MAX_N, p in (2, 3, 5, 13)
WITT_MAX_N_GOLDEN = {
    "T": "96a5fbc930a6a59602672a8fadff65c7a33ee877bd196eeb9511fc8d49c1ab2b",
    "equal": "60f3b10ff588e590fe98689324afc5f4566902ffe5f61f5e9edbd7f6b97d5e04",
    "ff": "8ddf9bdfde85cc0037c906b367972b60ed5b425399478b13400c04cb359bd851",
    "mixed": "d0e066c4ca4bc986cb157321cac46158049e1e57f04f95e709d5c54283cbc8fd",
    "zmod": "e3bf38d4d25edbd8c446160e59749b7c18ce94164b9b0ea79e7783d6ebfdc219",
}


def witt_max_n_digest(kind):
    rows = []
    for p in (2, 3, 5, 13):
        W = witt.WittCtx(witt.MAX_N, WITT_RINGS[kind](p))
        rng = random.Random(f"golden-witt-max-n:{kind}:{p}")
        for _ in range(3):
            x, y = W.random(rng), W.random(rng)
            for v in (x + y, x * y, -x, x.frobenius(),
                      x.restriction().verschiebung()):
                rows.append([list(c.coeffs) for c in v.coords])
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


@pytest.mark.parametrize("kind", sorted(WITT_RINGS))
def test_witt_golden_digest_max_n(kind):
    assert witt_max_n_digest(kind) == WITT_MAX_N_GOLDEN[kind]


# name -> (p, f, d, r, N, mode) of the seeded scrambled modules
DECOMPOSE_CONFIGS = {
    "mixed-d4": (3, 1, 4, 1, 8, lr.MIXED),
    "equal-d2": (3, 1, 2, 1, 8, lr.EQUAL),
    "mixed-d1": (3, 1, 1, 0, 8, lr.MIXED),
    # the largest batches of orbit units: d = 8 in both modes, and p = 5
    "mixed-d8": (3, 1, 8, 1, 8, lr.MIXED),
    "equal-d8": (3, 1, 8, 3, 8, lr.EQUAL),
    "mixed-p5-d5": (5, 1, 5, 2, 6, lr.MIXED),
}

# name -> SHA-256 of the serialized steps under the rules "min" and "first"
DECOMPOSE_GOLDEN = {
    "equal-d2": "7ecb46e7b7d54d5e8312c1e6bbbae02363c0dd32d803fe44aae2eb9cfd736d10",
    "equal-d8": "f8e9cb6b777c5deab3e8550bd6ad43ef1cb8af100cad8fef97e81fe1edbca21a",
    "mixed-d1": "2175852790b90cfcb67e644a54ad23313e06db5811f66299d86e2785e09967de",
    "mixed-d4": "be87c474f4c8f3950687c63e9dd2096cab7bd15dec439759133e4839fdbf9ac8",
    "mixed-d8": "b99ca26d0152de2458b2082ab11eceeb7de88166d9e2ae5e31b45fc53938253b",
    "mixed-p5-d5": "5b7a55314f47605a8f9e1ad179af9c48e5e1a06db2eaac981edd5456f50c2479",
}


def decompose_digest(name):
    p, f, d, r, N, mode = DECOMPOSE_CONFIGS[name]
    TO = tensor.make(lr.unramified(lr.base_ring(p, f, N, mode), d), r)
    rng = random.Random(f"golden-decompose:{name}")
    rows = []
    for _ in range(4):
        labels = [rng.randrange(d) for _ in range(rng.randrange(1, 4))]
        mod = modcat.scramble(modcat.direct_sum(
            [modcat.standard(TO, h) for h in labels]), rng)
        for rule in ("min", "first"):
            for s in modcat.decompose(mod, rule=rule):
                rows.append({
                    "label": s["label"],
                    "lambdas": [lam.serialize() for lam in s["lambdas"]],
                    "basis": [[[e.serialize() for e in row] for row in B]
                              for B in s["basis"]],
                    "orbit_unit_slots": s["orbit_unit_slots"]})
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(DECOMPOSE_CONFIGS))
def test_decompose_golden_digest(name):
    assert decompose_digest(name) == DECOMPOSE_GOLDEN[name]


# (p, f, d, r, N) of the seeded inverses, in both modes
INVERSE_CONFIGS = ((3, 1, 4, 1, 8), (2, 2, 3, 2, 6), (5, 1, 2, 1, 3), (3, 1, 1, 0, 9))

# mode -> SHA-256 of seeded inverses: units of the residue field, S and T;
# elements of A of ord_D up to d(N-2); 3x3 matrices over T
INVERSE_GOLDEN = {
    "equal": "1729c60a9f076fd3e55d54a3322e4e84c00cef15a4ee8b5ac2bf30801399424a",
    "mixed": "64ea9e63da3839e7a9d7e2876c6c560bd8c04a4ebd67c855ad5d22482482c185",
}


def inverse_digest(mode):
    rows = []
    for p, f, d, r, N in INVERSE_CONFIGS:
        S = lr.base_ring(p, f, N, mode)
        T = lr.unramified(S, d)
        A = algebra.make(T, r)
        rng = random.Random(f"golden-inverse:{mode}:{p}:{f}:{d}")
        for R in (T.residue, S, T):
            for _ in range(6):
                x = R.random(rng)
                if x.is_unit():
                    rows.append(x.inv().serialize())
        for _ in range(6):
            a = A.random(rng) * A.pi_D_pow(rng.randrange(d * (N - 2) + 1))
            if not a.is_zero() and a.ord() <= d * (N - 2):
                rows.append(a.inv().serialize())
        for _ in range(4):
            M = [[T.random(rng) for _ in range(3)] for _ in range(3)]
            try:
                rows.append([[e.serialize() for e in row]
                             for row in linalg.rmat_inv(M, T)])
            except NotInvertibleError:
                rows.append("singular")
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


@pytest.mark.parametrize("mode", sorted(INVERSE_GOLDEN))
def test_inverse_golden_digest(mode):
    assert inverse_digest(mode) == INVERSE_GOLDEN[mode]


# name -> (p, f, d, r, N, mode) of the seeded reduced traces, norms and
# inverses in A at the largest d
NORM_CONFIGS = {
    "mixed-d8": (3, 1, 8, 1, 8, lr.MIXED),
    "equal-d8": (3, 1, 8, 1, 8, lr.EQUAL),
    "mixed-d12": (3, 1, 12, 1, 8, lr.MIXED),
}

# name -> SHA-256 of (Trd, Nrd) and the inverse of seeded elements of A of
# ord_D up to d(N-2)
NORM_GOLDEN = {
    "equal-d8": "58e38634abdffffddab3a0c0cbe4985bcda7047eee326295cf91bc9672ffb363",
    "mixed-d12": "a4dae0777a29bb31009327938ef19c76a758c1e2b4e1d849f2d98ac801189497",
    "mixed-d8": "693884f974a241f114971ede504cc6857b0eb3eeeb0e351bb33b3943e4fdcf51",
}


def norm_digest(name):
    p, f, d, r, N, mode = NORM_CONFIGS[name]
    A = algebra.make(lr.unramified(lr.base_ring(p, f, N, mode), d), r)
    rng = random.Random(f"golden-norm:{name}")
    rows = []
    for k in range(6):
        a = A.random(rng) * A.pi_D_pow(0 if k % 2 == 0 else rng.randrange(1, d * (N - 2) + 1))
        rows.append([c.serialize() for c in a.trd_nrd()])
        if not a.is_zero() and a.ord() <= d * (N - 2):
            rows.append(a.inv().serialize())
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(NORM_CONFIGS))
def test_norm_golden_digest(name):
    assert norm_digest(name) == NORM_GOLDEN[name]


# name -> (p, f, d, r, N, mode) of the seeded products in A and A (x)_S T
PRODUCT_CONFIGS = {
    "equal-p3-d2": (3, 1, 2, 1, 8, lr.EQUAL),
    "equal-p5-f2-d3": (5, 2, 3, 1, 5, lr.EQUAL),
    "mixed-p2-f2-d3": (2, 2, 3, 2, 6, lr.MIXED),
    "mixed-p3-d4": (3, 1, 4, 1, 8, lr.MIXED),
}

# name -> SHA-256 of seeded products a*b, b*a in A (shifts -1, 0, 3; zero,
# all-(p^e-1) and random coefficients) and z*w in A (x)_S T
PRODUCT_GOLDEN = {
    "equal-p3-d2": "77ea733d16f97036cbbc340b76af073847af70c024efe013b510d6101db59425",
    "equal-p5-f2-d3": "802f56e3255619bb057f2b5ad2b6b675814d8b3d343646a8c0d94b62cb993d0f",
    "mixed-p2-f2-d3": "d40f20524cab16c8cd292735ed73557ca0aa976be30006b8cc946860711614a6",
    "mixed-p3-d4": "29d5e7ef3ca20b655a2cb21eaee37e0ce224da431d8860fb66dcff919d098eed",
}


def _coeff(R, rng):
    """Zero, the all-(p^e-1) element or a random element of R."""
    kind = rng.randrange(3)
    if kind == 0:
        return R.zero
    if kind == 1:
        return R.from_vec([R.modulus - 1] * R.zp_rank)
    return R.random(rng)


def product_digest(name):
    p, f, d, r, N, mode = PRODUCT_CONFIGS[name]
    T = lr.unramified(lr.base_ring(p, f, N, mode), d)
    A, TO = algebra.make(T, r), tensor.make(T, r)
    rng = random.Random(f"golden-product:{name}")
    rows = []
    for shift in (-1, 0, 3):
        for _ in range(4):
            a = A.elem(shift, [_coeff(T, rng) for _ in range(d)])
            b = A.elem(rng.choice((-1, 0, 3)), [_coeff(T, rng) for _ in range(d)])
            rows += [(a * b).serialize(), (b * a).serialize()]
    for _ in range(4):
        z = TO.order_elem([TO.from_components([_coeff(T, rng) for _ in range(d)])
                           for _ in range(d)])
        w = TO.order_random(rng)
        rows += [(z * w).serialize(), (w * z).serialize()]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PRODUCT_CONFIGS))
def test_product_golden_digest(name):
    assert product_digest(name) == PRODUCT_GOLDEN[name]
