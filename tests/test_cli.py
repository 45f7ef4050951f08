import importlib
import io
import json
import os
import random
import subprocess
import sys
import time

import pytest

import hasseorder
from hasseorder import algebra as almod
from hasseorder import cli
from hasseorder import linalg
from hasseorder import localring as lr
from hasseorder import modcat, suites, tensor
from hasseorder.cli import main
from hasseorder.errors import InternalError, ParameterError
from hasseorder.parser import evaluate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_identity(capsys):
    code, out, _ = run(capsys, "eval", "1")
    assert code == 0
    assert "ord_D: 0" in out
    assert "Trd: 2" in out
    assert "Nrd: 1" in out


def test_eval_pi_d_spec_example(capsys):
    code, out, _ = run(capsys, "--p", "3", "--d", "2", "--r", "1", "--N", "4",
                       "eval", "x")
    assert code == 0
    assert "ord_D: 1" in out
    assert "Trd: 0" in out
    assert "Nrd: -3" in out
    assert "embed: [[0, 3], [1, 0]]" in out


def test_eval_spec_product(capsys):
    code, out, _ = run(capsys, "eval", "(3+x)*(3-x)")
    assert code == 0
    assert "embed: [[6, 0], [0, 6]]" in out
    assert "Nrd: 36" in out


def test_eval_json_output(capsys):
    code, out, _ = run(capsys, "--output", "json", "eval", "x")
    assert code == 0
    data = json.loads(out)
    assert data["ord_D"] == 1


def test_eval_ord_d_past_the_precision_is_finite(capsys):
    # pK^5 is nonzero at N = 4 (it is stored as a shift), so ord_D = 2 * 5;
    # only the zero element reads "inf"
    for expr, want in (("pK^5", 10), ("pK^4 - pK^4", "inf")):
        code, out, _ = run(capsys, "--N", "4", "--output", "json", "eval", expr)
        assert code == 0
        assert json.loads(out)["ord_D"] == want


def test_eval_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "eval", "3 + $")
    assert code == 2
    assert "position 4" in err


@pytest.mark.parametrize("expr,pos", [("x^²", 2), ("1 + " + "7" * 5000, 4)],
                         ids=["superscript-digit", "5000-digit-literal"])
def test_eval_non_decimal_digit_and_long_literal_exit_2(capsys, expr, pos):
    code, out, err = run(capsys, "eval", expr)
    assert code == 2 and out == ""
    assert err.startswith("parse error: ")
    assert err.endswith(f"(at position {pos})\n") and "Traceback" not in err


def test_eval_reads_unicode_decimal_digits(capsys):
    assert run(capsys, "eval", "٣ + x") == run(capsys, "eval", "3 + x")


@pytest.mark.parametrize("mode", ["mixed", "equal"])
@pytest.mark.parametrize("p,f,d", [(2, 4, 4), (7, 2, 4), (11, 2, 3), (13, 2, 4)])
def test_construction_under_one_second(p, f, d, mode):
    # the embedding S -> T needs a root of the defining polynomial of F_{p^f}
    # in F_{p^(fd)}; a search over the p^(fd) field elements took from
    # seconds to over a minute on the first three
    start = time.perf_counter()
    lr.unramified(lr.base_ring(p, f, 8, mode), d)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("mode", ["mixed", "equal"])
def test_eval_p13_f2_d4_against_full_norm_trace(capsys, mode):
    S = lr.base_ring(13, 2, 8, mode)
    T = lr.unramified(S, 4)
    expr = "(2 + th*x)*(1 - 3*th^2*x^3) + 4*%s*x" % ("t" if mode == "equal" else "pK")
    code, out, _ = run(capsys, "--p", "13", "--f", "2", "--d", "4", "--r", "1", "--N", "8",
                       "--mode", mode, "--output", "json", "eval", expr)
    assert code == 0
    data = json.loads(out)
    # the d^2 x d^2 oracle: N = Nrd^d and Tr = d*Trd
    tr, nm = evaluate(almod.make(T, 1), expr).full_norm_trace()
    AS = almod.make(S, 0)
    assert AS.from_T(nm) == evaluate(AS, data["Nrd"]) ** 4
    assert AS.from_T(tr) == evaluate(AS, data["Trd"]) * AS.from_int(4)


@pytest.mark.parametrize("mode", ["mixed", "equal"])
def test_verify_passes_at_p17(capsys, mode):
    # Witt vectors have no cap on p
    code, out, _ = run(capsys, "--p", "17", "--d", "2", "--N", "6", "--mode", mode,
                       "--output", "json", "verify")
    assert code == 0
    report = json.loads(out)
    assert report["params"]["p"] == 17
    assert all(not s["failures"] for s in report["suites"])


def test_closed_stdout_exits_without_traceback():
    # the reader is gone before the first write, as after `| head -c 50`
    r, w = os.pipe()
    os.close(r)
    src = os.path.dirname(os.path.dirname(hasseorder.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    try:
        proc = subprocess.run([sys.executable, "-m", "hasseorder", "eval", "1 + x"],
                              stdout=w, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(w)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_verify_default_passes(capsys):
    code, out, _ = run(capsys, "--output", "json", "verify")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "hasse-order-report/1"
    assert report["params"] == {"p": 3, "f": 1, "d": 2, "r": 1, "N": 8,
                                "mode": "mixed", "seed": 0}
    assert all(not s["failures"] for s in report["suites"])
    assert {s["name"] for s in report["suites"]} == {
        "finite_field", "local_ring", "witt", "algebra", "tensor", "modcat"}


def test_verify_records_failed_inverses(capsys, monkeypatch):
    """An inverse that fails its own check (InternalError) is recorded as a
    failure of its case, with expected one and got the message, and every
    suite still runs."""
    msg = "inverse fails the check x * x^-1 = 1"
    failed = set()

    def fail_first(cls):
        real = cls.inv

        def inv(self):
            # the first inverse a suite check takes in each ring fails
            if (sys._getframe(1).f_code is suites._inverse.__code__
                    and self.ctx not in failed):
                failed.add(self.ctx)
                raise InternalError(msg)
            return real(self)
        monkeypatch.setattr(cls, "inv", inv)

    fail_first(lr.RingElem)
    fail_first(almod.DElem)
    code, out, _ = run(capsys, "--output", "json", "verify")
    assert code == 1
    report = json.loads(out)
    assert [s["name"] for s in report["suites"]] == list(suites.SUITES)
    got = [(s["name"], f) for s in report["suites"] for f in s["failures"]]
    one_T = "[1, 0]"
    assert got == [
        ("finite_field", {"case": "inverse m=1", "expected": "[1]", "got": msg}),
        ("finite_field", {"case": "inverse m=2", "expected": one_T, "got": msg}),
        ("local_ring", {"case": "inv", "expected": one_T, "got": msg}),
        ("algebra", {"case": "inv", "got": msg,
                     "expected": str({"shift": 0, "coeffs": [[1, 0], [0, 0]]})})]


def test_verify_records_a_failing_milnor_preimage(capsys, monkeypatch):
    """A preimage that fails to re-embed (InternalError) is recorded as a
    failure of `milnor-roundtrip`, with got the exception, and the report
    is printed: under components shifted by 1, every roundtrip fails and
    no other case does."""
    code, out, _ = run(capsys, "--d", "2", "--output", "json", "verify",
                       "--suites", "tensor")
    assert code == 0
    cases = json.loads(out)["suites"][0]["cases"]
    real = tensor.TensorRingCtx.from_components

    def shifted(self, comps):
        return real(self, [comps[0] + self.T.one, *comps[1:]])
    monkeypatch.setattr(tensor.TensorRingCtx, "from_components", shifted)
    code, out, _ = run(capsys, "--d", "2", "--output", "json", "verify",
                       "--suites", "tensor")
    assert code == 1
    [report] = json.loads(out)["suites"]
    assert report["cases"] == cases == 223
    assert len(report["failures"]) == 20
    for failure in report["failures"]:
        assert failure["case"] == "milnor-roundtrip"
        assert failure["got"].startswith("InternalError('Milnor preimage failed")


def test_verify_records_a_wrong_peirce_transition(capsys, monkeypatch):
    """A Peirce transition that fails its scalar check (InternalError) is
    recorded as a failure of `peirce-cokernel-len`, with got the exception,
    and the report is printed: under the successor applied twice every
    (g, h) fails, so every column also has no cokernel."""
    real = tensor.TensorRingCtx.succ
    monkeypatch.setattr(tensor.TensorRingCtx, "succ",
                        lambda self, k: real(self, real(self, k)))
    code, out, _ = run(capsys, "--d", "3", "--r", "1", "--p", "5", "--output", "json",
                       "verify", "--suites", "tensor")
    assert code == 1
    [report] = json.loads(out)["suites"]
    assert report["cases"] == 236
    cases = [(f["case"], f["got"]) for f in report["failures"]]
    mismatch = repr(InternalError("Peirce transition scalar mismatch"))
    assert sorted(cases) == ([("peirce-cokernel-len", mismatch)] * 9
                             + [("peirce-one-per-column", "0")] * 3)


def test_verify_suite_selection(capsys):
    code, out, _ = run(capsys, "--output", "json", "verify",
                       "--suites", "finite_field,algebra")
    assert code == 0
    report = json.loads(out)
    assert [s["name"] for s in report["suites"]] == ["finite_field", "algebra"]


def test_verify_fault_injection_fails(capsys):
    code, out, _ = run(capsys, "--output", "json", "verify",
                       "--suites", "modcat", "--inject-fault", "modcat.cycle")
    assert code == 1
    report = json.loads(out)
    assert any(s["failures"] for s in report["suites"])


def test_sigma_order_fails_under_a_sigma_of_the_wrong_order(monkeypatch):
    """`sigma-order` applies sigma d times.  At (p, f, d) = (3, 2, 2), phi
    has order fd = 4; a sigma planted as phi^(k mod d), without the factor
    f, has order 4 and must fail the check, with the case count unchanged."""
    cfg = {"p": 3, "f": 2, "d": 2, "r": 1, "N": 6, "mode": "mixed", "seed": 0}

    def local_ring(plant):
        ctxs = suites._contexts(cfg)
        T = ctxs[1]
        if plant:
            monkeypatch.setattr(T, "frobenius", lambda x, k=1: T.frobenius_p(x, k % T.d))
        report = suites.suite_local_ring(cfg, ctxs, random.Random(0), None)
        return report["cases"], {f["case"] for f in report["failures"]}

    cases, failed = local_ring(False)
    assert not failed
    planted_cases, planted_failed = local_ring(True)
    assert planted_cases == cases and "sigma-order" in planted_failed


@pytest.mark.parametrize("p,f,d", [(3, 1, 3), (5, 2, 3), (2, 1, 5)])
def test_hensel_fails_under_another_generator_of_the_galois_group(monkeypatch, p, f, d):
    """sigma^2 generates Gal(T/S) when d is odd, so a sigma planted as
    sigma^2 after construction passes every other check of the suite; it
    does not lift the q-power Frobenius, and `hensel` must fail, with the
    case count unchanged."""
    cfg = {"p": p, "f": f, "d": d, "r": 1, "N": 8, "mode": "mixed", "seed": 0}

    def local_ring(plant):
        ctxs = suites._contexts(cfg)
        T = ctxs[1]
        if plant:
            sigma = T.frobenius
            monkeypatch.setattr(T, "frobenius", lambda x, k=1: sigma(x, 2 * k))
        report = suites.suite_local_ring(cfg, ctxs, random.Random(0), None)
        return report["cases"], {fail["case"] for fail in report["failures"]}

    cases, failed = local_ring(False)
    assert not failed
    assert local_ring(True) == (cases, {"hensel"})


@pytest.mark.parametrize("p,d,r,mode", [(5, 5, 2, "mixed"), (3, 2, 1, "equal")])
def test_adjoint_unit_fails_under_an_adjoint_scaled_by_pi(monkeypatch, p, d, r, mode):
    """pi_K is central and fixed by sigma, so an adjoint with every block
    scaled by pi_K stays equivariant and `adjoint-equivariant` passes; the
    determinant of each block of the unit gains ord ranks[g], and
    `adjoint-unit` must fail, with the case count unchanged.  Block g of
    the adjoint is then pi_K * f instead of f, so `adjoint-restriction`
    must fail too."""
    cfg = {"p": p, "f": 1, "d": d, "r": r, "N": 8, "mode": mode, "seed": 0}
    adjoint = modcat.adjoint

    def scaled(module, g, f):
        al = adjoint(module, g, f)
        piK = module.ctx.T.uniformizer
        return modcat.ModuleMap(al.source, al.target,
                                [linalg.rmat_scale(b, piK) for b in al.blocks])

    def modcat_suite(plant):
        if plant:
            monkeypatch.setattr(modcat, "adjoint", scaled)
        report = suites.suite_modcat(cfg, suites._contexts(cfg), random.Random(0), None)
        return report["cases"], {fail["case"] for fail in report["failures"]}

    cases, failed = modcat_suite(False)
    assert not failed
    planted_cases, planted_failed = modcat_suite(True)
    assert planted_cases == cases
    assert "adjoint-unit" in planted_failed
    assert "adjoint-restriction" in planted_failed
    assert "adjoint-equivariant" not in planted_failed


def test_verify_reports_the_twist_it_built_at_d1(capsys):
    """At d = 1, D = K and the algebra is built with r = 0 whatever --r
    says; the report names the twist it checked."""
    code, out, _ = run(capsys, "--d", "1", "--r", "5", "--output", "json", "verify")
    assert code == 0
    assert json.loads(out)["params"]["r"] == 0


def test_verify_bad_twist_exit_2(capsys):
    code, _, err = run(capsys, "--d", "4", "--r", "2", "verify")
    assert code == 2
    assert "parameter error" in err


@pytest.mark.parametrize("mode", ["mixed", "equal"])
@pytest.mark.parametrize("N", ["0", "1"])
def test_precision_below_two_exit_2(capsys, mode, N):
    # N = 1 is the residue field, which the library builds internally; the
    # command line still refuses it
    for argv in (("verify",), ("eval", "1"), ("dump", "milnor-basis")):
        code, out, err = run(capsys, "--N", N, "--mode", mode, *argv)
        assert code == 2
        assert out == ""
        assert err == "parameter error: precision N must be >= 2\n"


def test_verify_unknown_suite_exit_2(capsys):
    code, _, err = run(capsys, "verify", "--suites", "nope")
    assert code == 2


def test_run_rejects_unknown_names_with_the_cli_message(capsys):
    """suites.run checks suite and fault names before it builds anything;
    the CLI prints its message.  A falsy fault is none."""
    cfg = {"p": 3, "f": 1, "d": 2, "r": 1, "N": 8, "mode": "mixed", "seed": 0}
    for args, argv, message in (
            ((["nope"],), ["--suites", "nope"], "unknown suite 'nope'"),
            ((["witt", "", "algebra"],), ["--suites", "witt,,algebra"], "unknown suite ''"),
            ((None, "bogus"), ["--inject-fault", "bogus"], "unknown fault 'bogus'")):
        with pytest.raises(ParameterError) as exc:
            suites.run(cfg, *args)
        assert str(exc.value) == message
        assert run(capsys, "verify", *argv) == (2, "", f"parameter error: {message}\n")
    code, out, _ = run(capsys, "--output", "json", "verify", "--suites", "finite_field",
                       "--inject-fault", "")
    assert code == 0 and json.loads(out)["fault"] == ""


def test_determinism_modulo_timing(capsys):
    _, out1, _ = run(capsys, "--output", "json", "verify",
                     "--suites", "finite_field,witt")
    _, out2, _ = run(capsys, "--output", "json", "verify",
                     "--suites", "finite_field,witt")
    a, b = json.loads(out1), json.loads(out2)
    a.pop("wall_time")
    b.pop("wall_time")
    assert json.dumps(a) == json.dumps(b)


def test_dump_idempotents_d1(capsys):
    code, out, _ = run(capsys, "--d", "1", "--r", "0", "dump", "idempotents")
    assert code == 0
    assert json.loads(out) == [[[1]]]


def test_dump_witt_laws_p2(capsys):
    code, out, _ = run(capsys, "--p", "2", "dump", "witt-laws")
    assert code == 0
    data = json.loads(out)
    assert data["add"] == ["a0 + b0", "-a0*b0 + a1 + b1"]


@pytest.mark.parametrize("p, add_c1", [
    (2, "-a0*b0 + a1 + b1"),
    (3, "-a0**2*b0 - a0*b0**2 + a1 + b1"),
    (13, "-a0**12*b0 - 6*a0**11*b0**2 - 22*a0**10*b0**3 - 55*a0**9*b0**4"
         " - 99*a0**8*b0**5 - 132*a0**7*b0**6 - 132*a0**6*b0**7"
         " - 99*a0**5*b0**8 - 55*a0**4*b0**9 - 22*a0**3*b0**10"
         " - 6*a0**2*b0**11 - a0*b0**12 + a1 + b1"),
])
def test_dump_witt_laws_strings(capsys, p, add_c1):
    code, out, _ = run(capsys, "--p", str(p), "dump", "witt-laws")
    assert code == 0
    assert json.loads(out) == {
        "p": p, "n": 2, "add": ["a0 + b0", add_c1],
        "mul": ["a0*b0", f"a0**{p}*b1 + a1*b0**{p} + {p}*a1*b1"]}


def test_dumps_run_without_sympy(monkeypatch, capsys):
    """A fresh import of the package runs every dump with sympy unimportable."""
    import hasseorder.cli  # noqa: F401  (registers every submodule)
    monkeypatch.setitem(sys.modules, "sympy", None)
    for name in [n for n in sys.modules
                 if n == "hasseorder" or n.startswith("hasseorder.")]:
        monkeypatch.delitem(sys.modules, name)
    cli = importlib.import_module("hasseorder.cli")
    for what in sorted(cli.DUMPS):
        assert cli.main(["--d", "3", "dump", what]) == 0
    capsys.readouterr()


def test_dump_milnor_basis_dimension(capsys):
    for (p, f, d) in ((3, 1, 2), (5, 1, 3), (3, 2, 2)):
        code, out, _ = run(capsys, "--p", str(p), "--f", str(f),
                           "--d", str(d), "dump", "milnor-basis")
        assert code == 0
        data = json.loads(out)
        assert data["dimension_kT"] == d * (d + 1) // 2
        assert data["dimension_Fp"] == d * (d + 1) // 2 * (f * d)


def test_dump_peirce(capsys):
    code, out, _ = run(capsys, "--p", "5", "--d", "3", "--r", "2",
                       "dump", "peirce")
    assert code == 0
    data = json.loads(out)
    for entry in data:
        expect = 1 if (entry["g"] - entry["h"] - 2) % 3 == 0 else 0
        assert entry["cokernel_length"] == expect


def _json_text(obj):
    return json.dumps(obj, indent=2) + "\n"


def test_print_json_writes_in_batches(monkeypatch):
    """`_print_json` writes the text of json.dumps(obj, indent=2) and a
    newline in batches of about io.DEFAULT_BUFFER_SIZE characters, not one
    write per encoder chunk."""
    class Counting:
        def __init__(self):
            self.parts = []

        def write(self, s):
            self.parts.append(s)
            return len(s)

    obj = {"rows": [[i, str(i), {"k": [i] * 3}] for i in range(2000)], "empty": []}
    out = Counting()
    monkeypatch.setattr(sys, "stdout", out)
    cli._print_json(obj)
    text = _json_text(obj)
    assert "".join(out.parts) == text
    assert len(out.parts) <= len(text) // io.DEFAULT_BUFFER_SIZE + 2


def _flags(cfg):
    return [a for k, v in cfg.items() for a in (f"--{k}", str(v))]


@pytest.mark.parametrize("mode", ["mixed", "equal"])
@pytest.mark.parametrize("d", [1, 2, 4])
def test_dump_prints_the_library_object(capsys, mode, d):
    """The streamed JSON of a dump has the bytes of json.dumps(obj, indent=2)
    and a newline."""
    cfg = {"p": 3, "f": 1, "d": d, "r": 1, "N": 8, "mode": mode}
    ctxs = suites._contexts(cfg)
    for what, dump in sorted(cli.DUMPS.items()):
        code, out, _ = run(capsys, *_flags(cfg), "dump", what)
        assert code == 0 and out == _json_text(dump(*ctxs))


def test_eval_and_verify_json_print_the_library_object(capsys):
    cfg = {"p": 3, "f": 1, "d": 2, "r": 1, "N": 8, "mode": "mixed", "seed": 0}
    A = suites._contexts(cfg)[2]
    a = evaluate(A, "(1 + th)*x + 2")
    trd, nrd = a.trd_nrd()
    want = {"canonical": cli.fmt_delem(a), "ord_D": a.ord(), "Trd": cli.fmt_ring(trd),
            "Nrd": cli.fmt_ring(nrd),
            "embed": [[cli.fmt_ring(e) for e in row] for row in a.embed()]}
    code, out, _ = run(capsys, *_flags(cfg), "--output", "json", "eval", "(1 + th)*x + 2")
    assert code == 0 and out == _json_text(want)
    report = suites.run(cfg, ["witt"])
    code, out, _ = run(capsys, *_flags(cfg), "--output", "json", "verify", "--suites", "witt")
    report["wall_time"] = json.loads(out)["wall_time"]
    assert code == 0 and out == _json_text(report)
