"""Command-line front end: eval / verify / dump.

Every JSON document goes through `_print_json`, written in batches as it is
encoded.  `main` maps each library error to one stderr line, `parse error:`,
`parameter error:` or `error:` by its class.  Exit codes: 0 success, 1
suite failures, 2 parameter, parse or usage errors, 141 (128 + SIGPIPE)
when the reader of stdout closed it early.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys

from . import linalg
from . import suites as suitemod
from .errors import HasseOrderError, ParameterError, ParseError
from .parser import evaluate


# ---------------------------------------------------------------------------
# pretty-printing of ring elements (balanced integer representatives)

def _bal(c, modulus):
    return c - modulus if c > modulus // 2 else c


def _fmt_poly(terms):
    """terms: list of (coeff_str, monomial) with zero coefficients dropped."""
    if not terms:
        return "0"
    return " + ".join(f"{c}*{m}" if m and c != "1" else (m or c)
                      for c, m in terms).replace("+ -", "- ")


def _fmt_theta(coeffs, modulus=None):
    """A theta-coefficient vector as a polynomial in th; with a modulus, each
    coefficient is printed as its balanced representative."""
    terms = []
    for i, c in enumerate(coeffs):
        if c:
            mon = "" if i == 0 else ("th" if i == 1 else f"th^{i}")
            terms.append((str(_bal(c, modulus) if modulus else c), mon))
    return _fmt_poly(terms)


def fmt_ring(x):
    """RingElem in a readable canonical form."""
    ctx = x.ctx
    if ctx.n == 1:
        return _fmt_theta(x.coeffs, ctx.modulus)
    m = ctx.m
    terms = []
    for i in range(ctx.n):
        digit = x.coeffs[i * m:(i + 1) * m]
        if any(digit):
            mon = "" if i == 0 else ("t" if i == 1 else f"t^{i}")
            cs = _fmt_theta(digit)
            if "+" in cs or "-" in cs[1:]:
                cs = f"({cs})"
            terms.append((cs, mon))
    return _fmt_poly(terms)


def fmt_delem(a):
    """DElem canonical form: optional pi_K-power times a twisted polynomial."""
    terms = []
    for i, c in enumerate(a.coeffs):
        if not c.is_zero():
            cs = fmt_ring(c)
            if " " in cs:
                cs = f"({cs})"
            mon = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
            terms.append((cs, mon))
    body = _fmt_poly(terms)
    if a.shift == 0 or not terms:
        return body
    pref = "pK" if a.shift == 1 else f"pK^{a.shift}"
    return f"{pref} * ({body})"


# ---------------------------------------------------------------------------

def build_contexts(args):
    """(S, T, A, A (x)_S T) for the parsed options `args`."""
    return suitemod._contexts(vars(args))


def _print_json(obj):
    """obj as indented JSON and a newline on stdout, written as it is
    encoded, in batches of about io.DEFAULT_BUFFER_SIZE characters."""
    batch = io.StringIO()
    for chunk in json.JSONEncoder(indent=2).iterencode(obj):
        batch.write(chunk)
        if batch.tell() >= io.DEFAULT_BUFFER_SIZE:
            sys.stdout.write(batch.getvalue())
            batch = io.StringIO()
    sys.stdout.write(batch.getvalue() + "\n")


def config_dict(args):
    return {"p": args.p, "f": args.f, "d": args.d, "r": args.r, "N": args.N,
            "mode": args.mode, "seed": args.seed}


def cmd_eval(args):
    S, T, A, TO = build_contexts(args)
    a = evaluate(A, args.expr)
    trd, nrd = a.trd_nrd()
    out = {
        "canonical": fmt_delem(a),
        "ord_D": "inf" if a.is_zero() else a.ord(),
        "Trd": fmt_ring(trd),
        "Nrd": fmt_ring(nrd),
        "embed": [[fmt_ring(e) for e in row] for row in a.embed()],
    }
    if args.output == "json":
        _print_json(out)
    else:
        print(f"canonical: {out['canonical']}")
        print(f"ord_D: {out['ord_D']}")
        print(f"Trd: {out['Trd']}")
        print(f"Nrd: {out['Nrd']}")
        rows = ", ".join("[" + ", ".join(row) + "]" for row in out["embed"])
        print(f"embed: [{rows}]")
    return 0


def cmd_verify(args):
    names = args.suites.split(",") if args.suites else None
    report = suitemod.run(config_dict(args), names, args.inject_fault)
    nfail = suitemod.total_failures(report)
    if args.output == "json":
        _print_json(report)
    else:
        for s in report["suites"]:
            status = "ok" if not s["failures"] else f"{len(s['failures'])} FAILED"
            print(f"{s['name']}: {s['cases']} cases, {status}")
            for fl in s["failures"]:
                print(f"  {fl['case']}: expected {fl['expected']}, "
                      f"got {fl['got']}")
        print(f"total failures: {nfail} ({report['wall_time']}s)")
    return 0 if nfail == 0 else 1


def _dump_idempotents(S, T, A, TO):
    return [e.serialize() for e in TO.idempotents]


def _dump_peirce(S, T, A, TO):
    out = []
    for g in range(TO.d):
        for h in range(TO.d):
            info = TO.peirce(g, h)
            out.append({"g": g, "h": h, "i": info["i"],
                        "generator": info["generator"].serialize(),
                        "cokernel_length": info["cokernel_length"]})
    return out


def _dump_milnor_basis(S, T, A, TO):
    # an actual basis over k_T of the image mod m_T
    basis = linalg.echelon_basis(TO.residue_rows(TO.milnor_lattice()))
    return {"dimension_kT": len(basis), "dimension_Fp": len(basis) * T.m,
            "basis": [[c.serialize() for c in v] for v in basis]}


def _monomial(var, e):
    return var if e == 1 else f"{var}**{e}"


def _dump_witt_laws(S, T, A, TO):
    """The W_2 sum and product laws as polynomial strings.  The second sum
    coordinate is a1 + b1 - ((a0 + b0)^p - a0^p - b0^p)/p, expanded with
    its terms by falling degree in a0."""
    p = S.p
    terms = []
    for k in range(1, p):
        c = math.comb(p, k) // p
        mon = f"{_monomial('a0', p - k)}*{_monomial('b0', k)}"
        terms.append(mon if c == 1 else f"{c}*{mon}")
    return {"p": p, "n": 2,
            "add": ["a0 + b0", "-" + " - ".join(terms) + " + a1 + b1"],
            "mul": ["a0*b0", f"a0**{p}*b1 + a1*b0**{p} + {p}*a1*b1"]}


DUMPS = {
    "idempotents": _dump_idempotents,
    "peirce": _dump_peirce,
    "milnor-basis": _dump_milnor_basis,
    "witt-laws": _dump_witt_laws,
}


def cmd_dump(args):
    _print_json(DUMPS[args.what](*build_contexts(args)))
    return 0


# ---------------------------------------------------------------------------

def _add_common(ap, suppress=False):
    dv = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
    ap.add_argument("--p", type=int, default=dv(3), help="residue characteristic")
    ap.add_argument("--f", type=int, default=dv(1), help="residue degree of K")
    ap.add_argument("--d", type=int, default=dv(2), help="index of the algebra")
    ap.add_argument("--r", type=int, default=dv(1),
                    help="twist (Hasse invariant r/d)")
    ap.add_argument("--N", type=int, default=dv(8), help="working precision")
    ap.add_argument("--mode", choices=("mixed", "equal"), default=dv("mixed"))
    ap.add_argument("--seed", type=int, default=dv(0), help="RNG seed")
    ap.add_argument("--output", choices=("text", "json"), default=dv("text"))


def make_arg_parser():
    ap = argparse.ArgumentParser(
        prog="hasse-order",
        description="Maximal orders in cyclic division algebras over local "
                    "fields: exact construction and verification.")
    _add_common(ap)
    # the same flags are accepted after the subcommand; suppressed defaults
    # keep them from clobbering values parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common, suppress=True)
    sub = ap.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate an element expression",
                        parents=[common])
    pe.add_argument("expr", help="expression over {integers, th, t, x, pK}")
    pe.set_defaults(func=cmd_eval)

    pv = sub.add_parser("verify", help="run the verification suites",
                        parents=[common])
    pv.add_argument("--suites", default=None,
                    help="comma-separated suite names (default: all)")
    pv.add_argument("--inject-fault", default=None,
                    help=f"corrupt one value; one of {', '.join(suitemod.FAULTS)}")
    pv.set_defaults(func=cmd_verify)

    pd = sub.add_parser("dump", help="dump structure constants",
                        parents=[common])
    pd.add_argument("what", choices=sorted(DUMPS))
    pd.set_defaults(func=cmd_dump)
    return ap


def main(argv=None):
    ap = make_arg_parser()
    args = ap.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # e.g. `hasse-order ... | head`: the remaining output has no reader;
        # send it to devnull so the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except HasseOrderError as ex:
        kind = ("parse " if isinstance(ex, ParseError) else
                "parameter " if isinstance(ex, ParameterError) else "")
        print(f"{kind}error: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
