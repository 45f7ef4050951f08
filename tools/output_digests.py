"""Print one digest line per CLI run of a fixed matrix of configurations.

Each line is `<exit code> <SHA-256 of stdout + stderr> <argv>`.  The runs
go through `hasseorder.cli.main` in one process; `verify --output json`
reports are hashed without their `wall_time` key.  The last runs take the
error paths, whose stderr and exit code enter the digest.  Run it on two
checkouts and compare the outputs with `diff` to see whether a change
moved any report, dump, evaluation or error message:

    python3 tools/output_digests.py > after.txt
"""

import contextlib
import hashlib
import io
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from hasseorder import cli, suites  # noqa: E402

# (p, f, d, r, N) per mode
CONFIGS = {
    "mixed": [(3, 1, 2, 1, 8), (5, 1, 3, 2, 8), (3, 1, 4, 1, 8), (2, 2, 4, 3, 8),
              (3, 1, 1, 0, 8), (3, 1, 4, 1, 4), (3, 1, 5, 2, 6), (17, 1, 2, 1, 6),
              (3, 1, 8, 1, 8), (2, 3, 2, 1, 6), (3, 1, 2, 1, 32), (3, 1, 3, 1, 32)],
    "equal": [(3, 1, 2, 1, 8), (3, 1, 4, 3, 8), (5, 2, 3, 1, 8), (5, 1, 5, 3, 4),
              (17, 1, 2, 1, 6), (3, 1, 8, 1, 8), (2, 3, 2, 1, 6), (3, 1, 2, 1, 32)],
}
# (p, f, d, r, N) per mode of eval-only runs: d = 12, where the reduced
# norm and trace come from the largest matrix of any run, the equal
# kernel at N = 32 and 64, an embedding of F_{p^2} into F_{p^8} at p = 7
# and 13, and F_{p^3} at p = 65537, where no binomial x^3 + c is irreducible
EVAL_CONFIGS = {"mixed": [(3, 1, 12, 1, 8), (7, 2, 4, 1, 4), (65537, 1, 3, 1, 2)],
                "equal": [(3, 1, 12, 1, 8), (3, 1, 4, 1, 32), (3, 1, 2, 1, 64),
                          (13, 2, 4, 1, 4)]}
DUMPS = ("idempotents", "peirce", "milnor-basis", "witt-laws")
EXPRS = ("1 + x", "(1 + 2*th + x)*(3 - th*x) + 5*pK*x", "th^2*x^3 + pK",
         "pK^2*(th - x)", "x^2 + 7*th")
# (p, f, d, r, N) per mode of the fault reports; at mixed d = 5, r = 2 the
# twist differs from its inverse mod d
FAULT_CONFIGS = {"mixed": [(3, 1, 2, 1, 8), (3, 1, 5, 2, 6)],
                 "equal": [(3, 1, 2, 1, 8), (3, 1, 4, 3, 8)]}
# error paths, at the default config (mixed characteristic): unknown names,
# bad parameters under each command, and malformed expressions
BAD_NAMES = (["--suites", "nope"], ["--suites", "witt,,algebra"],
             ["--inject-fault", "bogus"])
BAD_PARAMS = (["--N", "1"], ["--p", "4"], ["--d", "2", "--r", "2"])
BAD_EXPRS = ("1 +", "(1 + x", "x^", "x^th", "1 2", "", "1/x", "t")


def flags(cfg, mode):
    p, f, d, r, N = cfg
    return ["--p", str(p), "--f", str(f), "--d", str(d), "--r", str(r),
            "--N", str(N), "--mode", mode]


def runs():
    for mode, cfgs in CONFIGS.items():
        for cfg in cfgs:
            for seed in (0, 1):
                yield flags(cfg, mode) + ["--seed", str(seed), "--output", "json", "verify"]
            for what in DUMPS:
                yield flags(cfg, mode) + ["dump", what]
            for expr in EXPRS:
                yield flags(cfg, mode) + ["--output", "json", "eval", expr]
    for mode, cfgs in EVAL_CONFIGS.items():
        for cfg in cfgs:
            for expr in EXPRS:
                yield flags(cfg, mode) + ["--output", "json", "eval", expr]
    for mode, cfgs in FAULT_CONFIGS.items():
        for cfg in cfgs:
            for fault in suites.FAULTS:
                yield flags(cfg, mode) + ["--output", "json", "verify",
                                          "--inject-fault", fault]
    for names in BAD_NAMES:
        yield ["verify"] + names
    for params in BAD_PARAMS:
        for command in (["verify"], ["eval", "1"], ["dump", "peirce"]):
            yield params + command
    for expr in BAD_EXPRS:
        yield ["eval", expr]


def digest(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = out.getvalue()
    if "verify" in argv and code in (0, 1):
        report = json.loads(text)
        report.pop("wall_time")
        text = json.dumps(report, indent=2)
    return code, hashlib.sha256((text + err.getvalue()).encode()).hexdigest()


def main():
    for argv in runs():
        code, sha = digest(argv)
        print(code, sha, " ".join(argv), flush=True)


if __name__ == "__main__":
    main()
