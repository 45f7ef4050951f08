"""Output checks, run outside the timed region.

Verify passes: no failed check, and every pass of one seed gives the same
report once `wall_time` is removed.

cli-sweep requests: exit code 0 and output that parses; each `eval` has
its printed Trd and Nrd checked against the independent d^2 x d^2 oracle
`DElem.full_norm_trace` (N = Nrd^d, Tr = d*Trd); repeats of one `dump`
print identical output.
"""

from __future__ import annotations

import hashlib
import json
from types import SimpleNamespace

from hasseorder import algebra as almod
from hasseorder.cli import build_contexts
from hasseorder.errors import HasseOrderError
from hasseorder.parser import evaluate


def summarize(report):
    """What the checks need from one suites.run report."""
    rep = {k: v for k, v in report.items() if k != "wall_time"}
    digest = hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest()
    return {"seed": report["params"]["seed"],
            "cases": sum(s["cases"] for s in report["suites"]),
            "failures": [f"{s['name']}: {f['case']}"
                         for s in report["suites"] for f in s["failures"]],
            "digest": digest}


def check_passes(passes):
    """(attempted, failed, problems) over summarized verify passes.

    Attempts are the suite checks of every pass, plus one comparison for
    each pass that repeats the seed of an earlier pass."""
    first = {}
    problems = [f for p in passes for f in p["failures"]]
    for i, p in enumerate(passes):
        j = first.setdefault(p["seed"], i)
        if p["digest"] != passes[j]["digest"]:
            problems.append(f"pass {i}: report differs from pass {j} "
                            f"(seed {p['seed']})")
    attempted = sum(p["cases"] for p in passes) + len(passes) - len(first)
    return attempted, len(problems), problems


class Oracle:
    """Checks eval output against full_norm_trace; caches per input."""

    def __init__(self):
        self._ctx = {}
        self._expected = {}

    def _contexts(self, cfg):
        key = tuple(sorted(cfg.items()))
        if key not in self._ctx:
            S, _T, A, _TO = build_contexts(SimpleNamespace(**cfg))
            self._ctx[key] = (A, almod.make(S, 0))
        return self._ctx[key]

    def check_eval(self, req, out):
        """None if the printed Trd/Nrd satisfy the oracle, else a reason."""
        A, AS = self._contexts(req["config"])
        key = (tuple(sorted(req["config"].items())), req["expr"])
        if key not in self._expected:
            tr, nm = evaluate(A, req["expr"]).full_norm_trace()
            self._expected[key] = (AS.from_T(tr), AS.from_T(nm))
        tr, nm = self._expected[key]
        d = req["config"]["d"]
        trd = evaluate(AS, out["Trd"])
        nrd = evaluate(AS, out["Nrd"])
        if nm != nrd ** d:
            return f"N != Nrd^{d} for {req['expr']!r}"
        if tr != trd * AS.from_int(d):
            return f"Tr != {d}*Trd for {req['expr']!r}"
        return None


def check_requests(requests, results, oracle=None):
    """(attempted, failed, problems) over cli-sweep requests.

    `results` holds one (returncode, stdout) per request, in order."""
    oracle = oracle or Oracle()
    problems = []
    dumps = {}
    for req, (rc, stdout) in zip(requests, results):
        what = " ".join(req["argv"][:-1] if "expr" in req else req["argv"])
        if rc != 0:
            problems.append(f"exit {rc}: {what}")
            continue
        try:
            out = json.loads(stdout)
        except ValueError:
            problems.append(f"unparsable output: {what}")
            continue
        if "expr" in req:
            try:
                reason = oracle.check_eval(req, out)
            except (KeyError, TypeError, HasseOrderError) as ex:
                reason = f"{type(ex).__name__}: {ex}"
            if reason:
                problems.append(reason)
        elif dumps.setdefault(what, stdout) != stdout:
            problems.append(f"dump output differs across repeats: {what}")
    return len(requests), len(problems), problems
