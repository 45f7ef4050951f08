"""Paired fresh-process timings of two checkouts of the library.

    python3 tools/ab.py --base DIR --head DIR --kind setup|pass --workload W --pairs K
    python3 tools/ab.py --base DIR --head DIR --kind request --pairs K -- ARGV...

Each pair runs one fresh process per side, importing `hasseorder` from that
side's `DIR/src`.  The side that runs first alternates from pair to pair,
so a drift of the host's speed falls on both sides alike.

* `--kind setup` times what the benchmark's `setup_s` times: the import of
  `hasseorder` plus `cli.build_contexts` for every config of
  `workloads.setup_configs(W)`.
* `--kind pass` builds the contexts of a verify workload's config and times
  one `suites.run`; pair i runs on the seed of the benchmark's pass i
  (`workloads.verify_config(W, --seed, i)`).
* `--kind request` times one `python -m hasseorder ARGV` from launch to
  exit, as the benchmark's cli-sweep times each request: start-up,
  imports, contexts and the command itself.

Both sides get the same inputs, from this checkout's
`benchmarks/workloads.py`.  Each side's `src` is compiled first, as
`benchmarks/run.py` does, so no timed process compiles the library.  The
times are raw seconds, not scaled by the benchmark's host-speed probe.  It
prints each pair, then each side's median and quartiles, the ratio of the
medians (head / base) and the number of pairs head won.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "benchmarks"))

import workloads as wl  # noqa: E402

# One timed run: argv[1] is the kind, argv[2] the configs as JSON; prints
# the seconds taken
CHILD = """
import json, sys, time
from types import SimpleNamespace
kind, cfgs = sys.argv[1], json.loads(sys.argv[2])
start = time.perf_counter()
from hasseorder import cli, suites
for cfg in cfgs:
    cli.build_contexts(SimpleNamespace(**cfg))
if kind == "pass":
    start = time.perf_counter()
    suites.run(cfgs[0])
print(time.perf_counter() - start)
"""


def timed(root, kind, configs):
    """Seconds of one fresh process on the checkout at `root`."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-c", CHILD, kind, json.dumps(configs)],
                          env=env, cwd=root, capture_output=True, text=True, check=True)
    return float(proc.stdout)


def timed_request(root, argv):
    """Seconds from launch to exit of one `python -m hasseorder ARGV` on the
    checkout at `root`."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "hasseorder", *argv], env=env, cwd=root,
                   capture_output=True, check=True)
    return time.perf_counter() - start


def summary(times):
    """(median, first quartile, third quartile)."""
    q1, med, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return med, q1, q3


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True)
    ap.add_argument("--head", required=True)
    ap.add_argument("--kind", required=True, choices=("setup", "pass", "request"))
    ap.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("argv", nargs="*", help="the request's arguments, after --")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    if args.kind == "request":
        if not args.argv:
            ap.error("--kind request needs the request's arguments after --")
    elif args.workload is None or args.argv:
        ap.error(f"--kind {args.kind} takes --workload and no request arguments")
    elif args.kind == "pass" and wl.WORKLOADS[args.workload]["kind"] != "verify":
        ap.error(f"{args.workload} has no verify pass")
    sides = {"base": os.path.abspath(args.base), "head": os.path.abspath(args.head)}
    for root in sides.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        os.path.join(root, "src", "hasseorder")], check=True)
    times = {"base": [], "head": []}
    for i in range(args.pairs):
        configs = (wl.setup_configs(args.workload) if args.kind == "setup"
                   else [wl.verify_config(args.workload, args.seed, i)] if args.kind == "pass"
                   else None)
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for side in order:
            root = sides[side]
            times[side].append(timed_request(root, args.argv) if configs is None
                               else timed(root, args.kind, configs))
        print(f"pair {i}: base {times['base'][-1]:.5f} s, head {times['head'][-1]:.5f} s"
              f" ({order[0]} first)", flush=True)
    what = " ".join(args.argv) if args.kind == "request" else args.workload
    print(f"{args.kind} {what}, {args.pairs} pairs:")
    for side, values in times.items():
        med, q1, q3 = summary(values)
        print(f"  {side}: median {med:.5f} s, quartiles {q1:.5f} .. {q3:.5f} s")
    ratio = summary(times["head"])[0] / summary(times["base"])[0]
    wins = sum(h < b for b, h in zip(times["base"], times["head"]))
    print(f"  ratio head/base {ratio:.3f}; head won {wins} of {args.pairs} pairs")
    return times


if __name__ == "__main__":
    main()
