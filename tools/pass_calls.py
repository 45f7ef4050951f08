"""Print, per suite, the interpreter calls and the kernel `finish` calls of
`verify` passes of one config and seed, under cProfile.

Unlike wall times, these counts repeat exactly from run to run, so a change
that removes work can report them next to its noisy timings.  A `finish`
call is one reduction of a packed sum by G and p^e in the coefficient
kernel (a `finish` of `localring._packed_sums`, any of its five kinds);
every packed ring product, matrix entry, skew-product coefficient and
packed p-th power ends in one.  The row `(run)` is what `suites.run` does
outside the suites, such as building the contexts.

    python3 tools/pass_calls.py --d 4 --mode mixed --passes 3

`--src` imports the library from another checkout's `src` directory, so
two versions can be counted by the same script.
"""

import argparse
import cProfile
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _label(code):
    return (code.co_filename, code.co_firstlineno, code.co_name)


def finish_labels(lr):
    """The labels of the kernel's finish functions: one per kind that
    `localring._packed_sums` returns (one slot, a lambda; n = 1 at m > 1,
    compiled, one label for every shape; n > 1 at m = 1, a lambda; n > 1
    at m > 1), taken from rings that reach each, and the n = 1 loop that
    one-off kernels such as `localring._pth_power` keep."""
    mixed, equal = lr.base_ring(3, 1, 2, lr.MIXED), lr.base_ring(3, 1, 2, lr.EQUAL)
    rings = (mixed, lr.unramified(mixed, 2), equal, lr.unramified(equal, 2))
    loop = lr._packed_sums(2, 1, 3, lr._red_table(rings[1].poly, 2, 3), 255)[1]
    return {_label(f.__code__) for f in (loop, *(ring._sum_kernel(1)[1] for ring in rings))}


def counts(profile, finish_at):
    """(total calls, kernel finish calls) of a cProfile.Profile.

    Summed over the profiler's raw entries, one per code object: pstats
    keys them by (file, line, name) and keeps one of the code objects that
    share a key (nested comprehensions on one line), which makes its
    totals vary from run to run."""
    entries = profile.getstats()
    finish = sum(e.callcount for e in entries
                 if not isinstance(e.code, str) and _label(e.code) in finish_at)
    return sum(e.callcount for e in entries), finish


def profile_passes(suites, cfg, passes):
    """{row: cProfile.Profile} over `passes` runs of suites.run(cfg)."""
    outer = cProfile.Profile()
    inner = {name: cProfile.Profile() for name in suites.SUITES}
    originals = dict(suites.SUITES)

    def profiled(name, fn):
        def run_suite(*args):
            outer.disable()
            inner[name].enable()
            try:
                return fn(*args)
            finally:
                inner[name].disable()
                outer.enable()
        return run_suite

    suites.SUITES.update({name: profiled(name, fn) for name, fn in originals.items()})
    try:
        for _ in range(passes):
            outer.enable()
            try:
                suites.run(cfg)
            finally:
                outer.disable()
    finally:
        suites.SUITES.update(originals)
    return {**inner, "(run)": outer}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--p", type=int, default=3)
    ap.add_argument("--f", type=int, default=1)
    ap.add_argument("--d", type=int, default=4)
    ap.add_argument("--r", type=int, default=1)
    ap.add_argument("--N", type=int, default=8)
    ap.add_argument("--mode", default="mixed", choices=("mixed", "equal"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("--src", default=os.path.join(HERE, "..", "src"),
                    help="directory to import hasseorder from")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from hasseorder import localring, suites
    cfg = {"p": args.p, "f": args.f, "d": args.d, "r": args.r, "N": args.N,
           "mode": args.mode, "seed": args.seed}
    profiles = profile_passes(suites, cfg, args.passes)
    # built after the passes, so that its rings warm no cache they use
    finish_at = finish_labels(localring)
    rows = {name: counts(prof, finish_at) for name, prof in profiles.items()}
    print(f"{'suite':<14}{'calls':>12}{'finish':>10}")
    for name, (calls, finish) in rows.items():
        print(f"{name:<14}{calls:>12}{finish:>10}")
    print(f"{'total':<14}{sum(c for c, _ in rows.values()):>12}"
          f"{sum(f for _, f in rows.values()):>10}")


if __name__ == "__main__":
    main()
