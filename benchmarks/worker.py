"""Child-process entry points of the benchmark; each runs in a fresh process.

    worker.py setup CONFIGS_JSON UNITS
        import hasseorder and build S, T, A, A (x)_S T for every config;
        then time UNITS units of the host-speed probe (reference.py);
        prints the elapsed seconds, the probe unit times and the path
        hasseorder came from.
    worker.py verify WORKLOAD SEED INDEX
        set up, then time verify pass INDEX of the run at SEED
        (workloads.verify_config); prints a JSON summary.
    worker.py traced WORKLOAD SEED PASSES TRACE_PATH
        one untraced pass, then PASSES traced passes, all of pass 0's
        config; prints a JSON summary and writes the trace to TRACE_PATH.
    worker.py request STDOUT_PATH TRACE_PATH ARG...
        one `hasse-order ARG...` request run through cli.main with the
        tracer installed; the CLI output goes to STDOUT_PATH.

Only the standard library, reference.py, tracer.py and workloads.py are
imported before the timed import of hasseorder.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
from types import SimpleNamespace

import reference
import tracer as tracemod
import workloads as wl


def setup(configs, units):
    start = time.perf_counter()
    import hasseorder
    from hasseorder import cli
    for cfg in configs:
        cli.build_contexts(SimpleNamespace(**cfg))
    elapsed = time.perf_counter() - start
    return {"seconds": elapsed, "probe": reference.probe(units),
            "source": hasseorder.__file__}


def _timed_pass(suites, cfg):
    start = time.perf_counter()
    report = suites.run(cfg)
    return time.perf_counter() - start, report


def verify(workload, seed, index):
    import hasseorder
    from hasseorder import cli, suites
    from checks import summarize
    cfg = wl.verify_config(workload, seed, index)
    cli.build_contexts(SimpleNamespace(**cfg))
    elapsed, report = _timed_pass(suites, cfg)
    return {"source": hasseorder.__file__, "seconds": elapsed,
            "pass": summarize(report), "peak_rss_mb": _peak_rss_mb()}


def traced(workload, seed, passes, trace_path):
    start = time.perf_counter()
    import hasseorder
    from hasseorder import cli, suites
    import_s = time.perf_counter() - start
    from checks import summarize
    cfg = wl.verify_config(workload, seed, 0)
    cli.build_contexts(SimpleNamespace(**cfg))
    elapsed, report = _timed_pass(suites, cfg)
    out = {"source": hasseorder.__file__, "import_s": import_s,
           "untraced_times": [elapsed], "times": [],
           "passes": [summarize(report)]}
    tracer = tracemod.Tracer().install()
    for _ in range(passes):
        elapsed, report = _timed_pass(suites, cfg)
        out["times"].append(elapsed)
        out["passes"].append(summarize(report))
    tracer.uninstall()
    out["totals"] = tracer.totals()
    with open(trace_path, "w") as fh:
        json.dump(tracer.export(), fh)
    return out


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def request(stdout_path, trace_path, argv):
    start = time.perf_counter()
    from hasseorder import cli
    import_s = time.perf_counter() - start
    tracer = tracemod.Tracer().install()
    with open(stdout_path, "w") as fh, contextlib.redirect_stdout(fh):
        rc = cli.main(argv)
    tracer.uninstall()
    with open(trace_path, "w") as fh:
        json.dump({"import_s": import_s, "totals": tracer.totals(),
                   "trace": tracer.export()}, fh)
    return rc


def main(argv):
    cmd = argv[0]
    if cmd == "setup":
        print(json.dumps(setup(json.loads(argv[1]), int(argv[2]))))
    elif cmd == "verify":
        print(json.dumps(verify(argv[1], int(argv[2]), int(argv[3]))))
    elif cmd == "traced":
        print(json.dumps(traced(argv[1], int(argv[2]), int(argv[3]), argv[4])))
    elif cmd == "request":
        return request(argv[1], argv[2], argv[3:])
    else:
        raise SystemExit(f"unknown worker command {cmd!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
