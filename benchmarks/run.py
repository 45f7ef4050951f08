"""hasse-order benchmark: verify passes and one-shot CLI requests.

    python3 benchmarks/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from `src/`.  The
load is a closed loop with one operation in flight and no threads: the
next verify pass or CLI process starts when the previous one has ended.
A run does a fixed amount of work for its `--seconds` (workloads.py), so
which inputs it times depends on the seed alone, not on the host's speed.
Its timings are scaled to the reference host's speed by a host-speed probe
run between operations (reference.py, `speed_scale`).

With `--trace 0` the run measures the end-to-end metrics; with `--trace 1`
it runs the workload again with every public hasseorder function wrapped
(see tracer.py) and reports per-layer metrics and the tracing overhead.
Each run prints a table of its metrics, writes a result file under
`.bench_out/`, and ends with one JSON line.  It exits 1 when an output
check fails and 2 when the library sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import reference
import tracer as tracemod
import workloads as wl

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
OUT_DIR = ".bench_out"
CHILD_TIMEOUT = 170   # seconds; no single child may take longer
PROBE_UNITS = 50      # host-speed probe units per slot, about 0.5 s

# Gated metrics, reported by every workload: (name, unit).
END_TO_END = (("setup_s", "s"), ("op_s.p50", "s"), ("sweep_s", "s"),
              ("peak_rss_mb", "MB"))
TRACE_EXTRA = ("trace.op_s", "trace.overhead_s", "trace.unattributed_s", "import_s")


def per_layer_names():
    return tracemod.metric_names(wl.SUITES) + list(TRACE_EXTRA)


class BenchError(Exception):
    """A child process failed or the checkout cannot be benchmarked."""


# ---------------------------------------------------------------------------
# child processes

class Runner:
    """Starts the children of one run, with the library on PYTHONPATH."""

    def __init__(self, root):
        self.root = root
        self.src = root / "src"
        self.out = root / OUT_DIR
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(self.src)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))

    def worker(self, *args):
        """Run worker.py; returns its stdout."""
        proc = subprocess.run([sys.executable, str(WORKER), *args], env=self.env,
                              cwd=self.root, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
        if proc.returncode != 0:
            raise BenchError(f"worker {args[0]} exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
        return proc.stdout

    def process(self, argv):
        """Run one request process; (seconds, returncode, stdout, rss MB).

        The time runs from launch to exit; rusage comes from wait4 so
        the peak RSS is this child's own."""
        out_path, err_path = self.out / "request.out", self.out / "request.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out,
                                    stderr=err, env=self.env, cwd=self.root)
            signal.alarm(CHILD_TIMEOUT)
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            except TimeoutError:
                proc.kill()
                proc.wait()
                raise BenchError(f"request timed out: {argv}") from None
            finally:
                signal.alarm(0)
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (elapsed, proc.returncode, out_path.read_text(),
                usage.ru_maxrss / 1024)

    def slot(self, workload, count, setup, probe):
        """The work between two operations: `count` `setup_s` samples, each
        from a fresh worker process, appended to `setup`.  Each process
        then runs its share of the slot's PROBE_UNITS host-speed probe
        units, whose times are appended to `probe`."""
        configs = json.dumps(wl.setup_configs(workload))
        units = str(-(-PROBE_UNITS // count))
        for _ in range(count):
            sample = json.loads(self.worker("setup", configs, units))
            probe += sample.pop("probe")
            setup.append(sample)


def _on_alarm(_signum, _frame):
    raise TimeoutError


# ---------------------------------------------------------------------------
# statistics

def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with a share q at or below."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def high_percentile(values):
    """(q, value) for the highest of p99/p95/p90 that has at least ten
    samples above it; needs at least 100 samples."""
    n = len(values)
    q = next(q for q in (0.99, 0.95, 0.90) if n - math.ceil(q * n) >= 10)
    return q, percentile(values, q)


def speed_scale(probe):
    """Factor that takes a run's timings to the reference host's speed:
    the probe's nominal unit time over its mean unit time in this run."""
    return reference.UNIT_S / statistics.mean(probe)


def sweep_time(cycle, requests, times):
    """Time of one cycle of the request list: per request kind, the kind's
    median time, weighted by how often the kind occurs in one cycle."""
    per_kind = {}
    for req, t in zip(requests, times):
        per_kind.setdefault(req["kind"], []).append(t)
    counts = Counter(req["kind"] for req in cycle)
    return sum(n * statistics.median(per_kind[k]) for k, n in counts.items())


# ---------------------------------------------------------------------------
# workloads

def timed_verify(runner, workload, seed, seconds):
    """Fixed list of passes, each in a fresh process, set-up samples between."""
    from checks import check_passes
    count = wl.verify_passes(workload, seconds)
    per_slot = wl.setup_per_slot(workload, count)
    setup, probe, passes = [], [], []
    runner.slot(workload, per_slot, setup, probe)
    for index in range(count):
        passes.append(json.loads(runner.worker("verify", workload, str(seed), str(index))))
        runner.slot(workload, per_slot, setup, probe)
    attempted, failed, problems = check_passes([p["pass"] for p in passes])
    times = [p["seconds"] for p in passes]
    rss = max(p["peak_rss_mb"] for p in passes)
    scale = speed_scale(probe)
    raw_setup = statistics.median(s["seconds"] for s in setup)
    raw_verify = statistics.median(times)
    setup_s, verify_s = scale * raw_setup, scale * raw_verify
    return {
        "metrics": {"setup_s": (setup_s, "s"), "op_s.p50": (verify_s, "s"),
                    "sweep_s": (verify_s, "s"), "peak_rss_mb": (rss, "MB")},
        "report": [_scale_row(probe, scale),
                   ("setup_s", setup_s, "s", f"median of {len(setup)} fresh processes; "
                                             f"raw {raw_setup:.4g} s"),
                   ("verify_s", verify_s, "s", f"median of {len(times)} passes; "
                                               f"raw {raw_verify:.4g} s"),
                   ("fail_ratio", failed / attempted, "ratio",
                    f"{failed} of {attempted} checks"),
                   ("peak_rss_mb", rss, "MB", "largest pass process")],
        "attempted": attempted, "failed": failed, "problems": problems,
        "samples": {"setup_s": setup, "verify_s": times, "probe_s": probe},
        "sources": [p["source"] for p in passes] + [s["source"] for s in setup],
    }


def timed_cli(runner, workload, seed, seconds):
    """Whole cycles of the request list, set-up samples between cycles."""
    cycles = wl.cli_cycles(seconds)
    per_slot = wl.setup_per_slot(workload, cycles)
    setup, probe = [], []
    runner.slot(workload, per_slot, setup, probe)
    cycle = wl.cli_cycle(seed)
    requests, times, results, rss = [], [], [], []
    for _ in range(cycles):
        for req in cycle:
            elapsed, rc, stdout, mb = runner.process(["-m", "hasseorder", *req["argv"]])
            requests.append(req)
            times.append(elapsed)
            results.append((rc, stdout))
            rss.append(mb)
        runner.slot(workload, per_slot, setup, probe)
    from checks import check_requests
    attempted, failed, problems = check_requests(requests, results)
    scale = speed_scale(probe)
    raw_setup = statistics.median(s["seconds"] for s in setup)
    raw_p50 = statistics.median(times)
    q, raw_high = high_percentile(times)
    raw_sweep = sweep_time(cycle, requests, times)
    setup_s, p50, high, sweep_s = (scale * t for t in (raw_setup, raw_p50,
                                                       raw_high, raw_sweep))
    return {
        "metrics": {"setup_s": (setup_s, "s"), "op_s.p50": (p50, "s"),
                    "sweep_s": (sweep_s, "s"), "peak_rss_mb": (max(rss), "MB")},
        "report": [_scale_row(probe, scale),
                   ("setup_s", setup_s, "s", f"median of {len(setup)} fresh processes; "
                                             f"raw {raw_setup:.4g} s"),
                   ("request_s.p50", p50, "s", f"{len(times)} requests; raw {raw_p50:.4g} s"),
                   (f"request_s.p{round(q * 100)}", high, "s",
                    f"{len(times) - math.ceil(q * len(times))} requests above it; "
                    f"raw {raw_high:.4g} s"),
                   ("sweep_s", sweep_s, "s", f"one cycle of {len(cycle)} requests; "
                                             f"raw {raw_sweep:.4g} s"),
                   ("fail_ratio", failed / attempted, "ratio",
                    f"{failed} of {attempted} requests"),
                   ("peak_rss_mb", max(rss), "MB", "largest request process")],
        "attempted": attempted, "failed": failed, "problems": problems,
        "samples": {"setup_s": setup, "request_s": times, "probe_s": probe,
                    "request_kind": [r["kind"] for r in requests]},
        "sources": [s["source"] for s in setup],
    }


def _scale_row(probe, scale):
    return ("speed_scale", scale, "x", f"{reference.UNIT_S} s / mean of "
                                       f"{len(probe)} probe units")


def traced_verify(runner, workload, seed, seconds):
    from checks import check_passes
    trace_path = runner.out / f"trace-{workload}-seed{seed}.json"
    res = json.loads(runner.worker("traced", workload, str(seed),
                                   str(wl.traced_passes(workload, seconds)),
                                   str(trace_path)))
    attempted, failed, problems = check_passes(res["passes"])
    times, untraced = res["times"], res["untraced_times"]
    metrics = tracemod.layer_metrics(res["totals"], len(times), wl.SUITES)
    attributed = sum(metrics[f"{m}.self_s"][0] for m in tracemod.MODULES)
    metrics.update({
        "trace.op_s": (statistics.median(times), "s"),
        "trace.overhead_s": (statistics.median(times) - statistics.median(untraced), "s"),
        # timed outside suites.run, which the tracer leaves unwrapped
        "trace.unattributed_s": (statistics.mean(times) - attributed, "s"),
        "import_s": (res["import_s"], "s"),
    })
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "report": _trace_report(metrics, "verify_s"),
            "samples": {"verify_s": untraced, "traced_verify_s": times},
            "sources": [res["source"]], "trace_file": str(trace_path)}


def traced_cli(runner, workload, seed, seconds):
    from checks import check_requests
    cycle = wl.cli_cycle(seed)
    untraced, traced, results, parts, imports, exports = [], [], [], [], [], []
    for req in cycle:
        elapsed, rc, stdout, _mb = runner.process(["-m", "hasseorder", *req["argv"]])
        untraced.append(elapsed)
        results.append((rc, stdout))
    part_path = runner.out / "request-trace.json"
    out_path = runner.out / "request-traced.out"
    for req in cycle:
        out_path.write_text("")
        part_path.unlink(missing_ok=True)
        elapsed, rc, _stdout, _mb = runner.process(
            [str(WORKER), "request", str(out_path), str(part_path), *req["argv"]])
        traced.append(elapsed)
        results.append((rc, out_path.read_text()))
        if part_path.exists():   # absent when the request failed
            part = json.loads(part_path.read_text())
            parts.append(part["totals"])
            imports.append(part["import_s"])
            exports.append({"argv": req["argv"], **part["trace"]})
    trace_path = runner.out / f"trace-{workload}-seed{seed}.json"
    trace_path.write_text(json.dumps(exports))
    attempted, failed, problems = check_requests(cycle + cycle, results)
    metrics = tracemod.layer_metrics(tracemod.merge_totals(parts), 1, wl.SUITES)
    attributed = sum(metrics[f"{m}.self_s"][0] for m in tracemod.MODULES)
    metrics.update({
        "trace.op_s": (statistics.median(traced), "s"),
        "trace.overhead_s": (statistics.median(traced) - statistics.median(untraced), "s"),
        "trace.unattributed_s": (statistics.mean(traced) - statistics.mean(imports)
                                 - attributed / len(cycle), "s"),
        "import_s": (statistics.mean(imports), "s"),
    })
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "report": _trace_report(metrics, "request_s.p50"),
            "samples": {"request_s": untraced, "traced_request_s": traced},
            "sources": [], "trace_file": str(trace_path)}


def _trace_report(metrics, op_name):
    rows = [(f"traced {op_name}", metrics["trace.op_s"][0], "s", "median"),
            ("tracing overhead", metrics["trace.overhead_s"][0], "s",
             f"traced minus untraced {op_name}"),
            ("unattributed", metrics["trace.unattributed_s"][0], "s",
             "traced time outside every module's self time")]
    rows += [(f"{m}.self_s", metrics[f"{m}.self_s"][0], "s", "per cycle")
             for m in tracemod.MODULES]
    return rows


RUNS = {("verify", 0): timed_verify, ("verify", 1): traced_verify,
        ("cli", 0): timed_cli, ("cli", 1): traced_cli}


# ---------------------------------------------------------------------------

def host_facts(root):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu, "commit": commit, "loadavg": os.getloadavg()}


def run_one(runner, workload, seed, seconds, trace):
    host = host_facts(runner.root)
    res = RUNS[(wl.WORKLOADS[workload]["kind"], trace)](runner, workload, seed, seconds)
    src = str(runner.src.resolve())
    foreign = [s for s in res["sources"] if not str(Path(s).resolve()).startswith(src)]
    if foreign:
        res["failed"] += 1
        res["problems"].append(f"hasseorder imported from outside {src}: {foreign[0]}")
    names = per_layer_names() if trace else [n for n, _ in END_TO_END]
    metrics = {n: {"value": res["metrics"][n][0], "unit": res["metrics"][n][1]}
               for n in names}
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "host": host, "result": result,
              "report": res["report"], "problems": res["problems"],
              "samples": res["samples"], "trace_file": res.get("trace_file")}
    path = runner.out / f"result-{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1))

    print(f"== {workload}  seed={seed}  trace={trace}  python={host['python']}  "
          f"nproc={host['nproc']}  loadavg={host['loadavg'][0]:.2f}")
    for name, value, unit, note in res["report"]:
        print(f"  {name:<22} {value:>12.6g} {unit:<6} {note}")
    for problem in res["problems"][:20]:
        print(f"  CHECK FAILED: {problem}")
    print(f"  result file: {path.relative_to(runner.root)}")
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hasseorder" / "__init__.py").is_file():
        print("error: run from the repository root; src/hasseorder is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    signal.signal(signal.SIGALRM, _on_alarm)
    runner = Runner(root)
    runner.out.mkdir(exist_ok=True)
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(runner.src / "hasseorder")], check=True,
                   timeout=CHILD_TIMEOUT)

    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        try:
            result = run_one(runner, name, args.seed, args.seconds, args.trace)
        except BenchError as ex:
            print(f"error: {ex}", file=sys.stderr)
            return 1
        print(json.dumps(result))
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
