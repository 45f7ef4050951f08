"""Workload definitions and seeded input generation.

Every input a run feeds to hasse-order comes from the workload seed: the
`seed` field of each verify pass, and the element expressions of the
`cli-sweep` requests.  The dump requests take no seeded input.
"""

from __future__ import annotations

import random

SUITES = ("finite_field", "local_ring", "witt", "algebra", "tensor", "modcat")

# Fewest requests per cli-sweep run, so that request_s.p90 has ten
# samples above it.
MIN_REQUESTS = 100


def config(d, mode, p=3, f=1, N=8, r=1):
    return {"p": p, "f": f, "d": d, "r": r, "N": N, "mode": mode}


# cli-sweep: (command, config, requests per cycle of 40).  The light evals
# fill the lower three quarters, so the median sits well inside them; the
# 0.5-0.7 s requests (cold (5,2,3) construction, witt-laws' sympy import,
# equal d=4 Peirce, d=8 Milnor basis) fill ranks 35-39, so the 90th
# percentile sits inside that group rather than on its edge.
CLI_MIX = (
    ("eval", config(2, "mixed"), 8),
    ("eval", config(2, "equal"), 8),
    ("eval", config(3, "mixed"), 8),
    ("eval", config(3, "equal"), 7),
    ("eval", config(2, "equal", N=32), 2),
    ("eval", config(3, "mixed", p=5, f=2), 1),
    ("eval", config(3, "equal", p=5, f=2), 1),
    ("dump milnor-basis", config(4, "equal"), 1),
    ("dump peirce", config(4, "equal"), 1),
    ("dump milnor-basis", config(8, "mixed"), 1),
    ("dump peirce", config(8, "mixed"), 1),
    ("dump witt-laws", config(2, "mixed"), 1),
)

# Each workload does a fixed amount of work for a given --seconds, sized by
# the nominal cost of one operation on the reference host (`pass_s`: one
# verify pass, `cycle_s`: one cycle of CLI_MIX), so the inputs a run times
# never depend on how fast the host or the code is.  `setup_samples` fresh
# set-up processes are spread evenly between the operations, so that their
# median averages over the host's drift as the operations do.
WORKLOADS = {
    "verify-mixed-d4": {
        "kind": "verify",
        "config": config(4, "mixed"),
        "pass_s": 4.2,
        "setup_samples": 35,
        "why": "mixed characteristic: time goes to algebra, tensor and "
               "modcat on top of the cheap integer T kernel; ff is idle",
    },
    "verify-equal-d2": {
        "kind": "verify",
        "config": config(2, "equal"),
        "pass_s": 11.0,
        "setup_samples": 36,
        "why": "equal characteristic: RingElem arithmetic runs through ff, "
               "witt takes a quarter of the pass; tensor is idle",
    },
    "cli-sweep": {
        "kind": "cli",
        "cycle_s": 9.0,
        "setup_samples": 8,
        "why": "one-shot eval/dump processes: start-up, imports, field "
               "construction, embedding_root, parser and cli formatting",
    },
}


# Fewest verify passes per run: the first seed twice, then one more.
MIN_PASSES = 3


def verify_passes(workload, seconds):
    """Number of timed verify passes in a run of `seconds`."""
    return max(MIN_PASSES, round(seconds / WORKLOADS[workload]["pass_s"]))


def traced_passes(workload, seconds):
    """Number of traced verify passes; tracing about doubles a pass."""
    return max(1, round(seconds / (2 * WORKLOADS[workload]["pass_s"])))


def cli_cycles(seconds):
    """Number of cycles of the request list in a cli-sweep run."""
    per_cycle = sum(count for _cmd, _cfg, count in CLI_MIX)
    return max(-(-MIN_REQUESTS // per_cycle),
               round(seconds / WORKLOADS["cli-sweep"]["cycle_s"]))


def setup_per_slot(workload, operations):
    """Set-up samples to take before the first and after each operation."""
    return -(-WORKLOADS[workload]["setup_samples"] // (operations + 1))


def verify_config(workload, seed, index):
    """The config of verify pass `index` of a run.

    Pass 1 repeats the seed of pass 0, for the determinism check; every
    later pass takes a new seed.  The cost of a pass depends on its seed
    by up to 20%, so spreading a run over a fixed list of seeds steadies
    its median."""
    k = max(index - 1, 0)
    return dict(WORKLOADS[workload]["config"], seed=seed * 1000 + k)


def setup_configs(workload):
    """Every (p, f, d, r, N, mode) the workload builds contexts for."""
    spec = WORKLOADS[workload]
    if spec["kind"] == "verify":
        return [spec["config"]]
    seen = []
    for _cmd, cfg, _count in CLI_MIX:
        if cfg not in seen:
            seen.append(cfg)
    return seen


def expression(rng, cfg):
    """A random element of A with a fixed shape, so its cost barely
    depends on the seed."""
    c = [rng.choice([k for k in range(-9, 10) if k]) for _ in range(6)]
    top = f"x^{cfg['d'] - 1}"
    unif = "t" if cfg["mode"] == "equal" else "pK"
    return (f"({c[0]} + {c[1]}*th + {c[2]}*x)*({c[3]} + {c[4]}*th^2*{top})"
            f" + {c[5]}*{unif}*x")


def cli_flags(cfg):
    return ["--p", str(cfg["p"]), "--f", str(cfg["f"]), "--d", str(cfg["d"]),
            "--r", str(cfg["r"]), "--N", str(cfg["N"]), "--mode", cfg["mode"]]


def cli_cycle(seed):
    """The request list one cycle of cli-sweep sends, in order.

    Each request is a dict with `kind`, `config`, `argv` (arguments after
    `python -m hasseorder`) and, for evals, `expr`.
    """
    rng = random.Random(f"cli-sweep:{seed}")
    cycle = []
    for cmd, cfg, count in CLI_MIX:
        for _ in range(count):
            words = cmd.split()
            req = {"kind": f"{cmd} {cfg['mode']} p{cfg['p']} f{cfg['f']} "
                           f"d{cfg['d']} N{cfg['N']}",
                   "config": cfg}
            if words[0] == "eval":
                req["expr"] = expression(rng, cfg)
                req["argv"] = cli_flags(cfg) + ["--output", "json", "eval",
                                                req["expr"]]
            else:
                req["argv"] = cli_flags(cfg) + words
            cycle.append(req)
    rng.shuffle(cycle)
    return cycle
