"""Smoke tests of the scripts in `tools/`, run in-process, and a static
check of the library's source."""

import ast
import importlib.util
import os
import re

TOOLS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools")
SRC = os.path.join(TOOLS, "..", "src", "hasseorder")


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(TOOLS, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pass_calls_counts_one_pass(capsys):
    """One pass at d = 2: a row per suite and one for `(run)`, then their
    total; the finish labels name one function per kind of finish in the
    kernel: four kept by rings, one of them compiled, and the loop of
    one-off kernels."""
    tool = load_tool("pass_calls")
    from hasseorder import localring, suites
    assert len(tool.finish_labels(localring)) == 5
    tool.main(["--d", "2", "--passes", "1"])
    header, *rows, total = capsys.readouterr().out.splitlines()
    assert header.split() == ["suite", "calls", "finish"]
    assert [row.split()[0] for row in rows] == [*suites.SUITES, "(run)"]
    counts = [list(map(int, row.split()[1:])) for row in rows]
    assert total.split() == ["total", *map(str, map(sum, zip(*counts)))]
    assert all(calls > 0 for calls, _ in counts) and sum(f for _, f in counts) > 0


def test_output_digests_is_deterministic(capsys):
    """Two runs on one small config per mode print the same lines, one per
    run of the matrix, each `<exit> <SHA-256 hex> <argv>`; every error path
    exits 2."""
    tool = load_tool("output_digests")
    from hasseorder import suites
    small = {"mixed": [(2, 1, 2, 1, 4)], "equal": [(2, 1, 1, 0, 4)]}
    tool.CONFIGS = tool.FAULT_CONFIGS = tool.EVAL_CONFIGS = small
    outs = []
    for _ in range(2):
        tool.main()
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    lines = outs[0].splitlines()
    errors = len(tool.BAD_NAMES) + 3 * len(tool.BAD_PARAMS) + len(tool.BAD_EXPRS)
    assert len(lines) == 2 * (2 + len(tool.DUMPS) + 2 * len(tool.EXPRS)
                              + len(suites.FAULTS)) + errors
    assert [line.split()[0] for line in lines[-errors:]] == ["2"] * errors
    for line, argv in zip(lines, tool.runs()):
        assert re.fullmatch(r"\d+ [0-9a-f]{64} " + re.escape(" ".join(argv)), line)


def floats(tree):
    """The nodes of a module that compute with floats: true division, float
    literals, float(...), and math functions other than gcd and comb."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            yield node
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr not in ("gcd", "comb")):
            yield node


def test_library_is_integer_only():
    """Arithmetic in the library is exact: no module computes with floats."""
    names = sorted(n for n in os.listdir(SRC) if n.endswith(".py"))
    assert "localring.py" in names
    found = []
    for name in names:
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        found += [f"{name}:{node.lineno}" for node in floats(tree)]
    assert found == []
    sample = "a / b\nc /= 2\n0.5\nfloat(x)\nmath.log2(e)\nmath.gcd(a, b) // 2"
    assert sorted(node.lineno for node in floats(ast.parse(sample))) == [1, 2, 3, 4, 5]


def test_ab_runs_an_aa_pair(capsys, monkeypatch):
    """Two setup pairs of one checkout against itself on a tiny config: a
    line per pair, each side's median and quartiles, the ratio and the win
    count."""
    tool = load_tool("ab")
    tiny = [{"p": 2, "f": 1, "d": 2, "r": 1, "N": 2, "mode": "mixed"}]
    monkeypatch.setattr(tool.wl, "setup_configs", lambda workload: tiny)
    root = os.path.join(TOOLS, "..")
    times = tool.main(["--base", root, "--head", root, "--kind", "setup",
                       "--workload", "cli-sweep", "--pairs", "2"])
    assert [len(times[side]) for side in ("base", "head")] == [2, 2]
    assert all(t > 0 for side in times.values() for t in side)
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["pair 0", "pair 1"]
    assert "(base first)" in lines[0] and "(head first)" in lines[1]
    assert lines[2] == "setup cli-sweep, 2 pairs:"
    assert lines[3].startswith("  base: median ") and lines[4].startswith("  head: median ")
    assert re.fullmatch(r"  ratio head/base \d+\.\d{3}; head won [012] of 2 pairs", lines[5])


def test_ab_runs_an_aa_request_pair(capsys):
    """Two request pairs of one checkout against itself, each side one
    fresh `python -m hasseorder` process: the same report as the other
    kinds, headed by the request's arguments."""
    tool = load_tool("ab")
    root = os.path.join(TOOLS, "..")
    argv = ["--p", "2", "--f", "1", "--d", "2", "--r", "1", "--N", "2", "eval", "x"]
    times = tool.main(["--base", root, "--head", root, "--kind", "request",
                       "--pairs", "2", "--", *argv])
    assert [len(times[side]) for side in ("base", "head")] == [2, 2]
    assert all(t > 0 for side in times.values() for t in side)
    lines = capsys.readouterr().out.splitlines()
    assert "(base first)" in lines[0] and "(head first)" in lines[1]
    assert lines[2] == f"request {' '.join(argv)}, 2 pairs:"
    assert re.fullmatch(r"  ratio head/base \d+\.\d{3}; head won [012] of 2 pairs", lines[5])
