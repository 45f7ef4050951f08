"""Smoke tests of the scripts in `tools/`, run in-process."""

import importlib.util
import os
import re

TOOLS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools")


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(TOOLS, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pass_calls_counts_one_pass(capsys):
    """One pass at d = 2: a row per suite and one for `(run)`, then their
    total; the finish labels name one function per branch of the kernel."""
    tool = load_tool("pass_calls")
    from hasseorder import localring, suites
    assert len(tool.finish_labels(localring)) == 4
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
