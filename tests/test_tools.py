"""Smoke tests of the scripts in `tools/`, run in-process."""

import importlib.util
import os

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
