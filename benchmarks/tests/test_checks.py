"""Tests of the output checks: they pass on good output and count bad output."""

import copy
import json

from hasseorder import cli, suites

import checks
import workloads as wl

SMALL = {"p": 3, "f": 1, "d": 2, "r": 1, "N": 8, "mode": "mixed", "seed": 0}


def _run_cli(argv, capsys):
    rc = cli.main(argv)
    return rc, capsys.readouterr().out


def test_verify_passes_clean_and_repeatable():
    passes = [checks.summarize(suites.run(SMALL, ["algebra"])) for _ in range(2)]
    attempted, failed, problems = checks.check_passes(passes)
    assert failed == 0 and not problems
    assert attempted == 2 * passes[0]["cases"] + 1


def test_injected_fault_gives_positive_fail_ratio():
    report = suites.run(SMALL, ["algebra"], fault="algebra.nrd")
    attempted, failed, _ = checks.check_passes([checks.summarize(report)])
    assert failed / attempted > 0


def test_changed_report_fails_the_repeat_check():
    report = suites.run(SMALL, ["finite_field"])
    other = copy.deepcopy(report)
    other["suites"][0]["cases"] += 1
    other["wall_time"] = report["wall_time"] + 1.0
    same = copy.deepcopy(report)
    same["wall_time"] = report["wall_time"] + 1.0
    passes = [checks.summarize(r) for r in (report, same, other)]
    _attempted, failed, problems = checks.check_passes(passes)
    assert failed == 1 and "pass 2" in problems[0]


def _sample_requests(capsys):
    cycle = wl.cli_cycle(3)
    light = [r for r in cycle if r["kind"].startswith(("eval mixed p3 f1 d2",
                                                       "eval equal p3 f1 d3"))][:2]
    heavy = [r for r in cycle if r["kind"].startswith("eval equal p5")][:1]
    dump = [r for r in cycle if r["kind"].startswith("dump milnor-basis equal")]
    requests = light + heavy + dump + dump
    return requests, [_run_cli(r["argv"], capsys) for r in requests]


def test_cli_outputs_pass_the_oracle(capsys):
    requests, results = _sample_requests(capsys)
    attempted, failed, problems = checks.check_requests(requests, results)
    assert (attempted, failed, problems) == (len(requests), 0, [])


def test_corrupted_cli_output_gives_positive_fail_ratio(capsys):
    requests, results = _sample_requests(capsys)
    rc, out = results[0]
    doc = json.loads(out)
    doc["Nrd"] = doc["Nrd"] + " + 1"
    results[0] = (rc, json.dumps(doc))
    attempted, failed, problems = checks.check_requests(requests, results)
    assert failed / attempted > 0 and "Nrd" in problems[0]


def test_failed_exit_unparsable_output_and_changed_dump_are_counted(capsys):
    requests, results = _sample_requests(capsys)
    results[1] = (2, results[1][1])
    results[2] = (0, "canonical: x")
    results[-1] = (0, results[-1][1].replace("1", "2", 1))
    _attempted, failed, problems = checks.check_requests(requests, results)
    assert failed == 3
    assert problems[0].startswith("exit 2")
    assert problems[1].startswith("unparsable")
    assert problems[2].startswith("dump output differs")
