"""BENCHMARK.json lists exactly the metrics and workloads the benchmark reports."""

import json
import re
from pathlib import Path

import run
import workloads as wl

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [s["why"] for s in wl.WORKLOADS.values()]


def test_end_to_end_metrics_match():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_per_layer_metrics_match():
    assert [m["name"] for m in SPEC["per_layer"]] == run.per_layer_names()


def test_names_are_valid_and_unique():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
