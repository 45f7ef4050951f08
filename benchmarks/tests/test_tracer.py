"""Tests of the span tracer: self-time arithmetic and where it patches."""

import pytest

import tracer as tracemod
import workloads as wl
from tracer import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_synthetic_span_tree():
    # top (3s own) -> mid (2s + 0.5s own) -> leaf (1s) twice; top -> leaf
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def leaf():
        clock.now += 1.0

    def mid():
        clock.now += 2.0
        leaf_w()
        clock.now += 0.5
        leaf_w()

    def top():
        clock.now += 3.0
        mid_w()
        leaf_w()

    leaf_w = tr.wrap(leaf, "m.leaf")
    mid_w = tr.wrap(mid, "m.mid")
    top_w = tr.wrap(top, "m.top", coarse=True)
    top_w()

    totals = tr.totals()
    assert totals["m.leaf"] == [3, 3.0, 3.0, 0]
    assert totals["m.mid"] == [1, 4.5, 2.5, 0]
    assert totals["m.top"] == [1, 8.5, 3.0, 0]
    assert tr.agg[("m.leaf", "m.mid")][0] == 2
    assert tr.agg[("m.leaf", "m.top")][0] == 1
    assert tr.agg[("m.top", tracemod.ROOT)][0] == 1
    # only the coarse span is kept individually: name, start, end, parent
    assert tr.spans == [["m.top", 0.0, 8.5, -1]]
    # self times add up to the root span's duration
    assert sum(v[2] for v in totals.values()) == 8.5


def test_nested_coarse_spans_record_parent_and_failures():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def inner():
        clock.now += 1.0
        raise ValueError("refused")

    def outer():
        clock.now += 1.0
        with pytest.raises(ValueError):
            inner_w()

    inner_w = tr.wrap(inner, "m.inner", coarse=True)
    outer_w = tr.wrap(outer, "m.outer", coarse=True)
    outer_w()
    outer_w()
    assert tr.spans == [["m.outer", 0.0, 2.0, -1], ["m.inner", 1.0, 2.0, 0],
                        ["m.outer", 2.0, 4.0, -1], ["m.inner", 3.0, 4.0, 2]]
    assert tr.totals()["m.inner"] == [2, 2.0, 2.0, 2]


def test_layer_metrics_per_cycle_and_ok_ratio():
    totals = {"linalg.rmat_inv": [8, 4.0, 2.0, 2],
              "linalg.rmat_mul": [4, 1.0, 1.0, 0],
              "suites.algebra": [2, 6.0, 0.5, 0]}
    m = tracemod.layer_metrics(totals, 2, wl.SUITES)
    assert m["linalg.rmat_inv.calls"] == (4, "count")
    assert m["linalg.rmat_inv.self_s"] == (1.0, "s")
    assert m["linalg.self_s"] == (1.5, "s")
    assert m["suites.self_s"] == (0.25, "s")
    assert m["suites.algebra.total_s"] == (3.0, "s")
    assert m["linalg.rmat_inv.ok_ratio"] == (0.75, "ratio")
    assert m["algebra.DElem.inv.ok_ratio"] == (0.0, "ratio")   # never called
    assert set(m) == set(tracemod.metric_names(wl.SUITES))


def test_install_patches_every_binding_and_uninstall_restores():
    from hasseorder import cli, ff, localring, parser, suites
    originals = (parser.evaluate, cli.evaluate, suites.SUITES["witt"],
                 localring.RingElem.__mul__, ff.embedding_root)
    run = suites.run
    tr = Tracer().install()
    try:
        assert suites.run is run   # the root of a pass stays unwrapped
        assert cli.evaluate is parser.evaluate
        assert parser.evaluate is not originals[0]
        assert suites.SUITES["witt"] is not originals[2]
        assert localring.RingElem.__mul__ is not originals[3]
        assert ff.embedding_root is not originals[4]
        import hasseorder
        assert hasseorder.base_ring is localring.base_ring
    finally:
        tr.uninstall()
    assert (parser.evaluate, cli.evaluate, suites.SUITES["witt"],
            localring.RingElem.__mul__, ff.embedding_root) == originals


def test_suite_names_match_the_library():
    from hasseorder import suites
    assert tuple(suites.SUITES) == wl.SUITES


# No workload reaches these at this commit: full_norm_trace takes Bareiss
# for mixed f=1 and Leibniz up to 5x5, and the CLI never takes Berkowitz.
UNREACHED = {"linalg.det_berkowitz"}


def test_each_listed_function_is_called_by_some_workload(capsys):
    """Trace one cycle of every workload in-process (about half a minute)."""
    from hasseorder import cli, suites
    tr = Tracer().install()
    try:
        for name, spec in wl.WORKLOADS.items():
            if spec["kind"] == "verify":
                report = suites.run(wl.verify_config(name, 0, 0))
                assert suites.total_failures(report) == 0
        for req in wl.cli_cycle(0):
            assert cli.main(req["argv"]) == 0
        capsys.readouterr()
    finally:
        tr.uninstall()
    calls = tr.totals()
    listed = {f"{mod}.{fn}" for mod, fns in tracemod.REPORTED.items() for fn in fns}
    missing = {name for name in listed if not calls.get(name, [0])[0]}
    assert missing == UNREACHED
