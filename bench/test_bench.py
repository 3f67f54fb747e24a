"""Tests of the benchmark itself: python3 -m pytest -q bench

Tiny runs keep the first few ops of one pass, so the whole file takes
well under a minute.
"""

import copy
import json
from fractions import Fraction

import pytest

import oracles
import run
import tracing
import workloads

run.use_checkout_source()

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(name, ops_per_pass=3, kinds=None):
    """The named workload, cut to a few ops of one kind per pass."""
    base = workloads.WORKLOADS[name]
    w = copy.copy(base)

    def ops(state, seed):
        return [op for op in base.ops(state, seed)
                if kinds is None or op.kind in kinds][:ops_per_pass]

    w.ops = ops
    return w


def units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_reports_every_end_to_end_metric(name):
    line = run.report(tiny(name), seed=1, seconds=0, trace=0)
    assert {k: v["unit"] for k, v in line["metrics"].items()} == \
        units("end_to_end")
    assert all(v["value"] > 0 for v in line["metrics"].values())
    assert line["correct"] and line["attempted"] >= 3


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_traced_run_reports_every_per_layer_metric(name):
    line = run.report(tiny(name), seed=1, seconds=0, trace=1)
    assert {k: v["unit"] for k, v in line["metrics"].items()} == \
        units("per_layer")
    assert line["correct"]
    m = line["metrics"]
    assert m["trace.timed_wall_s"]["value"] >= \
        m["trace.wrapped_self_s"]["value"] > 0
    assert (run.SPANS_DIR / ("spans-%s.bin" % name)).is_file()


def test_typical_latency_cancels_host_speed():
    def result(latencies, probe_s):
        res = run.Result()
        res.pass_starts = list(range(0, len(latencies), 3))
        res.latencies = latencies
        res.probes = [(i, probe_s) for i in range(len(latencies))]
        return res

    fast = result([0.010, 0.030, 0.020], 0.001)
    slow = result([0.020, 0.060, 0.040], 0.002)    # a host half as fast
    assert run.typical_latencies(fast) == pytest.approx([10, 30, 20])
    assert run.typical_latencies(slow) == pytest.approx([10, 30, 20])
    # one stalled op in one of three passes leaves the median alone
    stalled = result([0.010, 0.030, 0.020, 0.010, 0.300, 0.020,
                      0.010, 0.030, 0.020], 0.001)
    assert run.typical_latencies(stalled) == pytest.approx([10, 30, 20])


def test_bench_spec_matches_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_wrong_torus_bracket_oracle_fails_ops(monkeypatch):
    def off_by_one(p, s, t, s2, t2):
        return {((s + s2) * p, (t + t2) * p): Fraction(t * s2 - t2 * s + 1)}

    w = tiny("hamiltonian", 4, kinds={"torus_bracket"})
    good = run.report(w, seed=1, seconds=0, trace=0)
    assert good["failed"] == 0 and good["correct"]
    monkeypatch.setattr(oracles, "torus_bracket", off_by_one)
    bad = run.report(w, seed=1, seconds=0, trace=0)
    assert bad["failed"] == bad["attempted"] == 4 and not bad["correct"]


def test_wrong_cli_golden_fails_its_op(monkeypatch):
    cases = [c for c in oracles.CLI_CASES if not c.defect]
    monkeypatch.setattr(oracles, "CLI_CASES", cases)
    good = run.report(tiny("cli", len(cases)), seed=1, seconds=0, trace=0)
    assert good["failed"] == 0
    wrong = cases[0]._replace(stdout=cases[0].stdout + " ")
    monkeypatch.setattr(oracles, "CLI_CASES", [wrong] + cases[1:])
    bad = run.report(tiny("cli", len(cases)), seed=1, seconds=0, trace=0)
    assert bad["failed"] == 1 and not bad["correct"]


def test_known_cli_defects_count_as_failed_not_wrong():
    defects = [c for c in oracles.CLI_CASES if c.defect]
    assert len(defects) == 2
    cli = workloads.WORKLOADS["cli"]
    res = run.run_ops(cli, 1, run.set_up_states(cli, []), seconds=0)
    assert len(res.latencies) == len(oracles.CLI_CASES) * workloads.CLI_REPEATS
    assert res.failed == 2 * workloads.CLI_REPEATS and res.wrong == 0


def test_tracer_restores_every_wrapped_attribute():
    run.fresh_import(("ncham", "ncham.cli"))
    before = {}
    for entry in tracing.ENTRY_POINTS:
        for target in entry.targets:
            owner, attr = tracing._resolve(target)
            before[target] = (attr in vars(owner), getattr(owner, attr))
    tracer = tracing.Tracer()
    tracer.install()
    for target in before:
        owner, attr = tracing._resolve(target)
        assert hasattr(getattr(owner, attr), "__wrapped__"), target
    tracer.restore()
    for target, (own, original) in before.items():
        owner, attr = tracing._resolve(target)
        assert (attr in vars(owner)) == own, target
        assert getattr(owner, attr) is original, target


def test_spans_nest_and_self_times_add_up():
    run.fresh_import(("ncham",))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        from ncham.models import build_model

        tracer.active = True
        tracer.op_id = 0
        model = build_model("torus:p=2")
        model.solver.poisson(model.calculus.element([("u", 2), ("v", 2)]),
                             model.calculus.element([("u", 2), ("v", 4)]))
        tracer.active = False
    finally:
        tracer.restore()
    assert sum(tracer.self_s) == pytest.approx(tracer.op_self_s())
    for i, parent in enumerate(tracer.parents):
        if parent >= 0:
            assert tracer.starts[parent] <= tracer.starts[i] \
                <= tracer.ends[i] <= tracer.ends[parent]
    m = tracer.metrics()
    assert m["models.build_model.calls"] == 1
    assert m["linalg.factor.rank"] == m["linalg.factor.cols"] > 0
