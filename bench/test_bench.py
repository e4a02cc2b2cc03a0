"""Self-tests of the benchmark: span arithmetic, repeat counting, failure
accounting and the metric names.  Run with: python3 -m pytest bench -q"""
from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
from spans import RepeatCounter, Tracer, self_times  # noqa: E402
from worker import run_cases  # noqa: E402
from workloads import PLANS, CaseRunner  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_of_nested_spans():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a.inner", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 0],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once():
    spans = [["root", 0.0, 10.0, -1, 0], ["x", 1.0, 4.0, 0, 0], ["y", 3.0, 6.0, 0, 0]]
    assert self_times(spans)[0] == 5.0


def test_tracer_wrappers_build_the_span_tree():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def inner():
        clock.now += 2

    wrapped_inner = tracer.wrap("reduction.corollary1_reduce", inner)

    def outer():
        clock.now += 1
        wrapped_inner()
        clock.now += 3

    tracer.wrap("closedform.tornheim_closed", outer)()
    names = [s[0] for s in tracer.spans]
    assert names == ["closedform.tornheim_closed", "reduction.corollary1_reduce"]
    assert tracer.spans[1][3] == 0
    totals = tracer.layer_totals()
    assert totals["closedform.tornheim_closed"]["self_s"] == 4
    assert totals["reduction.corollary1_reduce"]["self_s"] == 2


def test_only_the_outermost_ring_operator_is_counted():
    tracer = Tracer(clock=FakeClock())
    neg = tracer.wrap_ring_op(lambda x: -x)
    sub = tracer.wrap_ring_op(lambda x, y: x + neg(y))
    assert sub(5, 3) == 2
    assert neg(1) == -1
    assert tracer.layer_totals()["exact.ZetaExpression"]["calls"] == 2


def test_repeat_share_on_a_hand_built_call_sequence():
    counter = RepeatCounter()
    for key in ["a", "b", "a", "c", "b", "a"]:
        counter.observe(key)
    assert (counter.repeats, counter.total, counter.frac) == (3, 6, 0.5)

    tracer = Tracer(clock=FakeClock())

    def double_euler_closed(s, t, sigma=1, tau=1):
        return s

    traced = tracer.wrap("closedform.double_euler_closed", double_euler_closed)
    traced(3, 2)
    traced(3, t=2)  # same arguments once defaults and keywords are bound
    traced(3, 2, 1, -1)
    traced(2, 3)
    assert tracer.layer_totals()["closedform.double_euler_closed"]["repeat"] == [1, 4]


def test_wrong_case_is_counted_and_the_sweep_goes_on():
    def execute(case):
        if case == "raises":
            raise ValueError("deliberate")
        return case

    def check(case, out):
        return out != "wrong", "", False

    cases = ["ok", "raises", "wrong", "ok"]
    results = run_cases(cases, 1, execute, check)
    assert [r["ok"] for r in results] == [True, False, False, True]
    assert "ValueError" in results[1]["detail"]
    metrics = run.end_to_end_metrics(results, 0.1, [1.0])
    assert metrics["pass_frac"] == 0.5


def test_sweep_stops_at_a_block_boundary_after_the_budget():
    clock = FakeClock()

    def execute(case):
        clock.now += 1

    results = run_cases(list(range(12)), 4, execute, lambda c, o: (True, "", False),
                        budget_s=5, min_cases=0, clock=clock)
    assert len(results) == 8


def test_checks_reject_wrong_values():
    from fractions import Fraction

    from tornheim.closedform import KNOWN_VALUES

    table = CaseRunner("closed_table")
    expr, text, back = table.execute(["R", 1, 1, 1])
    assert table.check(["R", 1, 1, 1], (expr, text, back))[0]
    wrong = expr * Fraction(2)
    assert not table.check(["R", 1, 1, 1], (wrong, wrong.render(), wrong))[0]
    assert KNOWN_VALUES[("R", 1, 1, 1)] == expr

    sweep = CaseRunner("q_sweep")
    lhs, rhs = sweep.execute(["3", "1", "R", 1, 1])
    assert sweep.check(None, (lhs, rhs))[0]
    assert not sweep.check(None, (lhs, rhs * (1 + sweep.mpf(10) ** -20)))[0]


def test_tracer_patches_every_module_that_bound_a_layer():
    from tornheim import closedform, reduction

    tracer = Tracer()
    original = reduction.corollary1_reduce
    tracer.install()
    try:
        assert closedform.corollary1_reduce is reduction.corollary1_reduce is not original
        closedform.tornheim_closed(1, 1, 1, "R")
    finally:
        tracer.uninstall()
    assert closedform.corollary1_reduce is reduction.corollary1_reduce is original
    names = {s[0] for s in tracer.spans}
    assert {"closedform.tornheim_closed", "reduction.corollary1_reduce",
            "closedform.double_euler_closed", "exact.ZetaExpression"} <= names


def test_plans_are_seeded_and_keep_their_block_mix():
    first = next(PLANS["q_sweep"](7))
    assert first == next(PLANS["q_sweep"](7))
    assert first != next(PLANS["q_sweep"](8))
    cases, block = first
    for start in range(0, len(cases), block):
        assert len({(c[0], c[1]) for c in cases[start:start + block]}) == block == 12


def test_benchmark_json_names_what_the_run_reports():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(PLANS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()
