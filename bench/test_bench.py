"""Tests of the benchmark itself:  python3 -m pytest -q bench/test_bench.py"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads as wl
from diff_verdicts import flips
from lpregroup import decide, term
from metrics import geomean, tail
from tracing import Span, Tracer, layer_self_times, self_times


# --------------------------------------------------------------- generator

def test_random_cases_repeat_per_seed_and_differ_across_seeds():
    assert wl.random_cases(7, 300) == wl.random_cases(7, 300)
    assert wl.random_cases(7, 300) != wl.random_cases(8, 300)
    assert wl.random_cases(7, 300)[:50] == wl.random_cases(7, 50)


def test_random_cases_stay_in_their_ranges():
    cases = wl.random_cases(3, 2000)
    sizes, nvars, periods = set(), set(), set()
    for c in cases:
        eq = term.parse(c.eq)
        sizes.add(term.equation_size(eq))
        nvars.add(len(term.variables(eq.lhs) | term.variables(eq.rhs)))
        periods.add(c.n)
        assert c.theory in wl.THEORIES
        assert c.known is None
    assert sizes == set(range(wl.MIN_SIZE, wl.MAX_SIZE + 1))
    assert nvars == set(range(wl.MIN_VARS, wl.MAX_VARS + 1))
    assert periods == set(wl.PERIODS)


def test_prove_cases_are_the_rows_in_a_seeded_order():
    a = wl.prove_cases(wl.PROVE_SEARCH, 1)
    assert a == wl.prove_cases(wl.PROVE_SEARCH, 1)
    assert sorted((c.theory, c.eq, c.n) for c in a) == sorted(wl.PROVE_SEARCH)
    assert all(c.known == decide.VALID for c in a)


# -------------------------------------------------------------- statistics

def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert tail([float(x) for x in range(1, 101)]) == (90.0, 90.0, 100)
    value, pct, k = tail([float(x) for x in range(11, 0, -1)])
    assert (value, k) == (1.0, 11) and pct == pytest.approx(100 / 11)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_geomean():
    assert geomean([1.0, 100.0]) == pytest.approx(10.0)
    assert geomean([2.0, 8.0, 4.0]) == pytest.approx(4.0)


def test_self_time_subtracts_the_union_of_children_and_folded_leaves():
    spans = [
        Span("decide.run", 0.0, 10.0, None, 0),
        Span("search.next", 1.0, 4.0, 0, 0),
        Span("spacing.find_witness_embedding", 4.0, 6.0, 0, 0,
             folded_s=1.0),
        Span("term.delta_epsilon", 2.0, 3.0, 1, 0),
        Span("decide.run", 20.0, 21.0, None, 1),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 1.0, 1.0])
    layers = layer_self_times(spans, {"fnz.eval_word": 1.0})
    assert layers == pytest.approx({"decide": 6.0, "search": 2.0,
                                    "spacing": 1.0, "term": 1.0, "fnz": 1.0})
    # self times partition the root spans' time
    assert sum(layers.values()) == pytest.approx(11.0)
    # overlapping children are covered once, and clipped to the parent
    overlap = [Span("decide.run", 0.0, 10.0, None, 0),
               Span("search.next", 1.0, 4.0, 0, 0),
               Span("search.next", 3.0, 6.0, 0, 0),
               Span("search.next", 9.0, 12.0, 0, 0)]
    assert self_times(overlap)[0] == pytest.approx(4.0)


# ----------------------------------------------------------------- tracing

def _traced(records):
    tracer = Tracer()
    tracer.install()
    try:
        traced = run.replay(run.WORKLOADS["refute"], records, tracer)
    finally:
        tracer.uninstall()
    return tracer, traced


def test_two_traced_runs_agree_on_the_deterministic_counters():
    w = run.WORKLOADS["refute"]
    records = [run.run_one(w, i, c)
               for i, c in enumerate(wl.random_cases(5, 60))]
    counters = []
    for _ in range(2):
        tracer, traced = _traced(records)
        tot = tracer.totals()
        counters.append((sum(r.nodes for r in traced),
                         tot["search.candidates"], tot["spacing.calls"],
                         tot["spacing.distinct"], tot["term.points"]))
        assert [r.status for r in traced] == [r.status for r in records]
    assert counters[0] == counters[1]
    assert all(counters[0])
    assert counters[0][1] == sum(r.candidates for r in records)


def test_uninstall_restores_the_library():
    before = (decide.verify_witness, term.parse)
    tracer = Tracer()
    tracer.install()
    assert decide.verify_witness is not before[0]
    tracer.uninstall()
    assert (decide.verify_witness, term.parse) == before


def test_spans_nest_under_the_decision_root():
    records = [run.run_one(run.WORKLOADS["refute"], 0,
                           wl.Case("fnz", "x^r x <= 1", 2))]
    tracer, traced = _traced(records)
    assert traced[0].status == decide.FAILS
    names = {s.name for s in tracer.spans}
    assert {"decide.run", "term.parse", "term.to_intensional",
            "term.delta_epsilon", "search.next",
            "spacing.find_witness_embedding", "decide.realize",
            "decide.verify"} <= names
    assert [s.name for s in tracer.spans if s.parent is None] \
        == ["decide.run"]
    assert tracer.totals()["fnz.eval_word.calls"] > 0


# ---------------------------------------------------------------- checking

def test_check_fails_a_wrong_known_answer_and_an_exception():
    w = run.WORKLOADS["prove-search"]
    case = wl.Case("fnz", "x^r x <= 1", 2, known=decide.VALID)
    wrong = run.run_one(w, 0, case)
    boom = run.Record(1, case, 0.1, "error", failure="raised ValueError: x")
    for r in (wrong, boom):
        run.check(r, {})
    assert wrong.failure == "expected valid, got fails"
    assert boom.failure.startswith("raised")
    assert wrong.result is None


def test_a_verdict_that_flips_within_a_run_fails():
    case = wl.Case("fnz", "x <= 1", 1)
    records = [run.Record(0, case, 0.1, decide.VALID),
               run.Record(1, case, 0.1, decide.FAILS),
               run.Record(2, wl.Case("fnz", "x <= x", 1), 0.1, decide.VALID)]
    run.mark_flips(records)
    assert [r.failure is not None for r in records] == [True, True, False]


def test_flips_are_valid_against_fails_only():
    old = [{"theory": "fnz", "eq": "x = x", "n": 1, "status": "valid"},
           {"theory": "fnz", "eq": "x <= 1", "n": 1, "status": "fails"},
           {"theory": "lpn", "eq": "x <= 1", "n": 1, "status": "fails"}]
    new = [{"theory": "fnz", "eq": "x = x", "n": 1,
            "status": "unknown-budget-exhausted"},
           {"theory": "fnz", "eq": "x <= 1", "n": 1, "status": "valid"},
           {"theory": "lpn", "eq": "x <= 1", "n": 1, "status": "fails"}]
    assert flips(old, new) == [("fnz", "x <= 1", 1)]


def test_cli_prints_the_result_last():
    root = Path(__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload",
         "refute", "--seed", "2", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {
        m["name"] for m in json.loads(
            (root / "BENCHMARK.json").read_text())["end_to_end"]}
    assert all(math.isfinite(m["value"]) and m["value"] > 0
               for m in result["metrics"].values())
