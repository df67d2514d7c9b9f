"""Decision procedure tests: verdict discipline, witness soundness, the
reduction plumbing, and the serialization roundtrip.

The expensive complete-mode runs (the 60-second corpus) live in the
acceptance suite; here we stick to equations that decide in well under a
second so the whole file stays quick.
"""

import collections
import dataclasses
import json
import os
import subprocess
import sys
import time
import tracemalloc
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lpregroup import decide, fnz, lexfn, oracle, spacing, term
from lpregroup.decide import (FAILS, UNKNOWN, VALID, Verdict, Witness,
                              verify_witness, witness_from_json)
from lpregroup.diagram import BudgetExceeded

from test_lexfn import lex_fns, lex_points, periodic_fns_at
from test_term import conjuncts_xyz, equations, renaming, terms

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import random_cases  # noqa: E402


def assert_stats_contract(v: Verdict, eq: str, budget=None):
    # at n > 1 a search at period 1 may come first; the last search gave
    # the verdict, and an earlier one found nothing
    s = v.stats
    *before, last = s["periods"]
    assert len(before) <= (v.n > 1)
    assert all(p["d"] == 1 and p["outcome"] != FAILS for p in before)
    assert last["d"] == (v.witness.n if v.status == FAILS else v.n)
    # a search at period 1 spends at most its slice, the node that cuts
    # it included, and at most half the budget
    for p in before:
        spent = p["nodes"] + p["embed_nodes"]
        assert spent <= decide.PERIOD_ONE_SLICE
        assert budget is None or spent <= budget // 2
    # the totals sum over the searches
    assert s["nodes"] == sum(p["nodes"] for p in s["periods"])
    assert s["embed_nodes"] == sum(p["embed_nodes"] for p in s["periods"])
    # every candidate drawn gets exactly one embedding attempt, and a
    # search stops at the first embedding found or the first attempt
    # that runs out of budget, its slice's or the decision's
    assert s["failing_candidates"] == (
        s["embeddings_refuted"]
        + sum(p["outcome"] in ("embedding", FAILS) for p in s["periods"]))
    assert last["outcome"] == {VALID: "exhausted", FAILS: FAILS}.get(
        v.status, s.get("stopped_by"))
    if v.status == FAILS:
        assert s["witness_period"] == v.witness.n
    else:
        assert "witness_period" not in s
    # the embedding attempts' time is part of the total
    assert 0 <= s["embed_s"] <= s["time_s"]
    # one budget bounds the enumeration and the embedding searches, and
    # the node that exhausts it is counted
    assert s["nodes"] >= 0 and s["embed_nodes"] >= 0
    if budget is not None:
        assert s["nodes"] + s["embed_nodes"] <= budget + 1
    # a skipped conjunct renames an earlier one, so never the first
    conjs = term.conjuncts(eq)
    assert 0 <= s["renamed_conjuncts"] < max(len(conjs), 1)
    # a dropped conjunct has a joinand that expands to the unit once its
    # exponents are reduced at n, and every one that does is dropped
    expanding = sum(any(term.expands_to_unit(w, v.n) for w in
                        term.reduce_exponents(c, v.n).joinands)
                    for c in conjs)
    assert s["expansion_conjuncts"] == expanding
    assert s["expansion_conjuncts"] + s["renamed_conjuncts"] <= len(conjs)
    # an unknown names where the budget ran out, and a decided run names
    # nothing
    if v.status == UNKNOWN:
        assert s["stopped_by"] in ("enumeration", "embedding")
    else:
        assert "stopped_by" not in s


# ------------------------------------------------------------ valid corpus

@pytest.mark.parametrize("proc", [decide.decide_fnz, decide.decide_lpn])
@pytest.mark.parametrize("eq,n", [
    ("1 <= x^(-1) x", 1),
    ("1 <= x x^l", 2),
    ("x^l^r = x", 3),
    ("x = x", 2),
])
def test_valid_complete(proc, eq, n):
    v = proc(eq, n, complete=True)
    assert v.status == VALID
    assert v.witness is None
    assert v.exit_code == 0


def test_valid_with_refutations():
    # 1-periodic functions are translations, which commute, so this holds
    # at n=1 even though 202 failing candidates pass the enumeration's
    # shut-segment test
    v = decide.decide_fnz("x^l y^l = y^l x^l", 1, complete=True)
    assert v.status == VALID
    assert v.stats["failing_candidates"] > 0
    assert v.stats["embeddings_refuted"] == v.stats["failing_candidates"]


@pytest.mark.parametrize("eq, candidates, nodes", [
    pytest.param("x y = y x", 138, 11_514, id="x y = y x"),
    pytest.param("x y x^l y^l <= 1", 113, 3_923, id="x y x^l y^l <= 1"),
])
def test_segment_screen_refutes_before_any_embedding_node(eq, candidates,
                                                          nodes):
    # at n=1 the segment equalities of the translation closure, raw or
    # reduced, refute every candidate that the enumeration's shut-segment
    # test leaves, so no embedding search spends a node
    v = decide.decide_fnz(eq, 1, complete=True)
    assert v.status == VALID
    s = v.stats
    assert (s["failing_candidates"], s["embeddings_refuted"], s["nodes"],
            s["embed_nodes"]) == (candidates, candidates, nodes, 0)
    assert_stats_contract(v, eq)


def test_trivial_conjunction_valid_even_capped():
    # every conjunct drops as trivially true, so capped mode may say valid
    v = decide.decide_fnz("1 <= 1 | x", 3)
    assert v.status == VALID
    assert v.mode == "capped"


# ---------------------------------------------------------- failing corpus

@pytest.mark.parametrize("n", [1, 2, 3])
def test_one_below_x_fails_fnz(n):
    v = decide.decide_fnz("1 <= x", n)
    assert v.status == FAILS
    assert v.exit_code == 1
    w = v.witness
    assert w.space == "FnZ"
    assert verify_witness("1 <= x", w)
    # the found witness is the canonical one: x one step below the point
    assert fnz.eval(w.assignment["x"], w.point) == w.point - 1


@pytest.mark.parametrize("n", [1, 2])
def test_one_below_x_fails_lpn(n):
    v = decide.decide_lpn("1 <= x", n)
    assert v.status == FAILS
    assert v.witness.space == "FnQxZ"
    assert verify_witness("1 <= x", v.witness)
    assert_stats_contract(v, "1 <= x")


def test_left_inverse_strict_at_period_two():
    v = decide.decide_fnz("1 <= x^l x", 2)
    assert v.status == FAILS
    assert verify_witness("1 <= x^l x", v.witness)


def test_inverses_agree_only_for_period_one():
    assert decide.decide_lpn("x^l = x^r", 2).status == FAILS
    v = decide.decide_fnz("x^l = x^r", 2)
    assert v.status == FAILS
    assert verify_witness("x^l = x^r", v.witness)
    assert v.witness.conjunct in (0, 1)


def test_commutativity_separation_at_period_one():
    # fails in the variety, but the integer-chain functions at n=1 are
    # translations and commute; the complete-mode valid side is exercised
    # in the acceptance suite
    v = decide.decide_lpn("x y = y x", 1)
    assert v.status == FAILS
    assert verify_witness("x y = y x", v.witness)
    assert set(v.witness.assignment) == {"x", "y"}
    assert_stats_contract(v, "x y = y x")
    u = decide.decide_fnz("x y = y x", 1)
    assert u.status != FAILS


# ------------------------------------------------------- witness soundness

def test_verify_rejects_wrong_point():
    # h(0) = -1 < 0 but h(1) = 1, so only the even points exhibit the failure
    h = fnz.tabulated(2, (-1, 1))
    good = Witness("FnZ", 2, {"x": h}, 0)
    assert verify_witness("1 <= x", good)
    assert not verify_witness("1 <= x", Witness("FnZ", 2, {"x": h}, 1))


_REVERIFY_PATCHED = """
import sys
from lpregroup import decide
decide.verify_witness = lambda eq, w: False
try:
    v = decide.decide_fnz("1 <= x", 2)
except Exception as e:
    print("raised", isinstance(e, ValueError), sys.flags.optimize)
else:
    print("returned", v.status, sys.flags.optimize)
"""


def test_failed_reverification_raises_under_optimize():
    # python -O strips assert statements; the re-verification must not be
    # one, and must not raise ValueError, which the CLI reports as usage
    src = os.path.dirname(os.path.dirname(decide.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", _REVERIFY_PATCHED],
                          capture_output=True, text=True, env=env)
    assert proc.stdout.split() == ["raised", "False", "1"], proc.stderr


@pytest.mark.parametrize("n", [1, 2])
def test_fails_verdict_normalizes_the_equation_once(monkeypatch, n):
    # the witness is re-verified against the conjunct list the decision
    # already built, not against the equation parsed again
    calls = []
    to_intensional = term.to_intensional
    monkeypatch.setattr(term, "to_intensional",
                        lambda eq: calls.append(eq) or to_intensional(eq))
    v = decide.decide_lpn("x y = y x", n)
    assert v.status == FAILS and len(calls) == 1
    assert verify_witness(term.conjuncts("x y = y x"), v.witness)
    assert verify_witness("x y = y x", v.witness)


def test_verify_rejects_identity_assignment():
    w = Witness("FnZ", 2, {"x": fnz.id_fn(2)}, 0)
    assert not verify_witness("1 <= x", w)
    wl = Witness("FnQxZ", 1, {"x": lexfn.LexFn(1)}, (0, 0))
    assert not verify_witness("1 <= x", wl)


def test_verify_requires_all_variables():
    w = Witness("FnZ", 1, {}, 0)
    with pytest.raises(KeyError):
        verify_witness("1 <= x", w)


def test_verify_rejects_mismatched_period():
    # a 2-periodic function on Q x Z is no witness at period 1
    w = Witness("FnQxZ", 1, {"x": lexfn.LexFn(2)}, (0, 0))
    with pytest.raises(ValueError, match="period"):
        verify_witness("1 <= x", w)


def test_verify_rejects_out_of_range_conjunct():
    v = decide.decide_fnz("1 <= x", 1)
    w = v.witness
    assert not verify_witness("1 <= x", Witness(w.space, w.n, w.assignment,
                                                w.point, conjunct=5))


@pytest.mark.parametrize("proc", [decide.decide_fnz, decide.decide_lpn])
def test_realization_compares_every_final_subword(monkeypatch, proc):
    # every realized map one off at its largest diagram argument: the
    # walk must stop at the innermost literal y of x y, not only compare
    # the whole joinand
    def off_by_one(h, n):
        h = dict(h)
        h[max(h)] += 1
        return fnz.extend_partial(h, n)

    monkeypatch.setattr(decide, "fnz", types.SimpleNamespace(
        **{**vars(fnz), "extend_partial": off_by_one}))
    with pytest.raises(AssertionError, match=r"realized functions disagree "
                       r"with diagram at \(\('y', 0\),\)"):
        proc("1 <= x y", 1)


def test_witness_covers_all_equation_variables():
    # y does not occur in the failing conjunct's realization, but the
    # witness must still assign it (identity) to instantiate the equation
    v = decide.decide_fnz("x & y x <= x", 1)
    if v.status == FAILS:
        assert set(v.witness.assignment) == {"x", "y"}


# --------------------------------------------------------------- reduction

def test_dlp_reduced_period_exact():
    assert term.equation_size(term.parse("x <= x^l")) == 3
    v = decide.decide_dlp("x <= x^l")
    assert v.n == 2 ** 3 * 3 ** 4 == 648


def test_lpn_failure_at_a_small_period_refutes_in_dlp():
    # LP_1 is contained in DLP, so a verified lpn witness at n=1 refutes
    # the equation in DLP as well; so does decide_dlp at its own period
    v = decide.decide_lpn("1 <= x", 1)
    assert v.status == FAILS and v.n == 1
    assert verify_witness("1 <= x", v.witness)
    assert decide.decide_dlp("1 <= x").status == FAILS


def test_dlp_complete_run_fails_with_a_verified_witness():
    # s = 6, so complete mode runs at N = 2^6 * 6^4 = 82,944 itself: the
    # equation holds at period 1, where x^(4) is x, so no search there
    # refutes it first
    eq = "x^(4) = x"
    v = decide.decide_dlp(eq, complete=True)
    assert v.status == FAILS and v.mode == "complete"
    assert v.n == v.witness.n == v.stats["witness_period"] == 82_944
    assert verify_witness(eq, v.witness)
    assert_stats_contract(v, eq)
    assert decide.decide_lpn(eq, 1, complete=True).status == VALID


@pytest.mark.parametrize("eq, N", [("1 <= x^(-6) x", 10_240_000),
                                   ("((x^r)^r)^r = x", 20_000)])
def test_dlp_refutes_at_period_one_first(eq, N):
    # both fail in LP_1, which LP_N contains: searched at N alone they
    # took 2,000,001 nodes (unknown) and 408,347 nodes
    v = decide.decide_dlp(eq)
    assert v.status == FAILS and v.n == N
    assert v.witness.n == v.stats["witness_period"] == 1
    assert [p["d"] for p in v.stats["periods"]] == [1]
    assert v.stats["nodes"] + v.stats["embed_nodes"] < 100
    assert verify_witness(eq, v.witness)
    assert_stats_contract(v, eq)


# ----------------------------------------------------------------- budgets

def test_budget_exhaustion_reports_unknown():
    eq = "1 <= x^(-1) y | y^(-1) z | z^(-1) x"  # valid, 336,462 nodes
    v = decide.decide_fnz(eq, 1, complete=True, budget=500)
    assert v.status == UNKNOWN
    assert v.exit_code == 2
    assert v.stats["nodes"] <= 501
    assert v.stats["stopped_by"] == "enumeration"
    assert_stats_contract(v, eq, budget=500)


def test_reduced_exponent_fails_and_verifies_on_the_original():
    # searched as y^(4) the conjunct stays unknown at 20,000 nodes at
    # n = 3; y^(4) = y^(-2) there, and y^(4) = y at period 1, where the
    # search fails in 10 nodes
    eq = "1 <= y^(4) x"
    v = decide.decide_lpn(eq, 3, budget=20_000)
    assert v.status == FAILS and v.stats["nodes"] == 10
    assert v.witness.n == 1
    [conj] = term.conjuncts(eq)
    assert conj.joinands == ((("y", 4), ("x", 0)),)
    assert v.witness.conjunct == 0
    assert verify_witness(eq, v.witness)
    assert lexfn.eval_word(conj.joinands[0], v.witness.assignment,
                           v.witness.point) < v.witness.point
    assert_stats_contract(v, eq, budget=20_000)


@pytest.mark.parametrize("proc", [decide.decide_fnz, decide.decide_lpn])
def test_expansion_conjuncts_hold_without_search(proc):
    # (x x^r) = 1 is x x^r <= 1, whose joinand x^(-2) x^(-1) is an
    # expansion, and 1 <= x x^r, whose joinand x x^(-1) is one only when
    # 2n divides 2: the equation holds at n = 1 and fails at n = 2
    eq = "(x x^r) = 1"
    v = proc(eq, 1, complete=True)
    assert v.status == VALID
    assert (v.stats["expansion_conjuncts"], v.stats["nodes"]) == (2, 0)
    assert_stats_contract(v, eq)
    v = proc(eq, 2, complete=True)
    assert v.status == FAILS and v.stats["expansion_conjuncts"] == 1
    assert v.witness.conjunct == 1
    assert verify_witness(eq, v.witness)
    assert_stats_contract(v, eq)


@pytest.mark.parametrize("proc", [decide.decide_fnz, decide.decide_lpn])
def test_long_product_searches_past_the_recursion_limit(proc):
    # 1,100 variables give 1,101 points, each one level of the search,
    # deeper than the interpreter's default recursion limit of 1,000
    eq = "1 <= " + " ".join(f"x{i}" for i in range(1100))
    v = proc(eq, 1)
    assert v.status == FAILS
    assert verify_witness(eq, v.witness)


def test_capped_run_with_large_point_set_returns_quickly():
    # x^(13) has about 3 * 2^13 points at n=14; ordering them used to
    # take a quadratic scan that ran for minutes before the budget could
    # bite.  Here and below the period is above the exponent, which
    # exponent reduction mod 2n would otherwise shrink, and the exponent
    # is odd: at period 1 x^(13) x is x^l x >= 1, which needs no search
    t0 = time.perf_counter()
    v = decide.decide_fnz("1 <= x^(13) x", 14, budget=1000)
    assert time.perf_counter() - t0 < 10
    assert v.status == UNKNOWN


# bytes a capped call may allocate at its peak, per node of its budget
PEAK_BYTES_PER_NODE = 256


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([decide.decide_fnz, decide.decide_lpn]),
       conjuncts_xyz(max_m=16), st.integers(1, 3))
def test_capped_calls_with_large_exponents_stay_in_budget(proc, conj, n):
    # exponents up to 16 reduce mod 2n before any point set is built, so
    # a capped call's time and memory follow its budget, not 2^|m|
    eq, budget = str(conj), 1_000
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        v = proc(eq, n, budget=budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 5
    assert peak < PEAK_BYTES_PER_NODE * budget
    assert_stats_contract(v, eq, budget=budget)


# a child's peak RSS is read as its VmHWM: ru_maxrss keeps the
# high-water mark of the process that ran exec, here pytest, which alone
# can pass 60 MB (a 17 MB child reported 98 MB)
_PEAK_KB = """
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


def _run_child(code, *args, timeout):
    """stdout lines of code run in a fresh interpreter on these sources."""
    src = os.path.dirname(os.path.dirname(decide.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env,
                          timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


_TABLE_RSS = """
from lpregroup import decide
print(decide.decide_fnz("1 <= x^(15) x", 16, budget=1000).status)
""" + _PEAK_KB


def test_capped_run_charges_the_point_table_first():
    # x^(15) has about 3 * 2^15 points at n=16; such a table and its
    # bound lists took over a gigabyte, so the budget must run out before
    # they are built
    status, rss_kb = _run_child(_TABLE_RSS, timeout=60)
    assert status == UNKNOWN
    assert int(rss_kb) < 400 * 1024


_POINT_SET_RSS = """
import resource, sys, time
from lpregroup import decide
limit = 512 * 1024 * 1024
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
t0 = time.perf_counter()
v = decide.decide_fnz(sys.argv[1], int(sys.argv[2]), budget=1000)
print(v.status, v.stats["stopped_by"], v.stats["nodes"],
      time.perf_counter() - t0)
""" + _PEAK_KB


@pytest.mark.parametrize("eq, n", [("1 <= x^(17) x", 18),
                                   ("1 <= x^(41) x", 42)])
def test_capped_run_stops_inside_the_point_set(eq, n):
    # the point set doubles with each unit of |m| (x^(41) would need
    # about 3 * 2^41 points), so the budget is charged point by point
    # while it is built and stops the build one point past the limit
    run, rss_kb = _run_child(_POINT_SET_RSS, eq, str(n), timeout=60)
    status, stopped_by, nodes, wall_s = run.split()
    assert (status, stopped_by, nodes) == (UNKNOWN, "enumeration", "1001")
    assert float(wall_s) < 5
    assert int(rss_kb) < 100 * 1024


_REDUCED_RSS = """
import resource
from lpregroup import decide
limit = 512 * 1024 * 1024
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
v = decide.decide_fnz("1 <= x^(2000) x", 1, budget=1000)
print(v.status, v.stats["nodes"])
""" + _PEAK_KB


def test_large_exponent_reduces_before_its_point_set_is_built():
    # x^(2000) has about 3 * 2^2000 points, and building them up to the
    # budget took 207 MB; at n = 1 it is x itself, so x x fails at once
    run, rss_kb = _run_child(_REDUCED_RSS, timeout=60)
    status, nodes = run.split()
    assert status == FAILS and int(nodes) < 1000
    assert int(rss_kb) < 100 * 1024


_SELECTION_FOLD = """
import resource, time
from lpregroup import decide, term
limit = 512 * 1024 * 1024
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
eq = "1 <= (x | y) & (x^l | y^l) & (x^r | y^r) & (x y | y x)"
print(len(term.conjuncts(eq)))
t0 = time.perf_counter()
v = decide.decide_fnz(eq, 1, budget=1000)
print(v.status, v.stats["stopped_by"], time.perf_counter() - t0)
"""


def test_conjunct_selections_fold_within_memory():
    # 16 meets of 4 words are 4^16 selections of one word per meet, whose
    # product raised MemoryError; folding a meet at a time keeps each
    # distinct word set once, 175 of them
    count, run = _run_child(_SELECTION_FOLD, timeout=60)
    status, stopped_by, wall_s = run.split()
    assert int(count) == 175
    assert (status, stopped_by) == (UNKNOWN, "enumeration")
    assert float(wall_s) < 5


_DLP_REALIZE = """
import json
from lpregroup import decide
v = decide.decide_dlp("x^(4) = x", budget=200_000)
print(json.dumps(v.to_json()))
"""


_DLP_HUGE = """
import resource
from lpregroup import decide
limit = 512 * 1024 * 1024
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
try:
    decide.decide_dlp("1 <= x^(100000000000) x", budget=100)
except ValueError as e:
    print("refused", e)
"""


def test_dlp_refuses_a_size_past_its_bound_before_the_period():
    # 2^s alone would take 12.5 GB at s = 10^11 + 3; MemoryError under
    # the limit, whatever the int-to-str limit says
    run, = _run_child(_DLP_HUGE, timeout=60)
    assert run.startswith("refused") and "DLP_MAX_SIZE" in run
    # the largest size the default int-to-str limit lets the CLI print
    assert decide.DLP_MAX_SIZE >= 14_229


def test_capped_dlp_realizes_at_the_reduced_period():
    # s = 6, so N = 2^6 * 6^4 = 82,944, and the equation holds at period
    # 1; realization used to rebuild a whole period per literal, O(N^2)
    # each
    data = json.loads("\n".join(_run_child(_DLP_REALIZE, timeout=60)))
    assert data["status"] == FAILS
    w = witness_from_json(data["witness"])
    assert data["n"] == w.n == 82_944
    assert verify_witness("x^(4) = x", w)


_DLP_REALIZE_RSS = """
import json
from lpregroup import decide
eq = "x^(2) y^(2) <= x y"
for complete in (False, True):
    v = decide.decide_dlp(eq, complete, budget=None if complete else 200_000)
    text = json.dumps(v.witness.to_json())
    w = decide.witness_from_json(json.loads(text))
    print(v.status, v.n, len(text), decide.verify_witness(eq, w))
""" + _PEAK_KB


def test_capped_dlp_realizes_a_long_period_in_bounded_memory():
    # N = 2^10 * 10^4 = 10,240,000 in capped and in complete mode, for an
    # equation that holds at period 1: a realized function has one step
    # per chain point, so neither the realization, the witness file nor
    # its re-verification is O(N)
    *runs, rss_kb = _run_child(_DLP_REALIZE_RSS, timeout=120)
    assert len(runs) == 2
    for run in runs:
        status, n, size, verified = run.split()
        assert (status, n, verified) == (FAILS, "10240000", "True")
        assert int(size) < 10 * 1024
    assert int(rss_kb) < 60 * 1024


def test_capped_proves_valid_when_every_candidate_is_refuted():
    # each embedding search runs up to the re-spacing bound, so refuting
    # all 113 candidates is a proof in capped mode as in complete mode;
    # the equation holds at n=1, where the functions are translations
    eq = "x y x^l y^l <= 1"
    v = decide.decide_fnz(eq, 1)
    assert v.status == VALID
    assert v.mode == "capped"
    assert v.stats["embeddings_refuted"] == 113
    assert v.stats["failing_candidates"] == 113
    assert_stats_contract(v, eq)


def test_capped_embedding_attempt_out_of_budget_is_unknown(monkeypatch):
    # an embedding search that runs out of budget ends the decision: the
    # candidate is not refuted, so nothing after it can prove valid
    def gives_up(*args, **kwargs):
        raise BudgetExceeded("simulated embedding budget")

    monkeypatch.setattr(spacing, "find_witness_embedding", gives_up)
    v = decide.decide_fnz("x y = y x", 1)  # valid, with 138 candidates
    assert v.status == UNKNOWN
    assert v.stats["failing_candidates"] == 1
    assert v.stats["stopped_by"] == "embedding"
    assert_stats_contract(v, "x y = y x")


@pytest.mark.parametrize("status", [UNKNOWN, FAILS])
def test_embedding_search_spends_the_decision_budget(status):
    # at period 1, 23 enumeration nodes draw one candidate, whose
    # embedding search finds the witness at the 24th node.  A budget of
    # 50 gives the search at period 1 a slice of 25 nodes, the one that
    # cuts it included; at 49 its slice of 24 runs out inside that
    # embedding search, and the search at n = 2 spends the other 25 and
    # the node that runs the budget out
    eq = "(x^r y) = z^l"
    budget = 50 if status == FAILS else 49
    v = decide.decide_fnz(eq, 2, budget=budget)
    assert v.status == status
    assert (v.stats["failing_candidates"], v.stats["nodes"],
            v.stats["embed_nodes"]) == (1, 23 if status == FAILS else 49, 1)
    first = v.stats["periods"][0]
    assert (first["d"], first["nodes"], first["embed_nodes"]) == (1, 23, 1)
    if status == UNKNOWN:
        assert first["outcome"] == "embedding"
        assert v.stats["stopped_by"] == "enumeration"
    else:
        assert v.witness.n == 1
        assert verify_witness(eq, v.witness)
    assert_stats_contract(v, eq, budget)


def test_embedding_node_costs_one_pass(monkeypatch):
    # the 35th candidate is a 6-point chain at cap nu(6, 2) whose search
    # spends the rest of the budget; each node of an embedding search
    # runs one pass of tighten over its problem's rows and constraints
    calls = 0
    tighten = spacing.tighten

    def counted(*args):
        nonlocal calls
        calls += 1
        return tighten(*args)

    monkeypatch.setattr(spacing, "tighten", counted)
    eq = "1 <= y^(-1) x^(1) | y x"
    v = decide.decide_fnz(eq, 2, budget=4_500)
    assert v.status == UNKNOWN
    assert v.stats["stopped_by"] == "embedding"
    assert (v.stats["nodes"], v.stats["embed_nodes"]) == (2617, 1884)
    assert calls <= 100 * v.stats["embed_nodes"]
    assert_stats_contract(v, eq, 4_500)


@pytest.mark.parametrize("theory,eq", [
    ("fnz", "x^l <= x^r"),
    ("fnz", "1^l = (x^r x)"),
    ("fnz", "x^l <= (1 x^r)"),
    ("lpn", "(x^l)^l <= x"),
    ("lpn", "x^l <= x^r"),
])
def test_capped_valid_agrees_with_complete(theory, eq):
    # draws of the random benchmark that capped mode proves at n=1: the
    # shut-segment test leaves them no failing candidate, so exhausting
    # the enumeration proves them
    proc = decide.decide_fnz if theory == "fnz" else decide.decide_lpn
    v = proc(eq, 1, budget=20_000)
    assert v.status == VALID
    assert_stats_contract(v, eq, 20_000)
    assert proc(eq, 1, complete=True).status == VALID


@pytest.mark.parametrize("eq", [
    "x y = y x",
    "x y x^l y^l <= 1",
    "x^l y^l = y^l x^l",
])
def test_capped_valid_by_refutations_agrees_with_complete(eq):
    # commutativity laws of F_1(Z), which capped mode proves by refuting
    # every candidate up to the re-spacing bound.  No valid draw of the
    # random benchmark leaves a candidate past the shut-segment test, and
    # no valid lpn input that does was found
    v = decide.decide_fnz(eq, 1, budget=20_000)
    assert v.status == VALID
    assert v.stats["failing_candidates"] > 0
    assert_stats_contract(v, eq, 20_000)
    assert decide.decide_fnz(eq, 1, complete=True).status == VALID


def test_monotone_valid_in_variety_implies_valid_on_integers():
    for eq, n in [("1 <= x x^l", 2), ("x^l^r = x", 1)]:
        if decide.decide_lpn(eq, n, complete=True).status == VALID:
            assert decide.decide_fnz(eq, n, complete=True).status == VALID


# ------------------------------------------------------ renamed conjuncts

def test_mirror_conjunct_decided_once():
    # the two conjuncts of commutativity swap under x <-> y; each alone
    # has 138 failing candidates, all refuted at n=1
    v = decide.decide_fnz("x y = y x", 1, complete=True)
    assert v.status == VALID
    assert v.stats["failing_candidates"] == 138
    assert v.stats["renamed_conjuncts"] == 1
    assert_stats_contract(v, "x y = y x")


def renamed_pairs(eq: str) -> list:
    """(representative, conjunct) for every conjunct of eq that renames
    an earlier one, the representative being the first of its key."""
    first, out = {}, []
    for c in term.conjuncts(eq):
        rep = first.setdefault(term.conjunct_key(c), c)
        if rep is not c:
            out.append((rep, c))
    return out


def assert_skips_sound(proc, eq: str, n: int) -> int:
    """Decide every skipped conjunct of eq alone from its text, and its
    representative alone, both capped at 20,000 nodes.  Verdicts must
    agree wherever both are reached: the enumeration order follows the
    variable names, so one renaming may run out of budget where the
    other finishes.  A witness for the representative, renamed, must be
    one for the skipped conjunct.  Returns the number of skips."""
    pairs = renamed_pairs(eq)
    for rep, c in pairs:
        assert term.conjuncts(str(c)) == [c]
        v, u = (proc(str(x), n, budget=20_000) for x in (rep, c))
        if UNKNOWN not in (v.status, u.status):
            assert v.status == u.status, (eq, str(rep), str(c))
        if v.status == FAILS:
            to = renaming(rep, c)
            assert to is not None
            w = dataclasses.replace(v.witness, assignment={
                to[name]: f for name, f in v.witness.assignment.items()})
            assert verify_witness(str(c), w)
    return len(pairs)


@pytest.mark.parametrize("theory,eq,n", [
    ("fnz", "x y = y x", 1),
    ("fnz", "x y = y x", 2),
    ("lpn", "x y = y x", 1),
    ("fnz", "(x | y)^l = x^l & y^l", 2),
    ("lpn", "(x | y)^l = x^l & y^l", 1),
    ("lpn", "x | y = y | x", 1),
    ("fnz", "x y z = z y x", 1),
    ("lpn", "x y z = z y x", 1),
    ("lpn", "(x & y)^r = x^r | y^r", 2),
])
def test_skipped_conjuncts_decide_like_their_representatives(theory, eq, n):
    proc = decide.decide_fnz if theory == "fnz" else decide.decide_lpn
    assert assert_skips_sound(proc, eq, n) >= 1


# ---------------------------------------------------------- serialization

@pytest.mark.parametrize("proc,eq,n", [
    (decide.decide_fnz, "1 <= x", 2),
    (decide.decide_lpn, "x^l = x^r", 2),
    (decide.decide_lpn, "x y = y x", 1),
])
def test_witness_json_roundtrip(proc, eq, n):
    v = proc(eq, n)
    blob = json.dumps(v.to_json())
    data = json.loads(blob)
    assert data["status"] == FAILS
    w = witness_from_json(data["witness"])
    assert verify_witness(eq, w)
    assert w.point == v.witness.point


# the list fields of a witness, as key paths into the FnQxZ witness of
# lpn n=1 `x y = y x` (y's tilde has one anchor) or the FnZ one of
# fnz n=2 `1 <= x`
_LIST_FIELDS = [
    ("FnQxZ", ("assignment", "y", "tilde")),
    ("FnQxZ", ("assignment", "y", "tilde", 0)),
    ("FnQxZ", ("assignment", "x", "components")),
    ("FnQxZ", ("assignment", "x", "components", 0, "fn", "steps")),
    ("FnQxZ", ("checked",)),
    ("FnZ", ("assignment", "x", "steps")),
    ("FnZ", ("assignment", "x", "steps", 0)),
    ("FnZ", ("checked",)),
]


@pytest.mark.parametrize("space,path", _LIST_FIELDS,
                         ids=[f"{s}-{p[-1]}" for s, p in _LIST_FIELDS])
@pytest.mark.parametrize("bad", ["0", {"0": "0"}, {}],
                         ids=["string", "object", "empty-object"])
def test_witness_from_json_refuses_non_array_lists(space, path, bad):
    # a string or an object iterates as characters or keys, so "0" in
    # place of ["0"] used to load as the same list
    v = (decide.decide_lpn("x y = y x", 1) if space == "FnQxZ"
         else decide.decide_fnz("1 <= x", 2))
    data = json.loads(json.dumps(v.to_json()))["witness"]
    assert witness_from_json(data).space == space
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = bad
    with pytest.raises(ValueError):
        witness_from_json(data)


# per space: a strategy for the functions of a period, and one for points
_SPACE_DRAWS = {"FnZ": (periodic_fns_at, st.integers(-8, 8)),
                "FnQxZ": (lex_fns, lex_points())}


@st.composite
def witnesses(draw, space):
    fns, points = _SPACE_DRAWS[space]
    n = draw(st.integers(1, 3))
    return Witness(
        space, n,
        draw(st.dictionaries(st.sampled_from("xyz"), fns(n), max_size=3)),
        draw(points), draw(st.integers(0, 3)),
        tuple(draw(st.lists(st.tuples(st.sampled_from(("x", "x y^l")),
                                      points), max_size=2))))


@pytest.mark.parametrize("space", sorted(decide.SPACES))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_witness_file_roundtrip(space, data):
    # lex functions carry drawn global parts, so this also round-trips
    # the anchors and the component indices as rationals
    w = data.draw(witnesses(space))
    assert witness_from_json(json.loads(json.dumps(w.to_json()))) == w


def test_every_written_witness_reads_back_as_written():
    written = []
    for c in random_cases(7, 600):
        proc = decide.decide_fnz if c.theory == "fnz" else decide.decide_lpn
        v = proc(c.eq, c.n, budget=20_000)
        written += [v.witness] if v.witness else []
    from_decide = len(written)
    for c in random_cases(7, 300):
        search = (oracle.search_counterexample_fnz if c.theory == "fnz"
                  else oracle.search_counterexample_lex)
        w = search(c.eq, c.n, budget=30, seed=c.seed)
        written += [w] if w else []
    assert from_decide > 500 and len(written) - from_decide > 200
    for w in written:
        data = w.to_json()
        assert witness_from_json(json.loads(json.dumps(data))).to_json() \
            == data


# the rational positions of the FnQxZ witness of lpn n=1 `x y = y x`,
# as key paths: y's one tilde anchor, x's one component, the point
_RATIONAL_FIELDS = [
    ("assignment", "y", "tilde", 0, 0),
    ("assignment", "y", "tilde", 0, 1),
    ("assignment", "x", "components", 0, "j"),
    ("point", "q"),
]


def _lex_witness_with(path, value) -> dict:
    v = decide.decide_lpn("x y = y x", 1)
    data = json.loads(json.dumps(v.to_json()))["witness"]
    assert len(data["assignment"]["y"]["tilde"]) == 1
    assert len(data["assignment"]["x"]["components"]) == 1
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


@pytest.mark.parametrize("path", _RATIONAL_FIELDS,
                         ids=[str(p[-3:]) for p in _RATIONAL_FIELDS])
@pytest.mark.parametrize("bad", ["1e3", "1.5", " 1", "+1", "1_0", "\u0661",
                                 "1/2 ", "1e20000000"])
def test_witness_from_json_reads_rationals_only_as_written(path, bad):
    # Fraction takes all of these; the writer never writes them, and
    # "1e20000000" would take seconds to build
    with pytest.raises(ValueError, match="expected a rational"):
        witness_from_json(_lex_witness_with(path, bad))


@pytest.mark.parametrize("path", _RATIONAL_FIELDS,
                         ids=[str(p[-3:]) for p in _RATIONAL_FIELDS])
def test_witness_from_json_reads_the_written_rationals(path):
    loaded = {v: witness_from_json(_lex_witness_with(path, v))
              for v in ("-3/2", "4", 4)}
    assert loaded["4"] == loaded[4]
    if path[0] == "point":
        assert loaded["-3/2"].point[0] == Fraction(-3, 2)


def test_witness_from_json_refuses_a_long_digit_run_at_once():
    # with the int-to-str limit off, Fraction converted 400,000 digits in
    # about a second (quadratic in the length); the reader stops at
    # Python's default limit, so nothing that reads there is refused
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        path = ("assignment", "x", "components", 0, "j")
        data = _lex_witness_with(path, "9" * 400_000)
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="expected a rational"):
            witness_from_json(data)
        assert time.perf_counter() - t0 < 0.1
        w = witness_from_json(_lex_witness_with(path, "9" * 4300))
        assert w.assignment["x"].components[0][0] == int("9" * 4300)
    finally:
        sys.set_int_max_str_digits(old)


def test_evaluation_goes_through_the_algebra_modules(monkeypatch):
    # the benchmark times evaluation by swapping eval_word on fnz and
    # lexfn, so every evaluator must look it up there when it runs
    stage, calls = [None], collections.Counter()
    for mod in (fnz, lexfn):
        def counted(*args, _real=mod.eval_word, _mod=mod):
            calls[stage[0], _mod] += 1
            return _real(*args)
        monkeypatch.setattr(mod, "eval_word", counted)

    def labelled(label, f):
        def run(*args, **kwargs):
            outer, stage[0] = stage[0], label
            try:
                return f(*args, **kwargs)
            finally:
                stage[0] = outer
        return run

    for name in ("realize_fnz_witness", "realize_lex_witness",
                 "verify_witness"):
        monkeypatch.setattr(decide, name,
                            labelled(name, getattr(decide, name)))
    assert decide.decide_fnz("1 <= x", 2).status == FAILS
    assert decide.decide_lpn("x y = y x", 1).status == FAILS
    stage[0] = "oracle"
    assert oracle.search_counterexample_fnz("1 <= x", 2, budget=50)
    assert oracle.search_counterexample_lex("x y = y x", 1, budget=500)
    assert set(calls) == {("realize_fnz_witness", fnz),
                          ("realize_lex_witness", lexfn),
                          ("verify_witness", fnz), ("verify_witness", lexfn),
                          ("oracle", fnz), ("oracle", lexfn)}


def test_verdict_json_shape():
    v = decide.decide_fnz("1 <= x x^l", 1, complete=True)
    data = v.to_json()
    assert data["status"] == VALID
    assert data["mode"] == "complete"
    assert data["witness"] is None
    assert data["stats"]["failing_candidates"] == 0


def test_rejects_nonpositive_period():
    with pytest.raises(ValueError):
        decide.decide_fnz("1 <= x", 0)


# ------------------------------------------------------ differential fuzz

@settings(max_examples=40, derandomize=True, deadline=None)
@given(equations(), st.sampled_from(("fnz", "lpn")), st.sampled_from((1, 2)))
def test_decider_agrees_with_oracle(eq, theory, n):
    assert term.equation_size(term.parse(eq)) <= 6
    if theory == "fnz":
        proc, search = decide.decide_fnz, oracle.search_counterexample_fnz
    else:
        proc, search = decide.decide_lpn, oracle.search_counterexample_lex
    v = proc(eq, n, budget=20_000)
    w = search(eq, n, budget=30, seed=0)
    assert_stats_contract(v, eq, 20_000)
    if v.status == FAILS:
        assert verify_witness(eq, v.witness)
    if w is not None:
        assert verify_witness(eq, w)
        assert v.status != VALID, (eq, theory, n, w.to_json())


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(2, 5).flatmap(terms), st.sampled_from(("fnz", "lpn")),
       st.sampled_from((1, 2)))
def test_skips_sound_on_mirrored_equations(t, theory, n):
    # t = t' with x and y swapped in t': its two halves rename each other
    eq = f"{t} = {t.translate(str.maketrans('xy', 'yx'))}"
    proc = decide.decide_fnz if theory == "fnz" else decide.decide_lpn
    v = proc(eq, n, budget=20_000)
    assert_stats_contract(v, eq)
    if v.status == FAILS:
        assert verify_witness(eq, v.witness)
    assert_skips_sound(proc, eq, n)
