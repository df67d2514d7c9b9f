"""Decision procedure tests: verdict discipline, witness soundness, the
reduction plumbing, and the serialization roundtrip.

The expensive complete-mode runs (the 60-second corpus) live in the
acceptance suite; here we stick to equations that decide in well under a
second so the whole file stays quick.
"""

import dataclasses
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from lpregroup import decide, fnz, lexfn, oracle, term
from lpregroup.decide import (FAILS, UNKNOWN, VALID, Verdict, Witness,
                              verify_witness, witness_from_json)

from test_term import renaming


def assert_stats_contract(v: Verdict, eq: str):
    # every candidate drawn gets exactly one embedding attempt, and the
    # search stops at the first embedding found
    s = v.stats
    assert s["failing_candidates"] == (s["embeddings_refuted"]
                                       + s["attempts_capped"]
                                       + (v.status == FAILS))
    # the embedding attempts' time is part of the total
    assert 0 <= s["embed_s"] <= s["time_s"]
    # a skipped conjunct renames an earlier one, so never the first
    assert 0 <= s["renamed_conjuncts"] < max(len(term.conjuncts(eq)), 1)


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
    # over 1-periodic functions (translations) the left inverse is exact,
    # so this holds at n=1 even though failing diagram candidates exist
    v = decide.decide_fnz("1 <= x^l x", 1, complete=True)
    assert v.status == VALID
    assert v.stats["failing_candidates"] > 0
    assert v.stats["embeddings_refuted"] == v.stats["failing_candidates"]


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
    h = fnz.PeriodicFn(2, (-1, 1))
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


def test_verify_rejects_identity_assignment():
    w = Witness("FnZ", 2, {"x": fnz.id_fn(2)}, 0)
    assert not verify_witness("1 <= x", w)
    wl = Witness("FnQxZ", 1, {"x": lexfn.identity(1)}, (0, 0))
    assert not verify_witness("1 <= x", wl)


def test_verify_requires_all_variables():
    w = Witness("FnZ", 1, {}, 0)
    with pytest.raises(KeyError):
        verify_witness("1 <= x", w)


def test_verify_rejects_mismatched_period():
    # a 2-periodic function on Q x Z is no witness at period 1
    w = Witness("FnQxZ", 1, {"x": lexfn.identity(2)}, (0, 0))
    with pytest.raises(ValueError, match="period"):
        verify_witness("1 <= x", w)


def test_verify_rejects_out_of_range_conjunct():
    v = decide.decide_fnz("1 <= x", 1)
    w = v.witness
    assert not verify_witness("1 <= x", Witness(w.space, w.n, w.assignment,
                                                w.point, conjunct=5))


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


def test_dlp_override_reproduces_failure():
    v = decide.decide_dlp("1 <= x", n_override=1)
    assert v.status == FAILS and v.n == 1
    assert verify_witness("1 <= x", v.witness)


def test_dlp_refuses_impractical_complete_run():
    with pytest.raises(ValueError):
        decide.decide_dlp("x y = y x", complete=True)
    # same equation is fine with an override
    v = decide.decide_dlp("x y = y x", complete=True, n_override=1)
    assert v.status == FAILS


# ----------------------------------------------------------------- budgets

def test_budget_exhaustion_reports_unknown():
    v = decide.decide_fnz("x^l = x^r", 1, complete=True, budget=500)
    assert v.status == UNKNOWN
    assert v.exit_code == 2
    assert v.stats["nodes"] <= 501


def test_capped_run_with_large_point_set_returns_quickly():
    # x^(12) has 12,288 points at n=7; ordering them used to take a
    # quadratic scan that ran for minutes before the budget could bite
    t0 = time.perf_counter()
    v = decide.decide_fnz("1 <= x^(12) x", 7, budget=1000)
    assert time.perf_counter() - t0 < 10
    assert v.status == UNKNOWN


_TABLE_RSS = """
import resource
from lpregroup import decide
v = decide.decide_fnz("1 <= x^(14) x", 8, budget=1000)
print(v.status, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_capped_run_charges_the_point_table_first():
    # x^(14) has 49,152 points at n=8; their table and bound lists took
    # over a gigabyte, so the budget must run out before they are built
    src = os.path.dirname(os.path.dirname(decide.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _TABLE_RSS],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    status, rss_kb = proc.stdout.split()
    assert status == UNKNOWN, proc.stderr
    assert int(rss_kb) < 400 * 1024


_DLP_REALIZE = """
import json
from lpregroup import decide
v = decide.decide_dlp("x y = y x", budget=200_000)
print(json.dumps(v.to_json()))
"""


def test_capped_dlp_realizes_at_the_reduced_period():
    # s = 6, so N = 2^6 * 6^4 = 82,944; the candidate takes 79 nodes, and
    # realization used to rebuild a whole period per literal, O(N^2) each
    src = os.path.dirname(os.path.dirname(decide.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _DLP_REALIZE],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["status"] == FAILS
    w = witness_from_json(data["witness"])
    assert data["n"] == w.n == 82_944
    assert verify_witness("x y = y x", w)


def test_capped_never_claims_valid_with_candidates_pending():
    # capped mode refutes these candidates only up to a practical height,
    # which is not a proof
    v = decide.decide_fnz("1 <= x^l x", 1)
    assert v.status == UNKNOWN


def test_monotone_valid_in_variety_implies_valid_on_integers():
    for eq, n in [("1 <= x x^l", 2), ("x^l^r = x", 1)]:
        if decide.decide_lpn(eq, n, complete=True).status == VALID:
            assert decide.decide_fnz(eq, n, complete=True).status == VALID


# ------------------------------------------------------ renamed conjuncts

def test_mirror_conjunct_decided_once():
    # the two conjuncts of commutativity swap under x <-> y; each alone
    # has 18,072 failing candidates, all refuted at n=1
    v = decide.decide_fnz("x y = y x", 1, complete=True)
    assert v.status == VALID
    assert v.stats["failing_candidates"] == 18_072
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

@st.composite
def terms(draw, size):
    """Term text of exactly `size` symbols (term.term_size) over x, y and
    the unit, built from product, join, meet, ^l and ^r."""
    if size == 1:
        return draw(st.sampled_from(("x", "y", "1")))
    op = draw(st.sampled_from((" ", " | ", " & ", "^l", "^r")
                              if size > 2 else ("^l", "^r")))
    if op.startswith("^"):
        return f"({draw(terms(size - 1))}){op}"
    left = draw(st.integers(1, size - 2))
    return f"({draw(terms(left))}){op}({draw(terms(size - 1 - left))})"


@st.composite
def equations(draw):
    # hypothesis favours the simplest draws, so make those the largest
    size = 6 - draw(st.integers(0, 4))
    left = draw(st.integers(1, size - 1))
    rel = draw(st.sampled_from(("=", "<=")))
    return f"{draw(terms(left))} {rel} {draw(terms(size - left))}"


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
    assert_stats_contract(v, eq)
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
