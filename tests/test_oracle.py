"""Oracle sanity: generator invariants, the classic hits and misses, and
agreement with the decision procedures on quick cases."""

import itertools
import random

import pytest

from lpregroup import decide, fnz, oracle
from lpregroup.decide import verify_witness


# -------------------------------------------------------------- generators

def test_random_periodic_fn_invariants():
    rng = random.Random(7)
    for _ in range(1000):
        n = rng.choice((1, 2, 3, 4))
        b = rng.choice((n, 2 * n, 3 * n))
        f = oracle.random_periodic_fn(n, b, rng)
        vals = [f(r) for r in range(n)]
        assert abs(vals[0]) <= b
        # the constructor enforces the window invariant; recheck anyway
        assert all(x <= y for x, y in zip(vals, vals[1:]))
        assert vals[-1] <= vals[0] + n


def test_random_periodic_fn_period_one_is_translation():
    rng = random.Random(0)
    f = oracle.random_periodic_fn(1, 3, rng)
    assert f.steps in ((), ((0, f(0)),))
    assert fnz.eval(f, 10) == 10 + f(0)


def test_random_periodic_fn_seed_determinism():
    a = oracle.random_periodic_fn(3, 5, random.Random(42))
    b = oracle.random_periodic_fn(3, 5, random.Random(42))
    assert a == b


def test_random_periodic_fn_rejects_small_bound():
    with pytest.raises(ValueError):
        oracle.random_periodic_fn(3, 2, random.Random(0))


def test_random_periodic_fn_reaches_ties_and_extremes():
    # the sampler must cover non-injective functions and the full window
    rng = random.Random(1)
    seen_tie = seen_full = False
    for _ in range(300):
        f = oracle.random_periodic_fn(2, 2, rng)
        seen_tie = seen_tie or f(0) == f(1)
        seen_full = seen_full or f(1) == f(0) + 2
    assert seen_tie and seen_full


def test_all_periodic_fns_complete_and_distinct():
    fns = list(oracle.all_periodic_fns(2, 2))
    assert len(fns) == len(set(fns)) == oracle.count_periodic_fns(2, 2) == 15
    assert fnz.id_fn(2) in fns
    for n, b in [(1, 2), (3, 3)]:
        fns = list(oracle.all_periodic_fns(n, b))
        assert len(fns) == len(set(fns)) == oracle.count_periodic_fns(n, b)


def test_small_lexfns_match_the_stated_pool_size():
    # the lex search states the pool's size without building the pool
    for n in (1, 2, 3):
        fns = list(oracle._small_lexfns(n))
        size = 3 * oracle.count_periodic_fns(n, n)
        assert len(fns) == len(set(fns)) == size


def test_random_lexfn_small_description():
    rng = random.Random(5)
    for _ in range(200):
        f = oracle.random_lexfn(2, 4, rng)
        assert len(f.components) <= 3
        assert f.n == 2


# ------------------------------------------------------- integer-chain hits

def test_fnz_finds_one_below_x_immediately():
    w = oracle.search_counterexample_fnz("1 <= x", 2, budget=50)
    assert w is not None and w.space == "FnZ"
    assert verify_witness("1 <= x", w)


def test_fnz_misses_valid_law():
    assert oracle.search_counterexample_fnz("1 <= x^(-1) x", 2,
                                            budget=2000) is None


def test_fnz_commutativity_split_by_period():
    w = oracle.search_counterexample_fnz("x y = y x", 2, budget=2000)
    assert w is not None
    assert verify_witness("x y = y x", w)
    # at n=1 everything is a translation, so nothing to find
    assert oracle.search_counterexample_fnz("x y = y x", 1,
                                            budget=2000) is None


def test_fnz_checked_values_match_assignment():
    w = oracle.search_counterexample_fnz("1 <= x x", 1, budget=200)
    assert w is not None
    for _, v in w.checked:
        assert v < w.point


# ----------------------------------------------------------- lex-chain hits

def test_lex_separation_witness_for_commutativity():
    w = oracle.search_counterexample_lex("x y = y x", 1, budget=500)
    assert w is not None and w.space == "FnQxZ"
    assert verify_witness("x y = y x", w)


def test_lex_inverses_differ_at_period_two():
    w = oracle.search_counterexample_lex("x^l = x^r", 2, budget=500)
    assert w is not None
    assert verify_witness("x^l = x^r", w)


def test_lex_misses_periodicity_law():
    assert oracle.search_counterexample_lex("x^(2) = x", 1,
                                            budget=300) is None


def test_lex_finds_one_below_x():
    w = oracle.search_counterexample_lex("1 <= x", 1, budget=100)
    assert w is not None
    assert verify_witness("1 <= x", w)


# ----------------------------------------------------------------- plumbing

def test_zero_budget_finds_nothing():
    assert oracle.search_counterexample_fnz("1 <= x", 1, budget=0) is None
    assert oracle.search_counterexample_lex("1 <= x", 1, budget=0) is None


def test_rejects_bad_period_and_budget():
    for search in (oracle.search_counterexample_fnz,
                   oracle.search_counterexample_lex):
        with pytest.raises(ValueError, match="period"):
            search("1 <= x", 0)
        with pytest.raises(ValueError, match="budget"):
            search("1 <= x", 1, budget=-1)


def test_trivial_equation_finds_nothing():
    assert oracle.search_counterexample_fnz("x = x", 2, budget=100) is None


def test_seed_determinism_of_search():
    # an equation the exhaustive phase cannot settle, so the RNG matters:
    # three variables make the product space too big
    eq = "x y z = z y x"
    a = oracle.search_counterexample_fnz(eq, 2, budget=400, seed=9)
    b = oracle.search_counterexample_fnz(eq, 2, budget=400, seed=9)
    assert (a is None) == (b is None)
    if a is not None:
        assert a.to_json() == b.to_json()


def test_agreement_with_decider_on_quick_cases():
    for eq, n in [("1 <= x", 2), ("x^l = x^r", 2)]:
        v = decide.decide_fnz(eq, n)
        w = oracle.search_counterexample_fnz(eq, n, budget=2000)
        assert v.status == decide.FAILS and w is not None
    v = decide.decide_fnz("1 <= x x^l", 2, complete=True)
    assert v.status == decide.VALID
    assert oracle.search_counterexample_fnz("1 <= x x^l", 2,
                                            budget=2000) is None
