"""Exact references for the deciders' valid verdicts.

The brute-force oracle can refute a valid verdict but never certify one,
so a decider that refutes too much would go unseen there.  Two
references catch that:

- F_1(Z) is the l-group Z: a 1-periodic order-preserving map on Z is a
  translation, so x^(m) is the translation by (-1)^m t_x and a joinand is
  a linear form in the t's.  A conjunct 1 <= w1 | ... | wk holds iff no
  rational t makes every form negative (Gordan), which Fourier-Motzkin
  elimination over Fractions decides exactly.
- The inclusions of the paper: F_n(Z) lies in LP_n, and LP_n in LP_m
  (F_n(Z) in F_m(Z)) when n divides m.  So valid in lpn at n implies
  valid in fnz at n, and valid at m implies valid at n in either theory.
  A witness the deciders find at period 1 for a verdict at n, read as
  the same maps with period n, must verify at n.

- The joins of the paper: the varieties V(F_n(Z)) join to DLP, as the
  LP_n do.  So an equation that fails in DLP fails in some F_n(Z), and
  one valid in DLP is valid in every F_n(Z).

The inclusion F_n(Z) in LP_n is strict at n = 1 (commutativity).  At
n = 2, 1 <= y^(-1) x^(1) | y x fails in lpn with a verified witness,
while neither the oracle nor the capped fnz decider refutes it in
F_2(Z): an lpn decider that collapsed to fnz would not fail it.
"""

import collections
import dataclasses
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings

from lpregroup import decide, fnz, lexfn, oracle, term
from lpregroup.decide import FAILS, VALID

from test_decide import equations

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import random_cases  # noqa: E402


# ------------------------------------------------------ F_1(Z) exactly

def _feasible(rows) -> bool:
    """Whether some rational point satisfies every row (a, b), meaning
    sum(a[i] * t[i]) <= b, by Fourier-Motzkin elimination of the last
    variable until none is left."""
    while rows and rows[0][0]:
        pos, neg, out = [], [], []
        for a, b in rows:
            c = a[-1]
            if c > 0:
                pos.append(([x / c for x in a[:-1]], b / c))
            elif c < 0:
                neg.append(([x / -c for x in a[:-1]], b / -c))
            else:
                out.append((a[:-1], b))
        # t <= b_p - a_p t' and t >= a_q t' - b_q meet iff their sum holds
        for ap, bp in pos:
            for aq, bq in neg:
                out.append(([x + y for x, y in zip(ap, aq)], bp + bq))
        rows = out
    return all(b >= 0 for _, b in rows)


def holds_in_f1z(conj: term.IntensionalEquation) -> bool:
    """Whether 1 <= w1 | ... | wk holds over the translations of Z.  The
    forms are homogeneous, so some t makes all of them negative iff some
    t makes all of them at most -1."""
    names = sorted({name for w in conj.joinands for name, _ in w})
    rows = []
    for w in conj.joinands:
        form = dict.fromkeys(names, 0)
        for name, m in w:
            form[name] += -1 if m % 2 else 1
        rows.append(([Fraction(form[v]) for v in names], Fraction(-1)))
    return not _feasible(rows)


def test_f1z_reference_on_known_laws():
    holds = ["x y = y x", "x y x^l y^l <= 1", "x^l = x^r",
             "1 <= x^(-1) y | y^(-1) z | z^(-1) x", "x (y | z) = x y | x z",
             "x^(2) = x"]
    fails = ["1 <= x", "x <= x x", "1 <= x^(-1) y", "x & y = x"]
    for eq in holds:
        assert all(map(holds_in_f1z, term.conjuncts(eq))), eq
    for eq in fails:
        assert not all(map(holds_in_f1z, term.conjuncts(eq))), eq


@settings(max_examples=300, derandomize=True, deadline=None)
@given(equations())
def test_fnz_at_period_one_agrees_with_the_f1z_reference(eq):
    v = decide.decide_fnz(eq, 1, budget=200_000)
    if v.status in (VALID, FAILS):
        want = all(map(holds_in_f1z, term.conjuncts(eq)))
        assert (v.status == VALID) == want, eq


# ------------------------------------------------------- the inclusions

def test_inclusions_between_the_theories():
    eqs = sorted({case.eq for case in random_cases(7, 600)})
    status = {(theory, eq, n): getattr(decide, "decide_" + theory)(
                  eq, n, budget=20_000).status
              for eq in eqs for theory in ("fnz", "lpn") for n in (1, 2, 3)}
    # (premise, conclusion): valid at the first forbids fails at the
    # second
    implications = [(("lpn", n), ("fnz", n)) for n in (1, 2, 3)]
    implications += [((theory, m), (theory, 1))
                     for theory in ("fnz", "lpn") for m in (2, 3)]
    checked = 0
    for eq in eqs:
        for (t1, n1), (t2, n2) in implications:
            premise, conclusion = status[t1, eq, n1], status[t2, eq, n2]
            if premise == VALID and conclusion == FAILS:
                raise AssertionError(f"{eq}: valid in {t1} at {n1}, "
                                     f"fails in {t2} at {n2}")
            checked += premise == VALID and conclusion == VALID
    assert checked > 100


def test_dlp_verdicts_reach_the_integer_functions():
    eqs = sorted({case.eq
                  for case in random_cases(7, 600) + random_cases(11, 600)})
    first_failing = collections.Counter()
    valid = 0
    for eq in eqs:
        status = decide.decide_dlp(eq, budget=20_000).status
        if status == FAILS:
            # every draw that fails in DLP already fails at n = 1 or 2
            for n in (1, 2):
                v = decide.decide_fnz(eq, n, budget=20_000)
                if v.status == FAILS:
                    break
            assert v.status == FAILS, eq
            assert decide.verify_witness(eq, v.witness)
            first_failing[n] += 1
        elif status == VALID:
            assert all(decide.decide_fnz(eq, n, budget=20_000).status
                       != FAILS for n in (1, 2, 3)), eq
            valid += 1
    assert len(eqs) == 792
    assert first_failing[1] > 700 and first_failing[2] > 0 and valid > 40


def _with_period(f, n: int):
    """The 1-periodic map f, the same map of Z or of Q x Z, stored with
    period n."""
    if isinstance(f, fnz.PeriodicFn):
        return fnz.tabulated(n, map(f, range(n)))
    return lexfn.LexFn(n, f.tilde, tuple((j, _with_period(g, n))
                                         for j, g in f.components))


def test_period_one_witnesses_verify_at_the_verdicts_period():
    lifted = valid = 0
    for case in random_cases(7, 600) + random_cases(11, 600):
        if case.n == 1:
            continue
        proc = getattr(decide, "decide_" + case.theory)
        v = proc(case.eq, case.n, budget=20_000)
        if v.status == FAILS and v.witness.n == 1:
            w = dataclasses.replace(v.witness, n=case.n, assignment={
                name: _with_period(f, case.n)
                for name, f in v.witness.assignment.items()})
            assert decide.verify_witness(case.eq, w), case
            lifted += 1
        elif v.status == VALID:
            # F_1(Z) lies in F_n(Z), and LP_1 in LP_n
            assert proc(case.eq, 1, budget=20_000).status != FAILS, case
            valid += 1
    assert lifted > 500 and valid > 10


def test_lpn_does_not_collapse_to_fnz_at_period_two():
    eq = "1 <= y^(-1) x^(1) | y x"
    lpn = decide.decide_lpn(eq, 2, budget=20_000)
    assert lpn.status == FAILS and lpn.witness.space == "FnQxZ"
    assert decide.verify_witness(eq, lpn.witness)
    # valid at n = 1, as the inclusion of F_1(Z) in F_2(Z) requires, and
    # neither the oracle nor the capped decider finds an F_2(Z) witness
    assert decide.decide_fnz(eq, 1, complete=True).status == VALID
    assert oracle.search_counterexample_fnz(eq, 2, budget=20_000) is None
    assert decide.decide_fnz(eq, 2, budget=20_000).status != FAILS
