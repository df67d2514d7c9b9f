"""Brute-force counterexample search over concrete functions.

Independent of the diagram machinery in search/spacing: this module just
instantiates variables with randomly (or, at the smallest sizes,
exhaustively) generated functions and scans points for a failing conjunct.
It exists to cross-check the decision procedures.  A returned witness has
passed decide.verify_witness; None certifies nothing.

Both searches lean on the same periodicity fact: every function in play
sends (.., z + n) to (.., value + n), so the set of failing points is
invariant under shifting the integer coordinate by n, and scanning one
period decides each candidate block.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Iterator, Optional, Union

from . import fnz, term
from .decide import SPACES, Witness, verify_witness
from .fnz import PeriodicFn
from .lexfn import LexFn, PLBijection
from .term import Equation, word_str

DEFAULT_BUDGET = 100_000

# value-bound multipliers for the random phase, tried in order with an
# equal slice of the remaining budget each
_STAGES = (1, 2, 4, 8)

# anchor and support coordinates for random lex functions stay in
# [-_SPAN, _SPAN]; counterexamples at this scale have small descriptions
_SPAN = 2


# -------------------------------------------------------------- generators

def random_periodic_fn(n: int, value_bound: int,
                       rng: random.Random) -> PeriodicFn:
    """Uniformly random n-periodic function with |f(0)| <= value_bound.

    f(0) is uniform on [-value_bound, value_bound] and the rest of the
    period is a uniformly random nondecreasing sequence in the window
    [f(0), f(0) + n], drawn through the bijection with sorted distinct
    samples.  The two choices are independent, so the result is uniform
    over the whole family.
    """
    if value_bound < n:
        raise ValueError(
            f"value_bound must be >= n, got {value_bound} < {n}")
    v0 = rng.randint(-value_bound, value_bound)
    picks = sorted(rng.sample(range(2 * n - 1), n - 1))
    vals = (v0,) + tuple(v0 + b - i for i, b in enumerate(picks))
    return fnz.tabulated(n, vals)


def all_periodic_fns(n: int, value_bound: int) -> Iterator[PeriodicFn]:
    """Every n-periodic function with |f(0)| <= value_bound, in a fixed
    order."""
    for v0 in range(-value_bound, value_bound + 1):
        for tail in itertools.combinations_with_replacement(
                range(v0, v0 + n + 1), n - 1):
            yield fnz.tabulated(n, (v0,) + tail)


def count_periodic_fns(n: int, value_bound: int) -> int:
    return (2 * value_bound + 1) * math.comb(2 * n - 1, n - 1)


def _random_tilde(rng: random.Random) -> PLBijection:
    # biased toward the simple shapes; a genuine bend needs two anchors
    # with distinct slopes on either side
    k = rng.choice((0, 1, 1, 2))
    if k == 0:
        return PLBijection()
    if k == 1:
        return PLBijection.translation(rng.randint(-_SPAN, _SPAN))
    xs = sorted(rng.sample(range(-_SPAN, _SPAN + 1), 2))
    ys = sorted(rng.sample(range(-_SPAN, _SPAN + 1), 2))
    return PLBijection(((Fraction(xs[0]), Fraction(ys[0])),
                        (Fraction(xs[1]), Fraction(ys[1]))))


def random_lexfn(n: int, value_bound: int, rng: random.Random) -> LexFn:
    """Random element of the lexicographic-chain algebra: a small global
    part and at most three nontrivial fiber components."""
    tilde = _random_tilde(rng)
    m = rng.choice((0, 1, 1, 2, 3))
    support = rng.sample(range(-_SPAN, _SPAN + 1), m)
    comps = tuple((Fraction(j), random_periodic_fn(n, value_bound, rng))
                  for j in support)
    return LexFn(n, tilde, comps)


def _small_lexfns(n: int) -> Iterator[LexFn]:
    """A fixed small family of 3 * count_periodic_fns(n, n) elements:
    global translations by 0, 1, -1 crossed with one fiber component at
    block 0 over the tightest value bound.  Big enough to contain the
    classic separation witnesses (a fiber shift against a block
    translation; a non-invertible fiber component).  Lazy, like
    all_periodic_fns, so a search that skips the pool builds none."""
    for t in (PLBijection(), PLBijection.translation(1),
              PLBijection.translation(-1)):
        for f in all_periodic_fns(n, n):
            yield LexFn(n, t, ((Fraction(0), f),))


# --------------------------------------------------------------- the scans

def _check_args(n: int, budget: int) -> None:
    if n < 1:
        raise ValueError(f"period must be positive, got {n}")
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")


def _failing_conjunct(conjuncts, assignment, points, ev):
    """First (conjunct index, point, joinand evaluations) where every
    joinand lands strictly below the point, or None."""
    for ci, conj in enumerate(conjuncts):
        for p in points:
            vals = [ev(w, assignment, p) for w in conj.joinands]
            if vals and all(v < p for v in vals):
                checked = tuple((word_str(w), v)
                                for w, v in zip(conj.joinands, vals))
                return ci, p, checked
    return None


def _candidate_blocks(assignment) -> list[Fraction]:
    """Rationals worth scanning as the block coordinate: component
    supports and global-part corners of every assigned function, closed
    once under each global part and its inverse, plus midpoints and one
    block beyond each end."""
    js = {Fraction(0)}
    for f in assignment.values():
        js.update(f.support)
        for x, y in f.tilde.anchors:
            js.add(x)
            js.add(y)
    for f in assignment.values():
        js |= {f.tilde(j) for j in js} | {f.tilde.preimage(j) for j in js}
    pts = sorted(js)
    out = set(pts)
    out.update((a + b) / 2 for a, b in zip(pts, pts[1:]))
    out.add(pts[0] - 1)
    out.add(pts[-1] + 1)
    return sorted(out)


def _search(eq: Union[Equation, str], n: int, budget: int, seed: int,
            space: str, points, pool, pool_size: int, cap: int,
            draw) -> Optional[Witness]:
    """The scan both searches share.  When pool_size ** (variable count)
    fits in min(budget, cap), every assignment from the pool is tried
    first; the rest of the budget samples draw(n, bound, rng) per
    variable in equal slices over the bounds _STAGES * n.  Each
    assignment is scanned at points(assignment), and a hit is re-verified
    before it is returned."""
    conjuncts = term.conjuncts(eq)
    names = term.variables_of(conjuncts)
    if not conjuncts or not names:
        return None
    ev = SPACES[space].algebra.eval_word
    rng = random.Random(seed)
    spent = 0

    def attempt(assignment):
        hit = _failing_conjunct(conjuncts, assignment, points(assignment),
                                ev)
        if hit is None:
            return None
        ci, p, checked = hit
        w = Witness(space, n, dict(assignment), p, ci, checked)
        if not verify_witness(conjuncts, w):
            raise AssertionError("oracle witness failed re-verification")
        return w

    if pool_size ** len(names) <= min(budget, cap):
        for combo in itertools.product(pool, repeat=len(names)):
            spent += 1
            w = attempt(dict(zip(names, combo)))
            if w:
                return w

    remaining = budget - spent
    for i, mult in enumerate(_STAGES):
        quota = remaining // (len(_STAGES) - i)
        remaining -= quota
        bound = mult * n
        for _ in range(quota):
            w = attempt({nm: draw(n, bound, rng) for nm in names})
            if w:
                return w
    return None


def search_counterexample_fnz(eq: Union[Equation, str], n: int,
                              budget: int = DEFAULT_BUDGET,
                              seed: int = 0) -> Optional[Witness]:
    """Look for a failing assignment of n-periodic functions on Z.

    Exhausts the tightest value bound first when the variable count makes
    that affordable, then samples with escalating bounds.  The budget
    counts assignments tried; each one is checked at one period's worth
    of points, which is exact because failing points recur n-periodically.
    """
    _check_args(n, budget)
    return _search(eq, n, budget, seed, "FnZ", lambda asg: range(n),
                   all_periodic_fns(n, n), count_periodic_fns(n, n), 30_000,
                   random_periodic_fn)


def search_counterexample_lex(eq: Union[Equation, str], n: int,
                              budget: int = DEFAULT_BUDGET,
                              seed: int = 0) -> Optional[Witness]:
    """Look for a failing assignment on the lexicographic chain Q x Z.

    Same shape as the integer search, but the candidate points pair a
    block coordinate from the assignment's global-part corners and supports
    with one period's worth of integer slots.
    """
    _check_args(n, budget)
    return _search(eq, n, budget, seed, "FnQxZ",
                   lambda asg: [(j, z) for j in _candidate_blocks(asg)
                                for z in range(n)],
                   _small_lexfns(n), 3 * count_periodic_fns(n, n), 10_000,
                   random_lexfn)
