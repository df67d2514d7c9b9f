"""n-periodic residuated self-maps of the integers.

An n-periodic function f: Z -> Z satisfying f(x + n) = f(x) + n is stored by
its steps on one period: ``PeriodicFn(n, steps)``, steps the sorted pairs
(r_1, v_1), ..., (r_k, v_k), with f(r) for r in [0, n) the value of the
first step at or after r, and v_k past r_k.  Order-preservation plus
periodicity is the window invariant

    0 <= r_1 < ... < r_k < n,    v_1 <= ... <= v_k <= v_1 + n,

which the constructor checks.  It also normalizes: a step whose value the
next one repeats is dropped and the last moves to n - 1, so equal maps
have equal steps, the identity has none, and a map realized from a
diagram has one per diagram point whatever n is (``tabulated`` reads a
whole period).  Under composition these maps form a monoid; each one is
residuated, and both residuals stay in the family, so the whole thing is
a lattice-ordered monoid with pointwise meet and join.  Every residual,
iterated or not, comes from one closed form at a point, inv_at;
iter_inv, linv and rinv tabulate it over a period.

Composition is written in application order: ``compose(f, g)`` is f after g.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Mapping


@dataclass(frozen=True)
class PeriodicFn:
    """An n-periodic order-preserving bijection-like map of Z (not injective
    in general, but unbounded in both directions)."""

    n: int
    steps: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        n, steps = self.n, tuple(self.steps)
        if n < 1:
            raise ValueError(f"period must be >= 1, got {n}")
        if steps and not (0 <= steps[0][0] and steps[-1][0] < n
                          and steps[-1][1] <= steps[0][1] + n):
            raise ValueError(f"steps must lie in [0, {n}) and in the period "
                             f"window: {steps}")
        kept = []
        for s, t in zip(steps, steps[1:]):
            if not (s[0] < t[0] and s[1] <= t[1]):
                raise ValueError("residues must increase and values must "
                                 f"not decrease: {steps}")
            if s[1] != t[1]:
                kept.append(s)
        kept += [(n - 1, steps[-1][1])] if steps else []
        if len(kept) == n and all(r == v for r, v in kept):
            kept = []
        object.__setattr__(self, "steps", tuple(kept))

    @property
    def is_identity(self) -> bool:
        return not self.steps

    def __call__(self, x: int) -> int:
        return eval(self, x)


def tabulated(n: int, vals: Iterable[int]) -> PeriodicFn:
    """The map with f(r) = vals[r] for r in [0, n)."""
    steps = tuple(enumerate(vals))
    if len(steps) != n:
        raise ValueError(f"expected {n} values, got {len(steps)}")
    return PeriodicFn(n, steps)


def eval(f: PeriodicFn, x: int) -> int:
    """Value of f at any integer, via f(x) = f(x mod n) + n*floor(x/n)."""
    if not f.steps:
        return x
    q, r = divmod(x, f.n)
    return f.steps[bisect_left(f.steps, (r,))][1] + f.n * q


def id_fn(n: int) -> PeriodicFn:
    """The identity map, presented with period n."""
    return PeriodicFn(n)


def shift_fn(n: int, c: int) -> PeriodicFn:
    """Translation x -> x + c, presented with period n."""
    return tabulated(n, range(c, n + c))


def shared_period(a, b) -> int:
    """The period of a and b, PeriodicFn, LexFn or WreathElement alike;
    ValueError when they differ."""
    if a.n != b.n:
        raise ValueError(f"period mismatch: {a.n} != {b.n}")
    return a.n


def fiber_components(n: int, comps: Iterable[tuple]) -> tuple:
    """The normal form of a finite family of fiber components, pairs
    (index, PeriodicFn) with the indices already in their type: n must be
    at least 1, every component must have period n and no index may
    repeat; identity components are dropped and the rest sorted by
    index, so equal families have equal forms."""
    if n < 1:
        raise ValueError(f"period must be >= 1, got {n}")
    kept, seen = [], set()
    for j, f in comps:
        if f.n != n:
            raise ValueError(f"component period {f.n} != {n}")
        if j in seen:
            raise ValueError(f"duplicate component at {j}")
        seen.add(j)
        if not f.is_identity:
            kept.append((j, f))
    return tuple(sorted(kept, key=itemgetter(0)))


def compose(f: PeriodicFn, g: PeriodicFn) -> PeriodicFn:
    """f after g.  Both arguments must use the same period."""
    n = shared_period(f, g)
    return tabulated(n, (eval(f, eval(g, r)) for r in range(n)))


def leq(f: PeriodicFn, g: PeriodicFn) -> bool:
    """Pointwise order; by periodicity one period decides it."""
    return all(eval(f, r) <= eval(g, r) for r in range(shared_period(f, g)))


def meet(f: PeriodicFn, g: PeriodicFn) -> PeriodicFn:
    n = shared_period(f, g)
    return tabulated(n, (min(eval(f, r), eval(g, r)) for r in range(n)))


def join(f: PeriodicFn, g: PeriodicFn) -> PeriodicFn:
    n = shared_period(f, g)
    return tabulated(n, (max(eval(f, r), eval(g, r)) for r in range(n)))


def inv_at(f: PeriodicFn, m: int, x: int) -> int:
    """f^(m)(x), the m-fold iterated inverse at one point, by bisection
    over the steps: f^(0) = f, f^(m+1) = linv(f^(m)), f^(m-1) = rinv(f^(m)).

    With k, odd = divmod(m, 2), f^(2k)(x) = f(x - k) + k and
    f^(2k+1)(x) = linv(f)(x - k) + k; floor division makes m = -1 the
    linv of m = -2, so rinv needs no code of its own.  linv(f)(a) is
    q*n + (the residue after the last step below a - q*n, or 0), q the
    least period whose last value reaches a.  In particular
    f^(2n) = f^(0): these maps are n-periodic elements.
    """
    if not f.steps:
        return x
    k, odd = divmod(m, 2)
    a = x - k
    if not odd:
        return eval(f, a) + k
    steps = f.steps
    q = -((steps[-1][1] - a) // f.n)
    i = bisect_left(steps, a - q * f.n, key=itemgetter(1))
    b = q * f.n + (steps[i - 1][0] + 1 if i else 0)
    if not eval(f, b - 1) < a <= eval(f, b):
        raise AssertionError(f"linv({a}) = {b} is not min{{b : f(b) >= a}}")
    return b + k


def iter_inv(f: PeriodicFn, m: int) -> PeriodicFn:
    """m-fold iterated inverse f^(m), tabulated from inv_at."""
    return tabulated(f.n, (inv_at(f, m, r) for r in range(f.n)))


def linv(f: PeriodicFn) -> PeriodicFn:
    """Left residual inverse: linv(f)(a) = min{b : a <= f(b)}.  The
    minimum exists because f is unbounded above."""
    return iter_inv(f, 1)


def rinv(f: PeriodicFn) -> PeriodicFn:
    """Right residual inverse: rinv(f)(b) = max{a : f(a) <= b}."""
    return iter_inv(f, -1)


def decompose(f: PeriodicFn) -> tuple[int, PeriodicFn]:
    """Split f as a translation by a multiple of n composed with a map
    fixing [0, n) setwise-ish: returns (shift, star) with
    f(x) = star(x) + shift, shift = n*floor(f(0)/n), star(0) in [0, n)."""
    shift = eval(f, 0) // f.n * f.n
    star = tabulated(f.n, (eval(f, r) - shift for r in range(f.n)))
    if not 0 <= eval(star, 0) < f.n:
        raise AssertionError(f"star part starts outside [0, n): {star}")
    return shift, star


def eval_word(word: Iterable[tuple[str, int]],
              assignment: Mapping[str, PeriodicFn], x: int) -> int:
    """Evaluate a product of literals (var, m) at a point, rightmost factor
    first, sending each variable through its assigned function's m-th
    iterated inverse."""
    for name, m in reversed(tuple(word)):
        x = inv_at(assignment[name], m, x)
    return x


def is_periodic_pairs(pairs: Mapping[int, int] | Iterable[tuple[int, int]],
                      n: int) -> bool:
    """Whether a finite partial function on Z extends to an n-periodic
    order-preserving map, that is, whether extend_partial accepts it."""
    try:
        extend_partial(pairs, n)
    except ValueError:
        return False
    return True


def extend_partial(h: Mapping[int, int] | Iterable[tuple[int, int]],
                   n: int) -> PeriodicFn:
    """Extend a finite partial function on Z, a mapping or pairs, to an
    n-periodic order-preserving map, or raise ValueError if there is none.
    An empty h extends to the identity.  h extends exactly when its fold
    into one period, hbar(x mod n) = h(x) - (x - x mod n), is a function
    whose sorted pairs pass the PeriodicFn constructor's window check;
    those pairs are then the extension's steps."""
    pairs = list(h.items() if isinstance(h, Mapping) else h)
    folded: dict[int, int] = {}
    for x, hx in pairs:
        if folded.setdefault(x % n, hx - x + x % n) != hx - x + x % n:
            raise ValueError(f"partial function is not {n}-periodic: {pairs}")
    f = PeriodicFn(n, tuple(sorted(folded.items())))
    if any(eval(f, x) != hx for x, hx in pairs):
        raise AssertionError(f"extension {f} does not agree with {pairs}")
    return f

