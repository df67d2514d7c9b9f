"""n-periodic residuated self-maps of the integers.

An n-periodic function f: Z -> Z satisfying f(x + n) = f(x) + n is stored by
its values on one period: ``PeriodicFn(n, vals)`` with ``vals[r] = f(r)`` for
r in [0, n).  Order-preservation plus periodicity is equivalent to the window
invariant

    vals[0] <= vals[1] <= ... <= vals[n-1] <= vals[0] + n,

which the constructor checks.  Under composition these maps form a monoid;
each one is residuated, and both residuals stay in the family, so the whole
thing is a lattice-ordered monoid with pointwise meet and join.  Every
residual, iterated or not, comes from one closed form at a point, inv_at;
iter_inv, linv and rinv tabulate it over a period.

Composition is written in application order: ``compose(f, g)`` is f after g.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Mapping


@dataclass(frozen=True)
class PeriodicFn:
    """An n-periodic order-preserving bijection-like map of Z (not injective
    in general, but unbounded in both directions)."""

    n: int
    vals: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"period must be >= 1, got {self.n}")
        vals = tuple(self.vals)
        object.__setattr__(self, "vals", vals)
        if len(vals) != self.n:
            raise ValueError(f"expected {self.n} values, got {len(vals)}")
        for r in range(self.n - 1):
            if vals[r] > vals[r + 1]:
                raise ValueError(f"values must be nondecreasing: {vals}")
        if vals[-1] > vals[0] + self.n:
            raise ValueError(
                f"period window violated: vals[{self.n - 1}]={vals[-1]} "
                f"> vals[0]+n={vals[0] + self.n}"
            )

    @property
    def is_identity(self) -> bool:
        return all(v == r for r, v in enumerate(self.vals))

    def __call__(self, x: int) -> int:
        return eval(self, x)

    def __repr__(self):
        return f"PeriodicFn({self.n}, {list(self.vals)})"


def eval(f: PeriodicFn, x: int) -> int:
    """Value of f at any integer, via f(x) = f(x mod n) + n*floor(x/n)."""
    q, r = divmod(x, f.n)
    return f.vals[r] + f.n * q


def id_fn(n: int) -> PeriodicFn:
    """The identity map, presented with period n."""
    return PeriodicFn(n, tuple(range(n)))


def shift_fn(n: int, c: int) -> PeriodicFn:
    """Translation x -> x + c, presented with period n."""
    return PeriodicFn(n, tuple(r + c for r in range(n)))


def compose(f: PeriodicFn, g: PeriodicFn) -> PeriodicFn:
    """f after g.  Both arguments must use the same period."""
    if f.n != g.n:
        raise ValueError(f"period mismatch: {f.n} vs {g.n}")
    return PeriodicFn(f.n, tuple(eval(f, eval(g, r)) for r in range(f.n)))


def leq(f: PeriodicFn, g: PeriodicFn) -> bool:
    """Pointwise order; by periodicity one period decides it."""
    if f.n != g.n:
        raise ValueError(f"period mismatch: {f.n} vs {g.n}")
    return all(a <= b for a, b in zip(f.vals, g.vals))


def meet(f: PeriodicFn, g: PeriodicFn) -> PeriodicFn:
    if f.n != g.n:
        raise ValueError(f"period mismatch: {f.n} vs {g.n}")
    return PeriodicFn(f.n, tuple(min(a, b) for a, b in zip(f.vals, g.vals)))


def join(f: PeriodicFn, g: PeriodicFn) -> PeriodicFn:
    if f.n != g.n:
        raise ValueError(f"period mismatch: {f.n} vs {g.n}")
    return PeriodicFn(f.n, tuple(max(a, b) for a, b in zip(f.vals, g.vals)))


def inv_at(f: PeriodicFn, m: int, x: int) -> int:
    """f^(m)(x), the m-fold iterated inverse at one point, in O(log n):
    f^(0) = f, f^(m+1) = linv(f^(m)), f^(m-1) = rinv(f^(m)).

    With k, odd = divmod(m, 2), f^(2k)(x) = f(x - k) + k and
    f^(2k+1)(x) = linv(f)(x - k) + k; floor division makes m = -1 the
    linv of m = -2, so rinv needs no code of its own.  linv(f)(a) is
    q*n + (first r with vals[r] >= a - q*n), q the least period whose
    last value reaches a.  In particular f^(2n) = f^(0): these maps are
    n-periodic elements.
    """
    k, odd = divmod(m, 2)
    a = x - k
    if not odd:
        return eval(f, a) + k
    q = -((f.vals[-1] - a) // f.n)
    b = q * f.n + bisect_left(f.vals, a - q * f.n)
    if not eval(f, b - 1) < a <= eval(f, b):
        raise AssertionError(f"linv({a}) = {b} is not min{{b : f(b) >= a}}")
    return b + k


def iter_inv(f: PeriodicFn, m: int) -> PeriodicFn:
    """m-fold iterated inverse f^(m), tabulated from inv_at."""
    return PeriodicFn(f.n, tuple(inv_at(f, m, r) for r in range(f.n)))


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
    shift = f.vals[0] - f.vals[0] % f.n
    star = PeriodicFn(f.n, tuple(v - shift for v in f.vals))
    if not 0 <= star.vals[0] < f.n:
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
    order-preserving map.

    The defining condition is: x <= y + kn implies h(x) <= h(y) + kn, for all
    integers k.  For a fixed pair the tightest k is ceil((x - y)/n), so the
    whole family of conditions collapses to

        ceil((h(x) - h(y)) / n) <= ceil((x - y) / n)

    over ordered pairs of domain points (including x = y trivially).
    """
    items = list(pairs.items()) if isinstance(pairs, Mapping) else list(pairs)
    seen: dict[int, int] = {}
    for x, hx in items:
        if seen.setdefault(x, hx) != hx:
            return False
    pts = sorted(seen)
    for i, x in enumerate(pts):
        for y in pts[i + 1:]:
            # two one-sided conditions per unordered pair
            if -((seen[x] - seen[y]) // -n) > -((x - y) // -n):
                return False
            if -((seen[y] - seen[x]) // -n) > -((y - x) // -n):
                return False
    return True


def extend_partial(h: Mapping[int, int], n: int) -> PeriodicFn:
    """Extend a finite n-periodic partial function on Z to a total element.

    Raises ValueError if h is not n-periodic as a partial map.  An empty h
    fixes nothing and extends to the identity.

    Construction: fold the domain into one period via
    hbar(x mod n) = h(x) - (x - x mod n); extend hbar to all of [0, n) by
    sending r to hbar at the smallest folded domain point >= r, or at the
    largest folded domain point if none is.  One sweep over the sorted
    folded domain fills each run of residues (prev, a] with hbar(a), and
    the residues after the last point with hbar(last).
    """
    if not h:
        return id_fn(n)
    if not is_periodic_pairs(h, n):
        raise ValueError(f"partial function is not {n}-periodic: {dict(h)}")
    folded: dict[int, int] = {}
    for x, hx in h.items():
        folded[x % n] = hx - (x - x % n)
    vals: list[int] = []
    for a in sorted(folded):
        vals += [folded[a]] * (a + 1 - len(vals))
    vals += [vals[-1]] * (n - len(vals))
    f = PeriodicFn(n, tuple(vals))
    if any(eval(f, x) != hx for x, hx in h.items()):
        raise AssertionError(f"extension {f} does not agree with {dict(h)}")
    return f
