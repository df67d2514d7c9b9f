"""n-periodic residuated self-maps of the integers.

An n-periodic function f: Z -> Z satisfying f(x + n) = f(x) + n is stored by
its values on one period: ``PeriodicFn(n, vals)`` with ``vals[r] = f(r)`` for
r in [0, n).  Order-preservation plus periodicity is equivalent to the window
invariant

    vals[0] <= vals[1] <= ... <= vals[n-1] <= vals[0] + n,

which the constructor checks.  Under composition these maps form a monoid;
each one is residuated, and both residuals stay in the family, so the whole
thing is a lattice-ordered monoid with pointwise meet and join.

Composition is written in application order: ``compose(f, g)`` is f after g.
"""

from __future__ import annotations

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


def _offset_range(f: PeriodicFn) -> tuple[int, int]:
    offsets = [f.vals[r] - r for r in range(f.n)]
    return min(offsets), max(offsets)


def linv(f: PeriodicFn) -> PeriodicFn:
    """Left residual inverse: linv(f)(a) = min{b : a <= f(b)}.

    The minimum exists because f is unbounded above.  Since f(b) - b is
    bounded by the offsets of one period, it suffices to scan b in a window
    of width ~2n around a - offset.
    """
    lo_off, hi_off = _offset_range(f)
    out = []
    for a in range(f.n):
        b = a - hi_off - f.n
        while eval(f, b) < a:
            b += 1
        if b > a - lo_off + f.n:
            raise AssertionError(f"linv({a}) = {b} outside its window")
        out.append(b)
    return PeriodicFn(f.n, tuple(out))


def rinv(f: PeriodicFn) -> PeriodicFn:
    """Right residual inverse: rinv(f)(b) = max{a : f(a) <= b}."""
    lo_off, hi_off = _offset_range(f)
    out = []
    for b in range(f.n):
        a = b - lo_off + f.n
        while eval(f, a) > b:
            a -= 1
        if a < b - hi_off - f.n:
            raise AssertionError(f"rinv({b}) = {a} outside its window")
        out.append(a)
    return PeriodicFn(f.n, tuple(out))


def iter_inv(f: PeriodicFn, m: int) -> PeriodicFn:
    """m-fold iterated inverse f^(m): f^(0) = f, f^(m+1) = linv(f^(m)),
    f^(m-1) = rinv(f^(m)).

    Uses the closed form f^(2k)(x) = f(x - k) + k for the even part, so at
    most one residual is computed: linv of the even part below an odd m,
    rinv of the one above a negative odd m.  In particular f^(2n) = f^(0):
    these maps are n-periodic elements.
    """
    if m < 0 and m % 2:
        return rinv(iter_inv(f, m + 1))
    k, rem = divmod(m, 2)
    even = f if k == 0 else PeriodicFn(
        f.n, tuple(eval(f, r - k) + k for r in range(f.n)))
    return linv(even) if rem else even


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
        x = eval(iter_inv(assignment[name], m), x)
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


def extend_partial(h: Mapping[int, int], n: int,
                   permissive: bool = False) -> PeriodicFn:
    """Extend a finite n-periodic partial function on Z to a total element.

    Raises ValueError if h is not n-periodic as a partial map, or if h is
    empty (an empty map is vacuously periodic but fixes nothing; pass
    permissive=True to get the identity in that case).

    Construction: fold the domain into one period via
    hbar(x mod n) = h(x) - (x - x mod n); extend hbar to all of [0, n) by
    sending r to hbar at the smallest folded domain point >= r, or at the
    largest folded domain point if none is.
    """
    if not h:
        if permissive:
            return id_fn(n)
        raise ValueError("cannot extend an empty partial function "
                         "(pass permissive=True for the identity)")
    if not is_periodic_pairs(h, n):
        raise ValueError(f"partial function is not {n}-periodic: {dict(h)}")
    folded: dict[int, int] = {}
    for x, hx in h.items():
        folded[x % n] = hx - (x - x % n)
    dom = sorted(folded)
    vals = []
    for r in range(n):
        above = [a for a in dom if a >= r]
        a = above[0] if above else dom[-1]
        vals.append(folded[a])
    f = PeriodicFn(n, tuple(vals))
    if any(eval(f, x) != hx for x, hx in h.items()):
        raise AssertionError(f"extension {f} does not agree with {dict(h)}")
    return f
