"""Exact arithmetic for finitely-describable residuated functions on the
lexicographic chain Q x Z.

Such a function splits into a global part and local parts: it acts on the
first coordinate as an order-preserving bijection of Q, and on each fiber
{j} x Z as an n-periodic function of the integers,
    f(j, r) = (tilde(j), comp_j(r)).
Here the global parts are kept piecewise-linear with slope-1 tails, the
simplest class of rational bijections closed under composition and
inversion, and all but finitely many local components are the identity.
That is enough to state, evaluate, and verify counterexamples; it is not an
attempt to represent arbitrary order-bijections of Q.

A global part is its normalized corner points, its anchors, in memory,
and one bisection over them evaluates it in either direction.  The order
is ``leq(f, g)``, decided exactly as ``meet(f, g) == f``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Mapping

from . import fnz
from .fnz import PeriodicFn

Rational = Fraction | int
Point = tuple[Fraction, int]


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class PLBijection:
    """Strictly increasing piecewise-linear bijection of Q with slope-1
    tails, stored as its corner points (x, y) and normalized so that equal
    functions have equal anchor tuples.

    No anchors means the identity; a single anchor (0, c) is the
    translation by c.
    """

    anchors: tuple[tuple[Fraction, Fraction], ...] = ()

    def __post_init__(self):
        pts = tuple((_frac(x), _frac(y)) for x, y in self.anchors)
        for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
            if not (x1 < x2 and y1 < y2):
                raise ValueError("anchors must increase in both coordinates")
        object.__setattr__(self, "anchors", _normalize(pts))

    @property
    def is_identity(self) -> bool:
        return not self.anchors

    def __call__(self, x: Rational) -> Fraction:
        return _through(self.anchors, _frac(x), 0)

    def preimage(self, y: Rational) -> Fraction:
        """The x with self(x) = y, without building the inverse."""
        return _through(self.anchors, _frac(y), 1)

    def inverse(self) -> "PLBijection":
        return PLBijection(tuple((y, x) for x, y in self.anchors))

    def compose(self, other: "PLBijection") -> "PLBijection":
        """self after other."""
        xs = sorted({x for x, _ in other.anchors}
                    | {other.preimage(x) for x, _ in self.anchors})
        return PLBijection(tuple((x, self(other(x))) for x in xs))

    @classmethod
    def translation(cls, c: Rational) -> "PLBijection":
        return cls(((Fraction(0), _frac(c)),))


def _through(pts, x: Fraction, i: int) -> Fraction:
    """The PL map through the anchors pts at x, read from coordinate i to
    the other one: i = 0 evaluates the map, i = 1 its inverse."""
    if not pts:
        return x
    o = 1 - i
    k = bisect_right(pts, x, key=itemgetter(i))
    if k == 0 or k == len(pts):  # a slope-1 tail
        a = pts[0] if k == 0 else pts[-1]
        return a[o] + (x - a[i])
    a, b = pts[k - 1], pts[k]
    return a[o] + (b[o] - a[o]) * (x - a[i]) / (b[i] - a[i])


def _normalize(pts):
    if not pts:
        return ()
    slopes = [Fraction(1)]
    for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
        slopes.append((y2 - y1) / (x2 - x1))
    slopes.append(Fraction(1))
    kept = tuple(p for i, p in enumerate(pts) if slopes[i] != slopes[i + 1])
    if kept or pts[0][1] == pts[0][0]:
        return kept
    # every anchor sits on y = x + c: a pure translation needs one anchor
    return ((Fraction(0), pts[0][1] - pts[0][0]),)


@dataclass(frozen=True)
class LexFn:
    """Element of the residuated function algebra on Q x Z with period n:
    a global PL bijection and finitely many non-identity fiber components.
    """

    n: int
    tilde: PLBijection = field(default_factory=PLBijection)
    components: tuple[tuple[Fraction, PeriodicFn], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "components", fnz.fiber_components(
            self.n, ((_frac(j), f) for j, f in self.components)))

    def component(self, j: Rational) -> PeriodicFn:
        j = _frac(j)
        for jj, f in self.components:
            if jj == j:
                return f
        return fnz.id_fn(self.n)

    @property
    def support(self) -> tuple[Fraction, ...]:
        return tuple(j for j, _ in self.components)


def eval(f: LexFn, p: tuple[Rational, int]) -> Point:
    j, r = p
    return (f.tilde(j), fnz.eval(f.component(j), r))


def compose(f: LexFn, g: LexFn) -> LexFn:
    """f after g, fiberwise (f.comp at the moved index) after g.comp."""
    n = fnz.shared_period(f, g)
    support = {j for j, _ in g.components}
    support |= {g.tilde.preimage(j) for j, _ in f.components}
    comps = tuple(
        (j, fnz.compose(f.component(g.tilde(j)), g.component(j)))
        for j in sorted(support))
    return LexFn(n, f.tilde.compose(g.tilde), comps)


def iter_inv(f: LexFn, m: int) -> LexFn:
    """m-fold iterated inverse, componentwise through fnz.iter_inv.  An
    even m keeps the global part and the component indices; an odd m
    inverts the global part and moves component j to tilde(j)."""
    if m == 0:
        return f
    odd = m % 2
    return LexFn(f.n, f.tilde.inverse() if odd else f.tilde,
                 tuple((f.tilde(j) if odd else j, fnz.iter_inv(c, m))
                       for j, c in f.components))


def linv(f: LexFn) -> LexFn:
    """Left adjoint: smallest g with composition above the identity."""
    return iter_inv(f, 1)


def rinv(f: LexFn) -> LexFn:
    return iter_inv(f, -1)


def inv_at(f: LexFn, m: int, p: tuple[Rational, int]) -> Point:
    """f^(m)(p) without building f^(m) (see iter_inv): an even m gives
    (tilde(j), comp_j^(m)(r)), an odd m gives (i, comp_i^(m)(r)) with
    i = tilde^-1(j).  A fiber without a component keeps r, since every
    iterated inverse of the identity is the identity."""
    j, r = p
    if m % 2:
        i = f.tilde.preimage(j)
        return (i, fnz.inv_at(f.component(i), m, r))
    return (f.tilde(j), fnz.inv_at(f.component(j), m, r))


def eval_word(word: Iterable[tuple[str, int]],
              assignment: Mapping[str, LexFn], p: Point) -> Point:
    """Evaluate a product of literals (var, m) at a point, rightmost factor
    first, sending each variable through its assigned function's m-th
    iterated inverse."""
    for name, m in reversed(tuple(word)):
        p = inv_at(assignment[name], m, p)
    return p


def leq(f: LexFn, g: LexFn) -> bool:
    """Decide the pointwise lexicographic order.  In a lattice f <= g iff
    f meet g = f, and meet is exact: between consecutive points of
    _lattice_grid one global part stays below the other, and on the
    agreement set the components meet.  Equal functions have equal
    normal forms (PL anchors normalized, identity components dropped,
    components sorted), so structural equality decides the order."""
    return meet(f, g) == f


def _lattice_grid(f: LexFn, g: LexFn) -> list[Fraction]:
    """Both global parts' corners (or 0 when neither has one) plus their
    crossings, so that between consecutive points one global part stays
    on one side."""
    xs = sorted({x for x, _ in f.tilde.anchors}
                | {x for x, _ in g.tilde.anchors}) or [Fraction(0)]
    out = set(xs)
    for a, b in zip(xs, xs[1:]):
        da = g.tilde(a) - f.tilde(a)
        db = g.tilde(b) - f.tilde(b)
        if (da > 0 > db) or (da < 0 < db):
            out.add(a + (b - a) * da / (da - db))
    return sorted(out)


def _pointwise_lattice(f: LexFn, g: LexFn, pick_smaller: bool) -> LexFn:
    n = fnz.shared_period(f, g)
    pick = min if pick_smaller else max
    tilde = PLBijection(tuple((x, pick(f.tilde(x), g.tilde(x)))
                              for x in _lattice_grid(f, g)))
    comps = []
    for j in sorted(set(f.support) | set(g.support)):
        fj, gj = f.tilde(j), g.tilde(j)
        if fj == gj:
            op = fnz.meet if pick_smaller else fnz.join
            comps.append((j, op(f.component(j), g.component(j))))
        elif (fj < gj) == pick_smaller:
            comps.append((j, f.component(j)))
        else:
            comps.append((j, g.component(j)))
    return LexFn(n, tilde, tuple(comps))


def meet(f: LexFn, g: LexFn) -> LexFn:
    """Pointwise lexicographic minimum."""
    return _pointwise_lattice(f, g, pick_smaller=True)


def join(f: LexFn, g: LexFn) -> LexFn:
    """Pointwise lexicographic maximum."""
    return _pointwise_lattice(f, g, pick_smaller=False)

