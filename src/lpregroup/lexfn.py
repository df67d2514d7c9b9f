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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
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
        x = _frac(x)
        pts = self.anchors
        if not pts:
            return x
        if x <= pts[0][0]:
            return pts[0][1] + (x - pts[0][0])
        if x >= pts[-1][0]:
            return pts[-1][1] + (x - pts[-1][0])
        lo, hi = 0, len(pts) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if pts[mid][0] <= x:
                lo = mid
            else:
                hi = mid
        (x1, y1), (x2, y2) = pts[lo], pts[hi]
        return y1 + (y2 - y1) * (x - x1) / (x2 - x1)

    def inverse(self) -> "PLBijection":
        return PLBijection(tuple((y, x) for x, y in self.anchors))

    def compose(self, other: "PLBijection") -> "PLBijection":
        """self after other."""
        inv = other.inverse()
        xs = sorted({x for x, _ in other.anchors}
                    | {inv(x) for x, _ in self.anchors})
        return PLBijection(tuple((x, self(other(x))) for x in xs))

    @classmethod
    def translation(cls, c: Rational) -> "PLBijection":
        return cls(((Fraction(0), _frac(c)),))

    def to_json(self) -> dict:
        pts = self.anchors
        breakpoints = [str(x) for x, _ in pts]
        pieces = []
        bounds = [None] + [x for x, _ in pts] + [None]
        for i in range(len(pts) + 1):
            if i == 0:
                slope = Fraction(1)
                ref = pts[0] if pts else (Fraction(0), Fraction(0))
            elif i == len(pts):
                slope = Fraction(1)
                ref = pts[-1]
            else:
                (x1, y1), (x2, y2) = pts[i - 1], pts[i]
                slope = (y2 - y1) / (x2 - x1)
                ref = pts[i]
            intercept = ref[1] - slope * ref[0]
            pieces.append({"slope": str(slope), "intercept": str(intercept)})
        return {"breakpoints": breakpoints, "pieces": pieces}

    @classmethod
    def from_json(cls, data: dict) -> "PLBijection":
        xs = [Fraction(s) for s in data["breakpoints"]]
        pieces = [(Fraction(p["slope"]), Fraction(p["intercept"]))
                  for p in data["pieces"]]
        if len(pieces) != len(xs) + 1:
            raise ValueError("need one more piece than breakpoints")
        if pieces[0][0] != 1 or pieces[-1][0] != 1:
            raise ValueError("both tails must have slope 1")
        anchors = []
        for x, (s1, b1), (s2, b2) in zip(xs, pieces, pieces[1:]):
            if s1 * x + b1 != s2 * x + b2:
                raise ValueError(f"pieces do not meet at breakpoint {x}")
            anchors.append((x, s1 * x + b1))
        # no breakpoints: the translation by the one piece's intercept
        return cls(tuple(anchors) or ((Fraction(0), pieces[0][1]),))


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
        if self.n < 1:
            raise ValueError(f"period must be >= 1, got {self.n}")
        comps = []
        seen = set()
        for j, f in self.components:
            j = _frac(j)
            if f.n != self.n:
                raise ValueError(f"component period {f.n} != {self.n}")
            if j in seen:
                raise ValueError(f"duplicate component at {j}")
            seen.add(j)
            if f != fnz.id_fn(self.n):
                comps.append((j, f))
        comps.sort()
        object.__setattr__(self, "components", tuple(comps))

    def component(self, j: Rational) -> PeriodicFn:
        j = _frac(j)
        for jj, f in self.components:
            if jj == j:
                return f
        return fnz.id_fn(self.n)

    @property
    def support(self) -> tuple[Fraction, ...]:
        return tuple(j for j, _ in self.components)


def identity(n: int) -> LexFn:
    return LexFn(n)


def eval(f: LexFn, p: tuple[Rational, int]) -> Point:
    j, r = p
    return (f.tilde(j), fnz.eval(f.component(j), r))


def compose(f: LexFn, g: LexFn) -> LexFn:
    """f after g, fiberwise (f.comp at the moved index) after g.comp."""
    if f.n != g.n:
        raise ValueError(f"period mismatch: {f.n} != {g.n}")
    gt_inv = g.tilde.inverse()
    support = {j for j, _ in g.components}
    support |= {gt_inv(j) for j, _ in f.components}
    comps = tuple(
        (j, fnz.compose(f.component(g.tilde(j)), g.component(j)))
        for j in sorted(support))
    return LexFn(f.n, f.tilde.compose(g.tilde), comps)


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
    odd = m % 2
    if odd:
        j = f.tilde.inverse()(j)
    c = dict(f.components).get(j)
    return (j if odd else f.tilde(j), r if c is None else fnz.inv_at(c, m, r))


def eval_word(word: Iterable[tuple[str, int]],
              assignment: Mapping[str, LexFn], p: Point) -> Point:
    """Evaluate a product of literals (var, m) at a point, rightmost factor
    first, sending each variable through its assigned function's m-th
    iterated inverse."""
    for name, m in reversed(tuple(word)):
        p = inv_at(assignment[name], m, p)
    return p


def leq(f: LexFn, g: LexFn, sample: Iterable[tuple[Rational, int]]) -> bool:
    """Pointwise comparison on the given sample: a sound refuter, exact
    only if the sample covers the disagreement set."""
    if f.n != g.n:
        raise ValueError(f"period mismatch: {f.n} != {g.n}")
    return all(eval(f, p) <= eval(g, p) for p in sample)


def _tilde_grid(f: LexFn, g: LexFn) -> list[Fraction]:
    xs = sorted({x for x, _ in f.tilde.anchors}
                | {x for x, _ in g.tilde.anchors})
    return xs if xs else [Fraction(0)]


def _equality_regions(f: LexFn, g: LexFn):
    """Where the global parts agree: a list of closed intervals
    (lo, hi) with None for an unbounded end, covering exactly
    {j : f.tilde(j) = g.tilde(j)}.  Meaningful only when one global part
    is pointwise below the other; may also be used to detect crossings
    since a sign change shows up as a negative value at a grid point."""
    xs = _tilde_grid(f, g)
    d = [g.tilde(x) - f.tilde(x) for x in xs]
    regions = []
    if d[0] == 0:
        regions.append((None, xs[0]))
    for i in range(len(xs) - 1):
        if d[i] == 0 and d[i + 1] == 0:
            regions.append((xs[i], xs[i + 1]))
        elif d[i] == 0:
            regions.append((xs[i], xs[i]))
        elif d[i + 1] == 0:
            regions.append((xs[i + 1], xs[i + 1]))
    if d[-1] == 0:
        regions.append((xs[-1], None))
    return regions


def _in_regions(j: Fraction, regions) -> bool:
    for lo, hi in regions:
        if (lo is None or lo <= j) and (hi is None or j <= hi):
            return True
    return False


def exact_leq(f: LexFn, g: LexFn) -> bool:
    """Decide the pointwise lexicographic order: the global part of f must
    stay below g's everywhere, and on the agreement set the fiber
    components must compare."""
    if f.n != g.n:
        raise ValueError(f"period mismatch: {f.n} != {g.n}")
    xs = _tilde_grid(f, g)
    if any(f.tilde(x) > g.tilde(x) for x in xs):
        return False
    regions = _equality_regions(f, g)
    for j in set(f.support) | set(g.support):
        if _in_regions(j, regions):
            if not fnz.leq(f.component(j), g.component(j)):
                return False
    return True


def _lattice_grid(f: LexFn, g: LexFn) -> list[Fraction]:
    """Grid points plus crossings of the two global parts, so that between
    consecutive points one global part stays on one side."""
    xs = _tilde_grid(f, g)
    out = set(xs)
    for a, b in zip(xs, xs[1:]):
        da = g.tilde(a) - f.tilde(a)
        db = g.tilde(b) - f.tilde(b)
        if (da > 0 > db) or (da < 0 < db):
            out.add(a + (b - a) * da / (da - db))
    return sorted(out)


def _pointwise_lattice(f: LexFn, g: LexFn, pick_smaller: bool) -> LexFn:
    if f.n != g.n:
        raise ValueError(f"period mismatch: {f.n} != {g.n}")
    xs = _lattice_grid(f, g)
    anchors = []
    for x in xs:
        fx, gx = f.tilde(x), g.tilde(x)
        if pick_smaller:
            anchors.append((x, min(fx, gx)))
        else:
            anchors.append((x, max(fx, gx)))
    tilde = PLBijection(tuple(anchors)) if anchors else PLBijection()
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
    return LexFn(f.n, tilde, tuple(comps))


def meet(f: LexFn, g: LexFn) -> LexFn:
    """Pointwise lexicographic minimum."""
    return _pointwise_lattice(f, g, pick_smaller=True)


def join(f: LexFn, g: LexFn) -> LexFn:
    """Pointwise lexicographic maximum."""
    return _pointwise_lattice(f, g, pick_smaller=False)


# ----------------------------------------------------------- serialization

def fn_to_json(f: PeriodicFn) -> dict:
    return {"n": f.n, "vals": list(f.vals)}


def fn_from_json(data: dict) -> PeriodicFn:
    return PeriodicFn(int(data["n"]), tuple(int(v) for v in data["vals"]))


def to_json(f: LexFn) -> dict:
    return {
        "n": f.n,
        "tilde": f.tilde.to_json(),
        "components": [{"j": str(j), "fn": fn_to_json(c)}
                       for j, c in f.components],
    }


def from_json(data: dict) -> LexFn:
    return LexFn(
        int(data["n"]),
        PLBijection.from_json(data["tilde"]),
        tuple((Fraction(c["j"]), fn_from_json(c["fn"]))
              for c in data["components"]),
    )
