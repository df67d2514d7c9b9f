"""Wreath product of an acting group of translations with the periodic
function algebra, instantiated at desk scale.

An element is a pair (h, comps): a global integer translation h acting on
the index chain Z, and a finite-support family of periodic functions, one
per index, default identity.  Multiplication twists the left factor's
family by the right factor's translation:
    (h1, n1) * (h2, n2) = (h1 + h2, j -> n1(h2 + j) o n2(j)).
The order compares translations first and, where they agree (here: only
when they are equal), compares components pointwise.  Inverses invert the
translation and re-index the componentwise adjoints.

The instantiation keeps the acting part a group on purpose: with a mere
pregroup acting, the natural inversion formulas stop being involutive
(see the negative test exercising that failure).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import fnz
from .fnz import PeriodicFn
from .lexfn import LexFn, PLBijection


def _index(j) -> int:
    if int(j) != j:
        raise ValueError(f"component index {j} is not an integer")
    return int(j)


@dataclass(frozen=True)
class WreathElement:
    n: int
    h: int = 0
    comps: tuple[tuple[int, PeriodicFn], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "comps", fnz.fiber_components(
            self.n, ((_index(j), f) for j, f in self.comps)))

    def comp(self, j: int) -> PeriodicFn:
        for jj, f in self.comps:
            if jj == j:
                return f
        return fnz.id_fn(self.n)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(j for j, _ in self.comps)

    def act(self, p: tuple[int, int]) -> tuple[int, int]:
        """Action on the lexicographic product of indices and integers."""
        j, m = p
        return (self.h + j, fnz.eval(self.comp(j), m))


def multiply(a: WreathElement, b: WreathElement) -> WreathElement:
    n = fnz.shared_period(a, b)
    support = set(b.support) | {j - b.h for j in a.support}
    comps = tuple((j, fnz.compose(a.comp(b.h + j), b.comp(j)))
                  for j in sorted(support))
    return WreathElement(n, a.h + b.h, comps)


def leq(a: WreathElement, b: WreathElement) -> bool:
    """a <= b iff a meet b = a; elements are kept in normal form."""
    return meet(a, b) == a


def _lattice(a: WreathElement, b: WreathElement,
             pick_smaller: bool) -> WreathElement:
    n = fnz.shared_period(a, b)
    comps = []
    for j in sorted(set(a.support) | set(b.support)):
        if a.h == b.h:
            op = fnz.meet if pick_smaller else fnz.join
            comps.append((j, op(a.comp(j), b.comp(j))))
        elif (a.h < b.h) == pick_smaller:
            comps.append((j, a.comp(j)))
        else:
            comps.append((j, b.comp(j)))
    h = min(a.h, b.h) if pick_smaller else max(a.h, b.h)
    return WreathElement(n, h, tuple(comps))


def join(a: WreathElement, b: WreathElement) -> WreathElement:
    return _lattice(a, b, pick_smaller=False)


def meet(a: WreathElement, b: WreathElement) -> WreathElement:
    return _lattice(a, b, pick_smaller=True)


def iter_inv(a: WreathElement, m: int) -> WreathElement:
    """m-fold iterated inverse, componentwise through fnz.iter_inv.  An
    even m keeps the translation and the component indices; an odd m
    negates the translation and moves component j to j + h."""
    odd = m % 2
    return WreathElement(a.n, -a.h if odd else a.h,
                         tuple((j + a.h if odd else j, fnz.iter_inv(f, m))
                               for j, f in a.comps))


def linv(a: WreathElement) -> WreathElement:
    """(h, n)^l = (h^-1, n^l twisted by h^-1): component at j is the left
    adjoint of the component at j - h."""
    return iter_inv(a, 1)


def rinv(a: WreathElement) -> WreathElement:
    return iter_inv(a, -1)


# ------------------------------------------------- lexicographic transport

def iso_to_lexfn(a: WreathElement) -> LexFn:
    """The same element as a function on Q x Z, indices embedded at the
    integer points of Q."""
    tilde = PLBijection.translation(a.h)
    comps = tuple((Fraction(j), f) for j, f in a.comps)
    return LexFn(a.n, tilde, comps)


def iso_from_lexfn(f: LexFn) -> WreathElement:
    """Inverse transport: the global part must be an integer translation
    and the components must sit at integer indices."""
    h = f.tilde(0)
    if f.tilde != PLBijection.translation(h):
        raise ValueError("global part is not a translation")
    if h.denominator != 1:
        raise ValueError(f"translation {h} is not an integer")
    return WreathElement(f.n, int(h), f.components)
