"""Workload inputs: the fixed prove rows and the seeded random equations.

Everything here is a pure function of its arguments, so the same seed
gives the same inputs.  The library only ever sees the equation strings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Known-valid rows, decided in complete mode.  Their answer follows from
# the l-pregroup laws (and, at n=1, from FnZ functions being translations),
# so anything but "valid" is a failure.
PROVE_SEARCH = (
    ("lpn", "x^(2) = x", 1),
    ("fnz", "x^l x x^l x = x^l x", 2),
    ("fnz", "(x | y)^l = x^l & y^l", 2),
)
PROVE_EMBED = (
    ("fnz", "x y = y x", 1),
    ("fnz", "x y x^l y^l <= 1", 1),
)

VARIABLES = ("x", "y", "z")
MIN_VARS, MAX_VARS = 1, 3
MIN_SIZE, MAX_SIZE = 3, 6
PERIODS = (1, 2, 3)
THEORIES = ("fnz", "lpn")


@dataclass(frozen=True)
class Case:
    """One decision to make: theory, equation text, period, the answer
    known in advance (None when only independent checks apply) and the
    seed an oracle search on it uses."""

    theory: str
    eq: str
    n: int
    known: str | None = None
    seed: int = 0


def prove_cases(rows, seed: int) -> list[Case]:
    """The fixed rows in a seeded order."""
    cases = [Case(th, eq, n, "valid") for th, eq, n in rows]
    random.Random(seed).shuffle(cases)
    return cases


def _term(size: int, rng: random.Random) -> list:
    """A random term tree of exactly `size` symbols (leaves count one,
    binary operations one, an inverse one), leaves left as None."""
    if size == 1:
        return [None]
    op = rng.choice(("prod", "join", "meet", "inv")) if size > 2 else "inv"
    if op == "inv":
        return ["inv", rng.choice(("l", "r")), _term(size - 1, rng)]
    left = rng.randint(1, size - 2)
    return [op, _term(left, rng), _term(size - 1 - left, rng)]


def _leaves(t: list) -> list[list]:
    if t[0] is None:
        return [t]
    return [leaf for sub in t[1:] if isinstance(sub, list)
            for leaf in _leaves(sub)]


def _render(t: list) -> str:
    if t[0] is None:
        return t[1]
    if t[0] == "inv":
        return f"({_render(t[2])})^{t[1]}" if t[2][0] is not None \
            else f"{_render(t[2])}^{t[1]}"
    sep = {"prod": " ", "join": " | ", "meet": " & "}[t[0]]
    return f"({_render(t[1])}{sep}{_render(t[2])})"


def random_equation(rng: random.Random) -> str:
    """An equation of MIN_SIZE..MAX_SIZE symbols over 1..3 variables,
    built from product, join, meet, ^l, ^r and the unit."""
    size = rng.randint(MIN_SIZE, MAX_SIZE)
    lhs_size = rng.randint(1, size - 1)
    sides = [_term(lhs_size, rng), _term(size - lhs_size, rng)]
    leaves = _leaves(sides[0]) + _leaves(sides[1])
    k = rng.randint(MIN_VARS, min(MAX_VARS, len(leaves)))
    names = list(VARIABLES[:k])
    # every drawn variable occurs; the other leaves are variables or 1
    fill = names + [rng.choice(names + ["1"]) for _ in leaves[k:]]
    rng.shuffle(fill)
    for leaf, name in zip(leaves, fill):
        leaf.append(name)
    rel = rng.choice(("=", "<="))
    return f"{_render(sides[0])} {rel} {_render(sides[1])}"


def random_cases(seed: int, count: int) -> list[Case]:
    """`count` seeded draws of (theory, equation, period).  Each block of
    len(THEORIES) * len(PERIODS) draws holds every (theory, period) pair
    once, in a seeded order, so the mix is the same for every seed while
    the equations differ.  Nothing here looks at how the deciders behave
    on an equation."""
    rng = random.Random(seed)
    pairs = [(th, n) for th in THEORIES for n in PERIODS]
    out: list[Case] = []
    while len(out) < count:
        rng.shuffle(pairs)
        out.extend(Case(th, random_equation(rng), n,
                        seed=rng.randrange(2 ** 31)) for th, n in pairs)
    return out[:count]
