"""Finite chains with designated covers, and partial-function diagrams.

A c-chain is {0, ..., size-1} together with a set of adjacent pairs
(a, a+1) designated as covers.  Designated covers are the pairs a spacing
embedding into Z must keep at distance exactly 1; everything else may be
spread apart.

A partial order-preserving function g on a c-chain has bracket inverses,
partial analogues of the residuals of a total map on Z:

    g^[l](x) = b  iff  (b-1, b) is a designated cover, both ends lie in
                       dom(g), and g(b-1) < x <= g(b)
    g^[r](x) = a  iff  (a, a+1) is a designated cover, both ends lie in
                       dom(g), and g(a) <= x < g(a+1)

Iterating either one gives g^[m] for every integer m (iter_bracket).
The point of the definition: if e is a spacing embedding and f is any
order-preserving extension of the counterpart e.g.e^-1 to all of Z, then the
e-image of every g^[m] pair is realized by the m-th iterated residual of f.
So bracket values computed on the finite diagram are guaranteed evaluations
in the function algebra, and they only grow as the diagram gains pairs or
covers (never change or disappear), which is what makes incremental pruning
during diagram search sound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional


class BudgetExceeded(RuntimeError):
    """Raised when a search exhausts its node budget before finishing."""


class NodeBudget:
    """Shared countdown of search-tree nodes: one per decision, spent by
    the point table, the candidate enumeration and every embedding
    search.  spend() raises BudgetExceeded once the limit is passed; a
    limit of None never runs out but still counts, so callers can report
    work done."""

    def __init__(self, limit: Optional[int] = None):
        self.limit = limit
        self.used = 0

    def spend(self):
        self.used += 1
        if self.limit is not None and self.used > self.limit:
            raise BudgetExceeded(f"node budget {self.limit} exhausted")


@dataclass(frozen=True)
class CChain:
    """A finite chain 0..size-1 with designated covers (subset of the
    adjacent pairs)."""

    size: int
    covers: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"chain size must be >= 1, got {self.size}")
        object.__setattr__(self, "covers", frozenset(self.covers))
        for a, b in self.covers:
            if b != a + 1 or not 0 <= a < b < self.size:
                raise ValueError(f"not an adjacent pair in the chain: {(a, b)}")


@dataclass(frozen=True)
class PartialFn:
    """An order-preserving partial function, stored as pairs sorted by
    argument."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        pairs = tuple(sorted(self.pairs))
        object.__setattr__(self, "pairs", pairs)
        for (x, y), (x2, y2) in zip(pairs, pairs[1:]):
            if x == x2:
                raise ValueError(f"two values at {x}: {y} and {y2}")
            if y > y2:
                raise ValueError(f"not order-preserving: {x}->{y}, {x2}->{y2}")

    @classmethod
    def from_mapping(cls, m: Mapping[int, int]) -> "PartialFn":
        return cls(tuple(m.items()))


@dataclass(frozen=True)
class SpacingEmbedding:
    """A strictly increasing map of a c-chain into Z sending designated
    covers to pairs at distance exactly 1."""

    chain: CChain
    positions: tuple[int, ...]

    def __post_init__(self):
        if len(self.positions) != self.chain.size:
            raise ValueError("one position per chain point required")
        for p, q in zip(self.positions, self.positions[1:]):
            if p >= q:
                raise ValueError(f"positions must strictly increase: {p}, {q}")
        for a, b in self.chain.covers:
            if self.positions[b] != self.positions[a] + 1:
                raise ValueError(
                    f"designated cover {(a, b)} not at distance 1: "
                    f"{self.positions[a]}, {self.positions[b]}")

    def __call__(self, x: int) -> int:
        return self.positions[x]

    @property
    def height(self) -> int:
        return self.positions[-1] - self.positions[0]


def iter_bracket(pairs: Mapping[int, int],
                 covers: Iterable[tuple[int, int]], m: int
                 ) -> Mapping[int, int]:
    """The m-fold bracket inverse g^[m] of a partial function g, given as a
    dict, on a chain with the given designated covers: g^[0] = g,
    g^[k+1] = (g^[k])^[l] and g^[-(k+1)] = (g^[-k])^[r]."""
    cur = pairs
    for _ in range(abs(m)):
        nxt: dict[int, int] = {}
        for c, d in covers:
            if c in cur and d in cur:
                if m > 0:
                    for x in range(cur[c] + 1, cur[d] + 1):
                        if nxt.get(x, d) != d:
                            raise AssertionError(
                                f"two bracket values at {x}: {nxt[x]}, {d}")
                        nxt[x] = d
                else:
                    for x in range(cur[c], cur[d]):
                        if nxt.get(x, c) != c:
                            raise AssertionError(
                                f"two bracket values at {x}: {nxt[x]}, {c}")
                        nxt[x] = c
        cur = nxt
    return cur
