"""Guided enumeration of the finite witness spaces behind the two
decision procedures.

Both searches assign values to the termination points of an intensional
equation (the unit, the final subwords, and their decorated padding), in
dependency order, and let the assignment induce everything else: the
partial function of each variable collects the pairs (value(u),
value(x u)), and each +/- decoration forces its point to sit at covering
distance from its parent, designating that cover.  Conditions checked
along the way:

  (i)   each induced partial function is functional and order-preserving;
  (ii)  decorated points sit exactly one step from their parents;
  (iii) inverse applications agree with the bracket inverses computed from
        the induced functions and covers.

Condition (iii) is enforced through equivalent two-sided order
constraints between points that are always present in the point set (see
_point_table), which prune long before the brackets themselves become
defined; every completed assignment still gets a full bracket recheck.

The plain search targets chains 0..q-1 for all q up to the point count,
q ascending, candidate values ascending, so the stream is canonical.

The partition search targets block grids: values are (block, slot) pairs
ordered lexicographically, covers must stay inside a block, and induced
functions must respect the block partition in both directions (equal
blocks map to equal blocks, distinct to distinct).  Ranking the occupied
cells of such a grid flattens it to a plain compatible surjection, and
the grid is recovered by cutting the chain into consecutive blocks and
re-spreading it over a shared slot scale, so the partition stream is the
plain stream composed with these structurings.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from .diagram import BudgetExceeded, CChain, PartialFn, iter_bracket
from .term import IntensionalEquation, Point, delta_epsilon, point_of_word


class NodeBudget:
    """Shared countdown of search-tree nodes.  spend() raises
    BudgetExceeded once the limit is passed; a limit of None never runs
    out but still counts, so callers can report work done."""

    def __init__(self, limit: Optional[int] = None):
        self.limit = limit
        self.used = 0

    def spend(self, k: int = 1):
        self.used += k
        if self.limit is not None and self.used > self.limit:
            raise BudgetExceeded(f"node budget {self.limit} exhausted")


@dataclass
class CompatibleSurjection:
    """Onto map from the termination points to a finite chain, satisfying
    conditions (i)-(iii), with the induced covers and partial functions."""

    q: int
    phi: dict[Point, int]
    chain: CChain
    fns: dict[str, PartialFn]

    def value(self, p: Point) -> int:
        return self.phi[p]

    def fn(self, name: str) -> PartialFn:
        return self.fns.get(name, PartialFn(()))


@dataclass
class PartitionDiagram:
    """Block-partitioned counterpart: values are (block, slot) pairs; the
    flat chain linearizes them lexicographically with within-block covers.
    """

    blocks: int
    slots: int
    phi: dict[Point, tuple[int, int]]
    chain: CChain
    fns: dict[str, PartialFn]

    def flat(self, v: tuple[int, int]) -> int:
        return v[0] * self.slots + v[1]

    @property
    def point(self) -> tuple[int, int]:
        return self.phi[()]

    def fn(self, name: str) -> PartialFn:
        return self.fns.get(name, PartialFn(()))

    def gtilde(self, name: str) -> dict[int, int]:
        """Induced block-level partial injection."""
        out = {}
        for a, b in self.fn(name).pairs:
            out[a // self.slots] = b // self.slots
        return out

    def gbar(self, name: str, block: int) -> PartialFn:
        """Slot-level restriction of a function to one block."""
        pairs = {a % self.slots: b % self.slots
                 for a, b in self.fn(name).pairs
                 if a // self.slots == block}
        return PartialFn.from_mapping(pairs)

    def slot_chain(self) -> CChain:
        """The shared slot chain, with a cover wherever any block has one."""
        covers = {(a % self.slots, b % self.slots)
                  for a, b in self.chain.covers}
        return CChain(self.slots, frozenset(covers))

    def local_fns(self) -> list[PartialFn]:
        """All per-block slot functions, the family a shared spacing
        embedding must make n-periodic at once."""
        out = []
        for name in self.fns:
            for block in self.gtilde(name):
                out.append(self.gbar(name, block))
        return out


# ----------------------------------------------------------- point plumbing

def _point_table(eq: IntensionalEquation):
    """Points in dependency order plus the structural edges to check.

    Each inverse application P = x^(m) U also yields two order constraints
    equivalent to its bracket equation.  The point set always contains the
    internal witnesses of the bracket: the cover mate of P and the next
    ladder level applied to both.  Covers are designated exactly at those
    mates and bracket values are unique, so for m > 0

        value(x^(m-1) -P)  <  value(U)  <=  value(x^(m-1) P)

    holds if and only if value(P) = g^[m](value(U)), given the lower
    ladder levels (down to the plain pairs of g), and dually for m < 0
    with the upper cover mate and strictness swapped.  These sandwiches
    prune as soon as any two of the points get values; the enumerators
    still recheck the bracket equations from scratch on every completed
    assignment.

    Points are ordered so every assignment is as constrained as possible
    when made: after a point is placed, its cover mates (forced values)
    and plain applications (pinned by order preservation) come first, and
    otherwise the free inverse applications with the most already-placed
    sandwich partners.  Parents always precede children."""
    pts0 = sorted(delta_epsilon(eq), key=lambda p: (len(p), p))

    def op_kind(p: Point) -> str:
        if not p:
            return "unit"
        if p[0][0] == "cov":
            return "cov"
        return "app0" if p[0][2] == 0 else "app"

    sw_pts = []  # (a, b, strict): value(a) < value(b), or <= if not
    for c in pts0:
        if op_kind(c) != "app":
            continue
        _, name, m = c[0]
        parent = c[1:]
        if m > 0:
            lo = (("app", name, m - 1), ("cov", -1)) + c
            hi = (("app", name, m - 1),) + c
            sw_pts.append((lo, parent, True))
            sw_pts.append((parent, hi, False))
        else:
            lo = (("app", name, m + 1),) + c
            hi = (("app", name, m + 1), ("cov", +1)) + c
            sw_pts.append((lo, parent, False))
            sw_pts.append((parent, hi, True))
    partners: dict[Point, set[Point]] = {}
    for a, b, _ in sw_pts:
        partners.setdefault(a, set()).add(b)
        partners.setdefault(b, set()).add(a)

    rank = {"cov": 0, "app0": 1, "app": 2, "unit": 3}
    placed = {()}
    pts = [()]
    remaining = set(pts0) - placed
    while remaining:
        best = min((p for p in remaining if p[1:] in placed),
                   key=lambda p: (rank[op_kind(p)],
                                  -sum(q in placed
                                       for q in partners.get(p, ())),
                                  len(p), p))
        pts.append(best)
        placed.add(best)
        remaining.remove(best)

    index = {p: i for i, p in enumerate(pts)}
    info = []
    for p in pts:
        if not p:
            info.append(("unit", None, None, None))
            continue
        op, parent = p[0], index[p[1:]]
        if op[0] == "cov":
            info.append(("cov", parent, None, op[1]))
        else:
            _, name, m = op
            info.append(("app", parent, (name, m), None))
    joinands = {index[point_of_word(w)] for w in eq.joinands}
    bracket_edges = [(parent, i, extra[0], extra[1])
                     for i, (kind, parent, extra, _) in enumerate(info)
                     if kind == "app" and extra[1] != 0]
    by_point: dict[int, list] = {}
    for a, b, strict in sw_pts:
        con = (index[a], index[b], strict)
        by_point.setdefault(con[0], []).append(con)
        by_point.setdefault(con[1], []).append(con)
    return pts, info, joinands, bracket_edges, by_point


def fails_in(cand: "CompatibleSurjection | PartitionDiagram",
             eq: IntensionalEquation) -> bool:
    """Whether every joinand's value sits strictly below the unit's."""
    top = cand.phi[()]
    return all(cand.phi[point_of_word(w)] < top for w in eq.joinands)


# --------------------------------------------------- plain chain enumeration

def _plain_assignments(table, require_failure: bool,
                       budget: Optional[NodeBudget] = None
                       ) -> Iterator[tuple[int, list[int], set, dict]]:
    """Assignments of the points of a _point_table onto 0..q-1, for every
    chain size q up to the point count, q ascending (the closures below
    read q from the loop at the end)."""
    pts, info, joinands, bracket_edges, sandwiches = table
    npts = len(pts)
    val: list[Optional[int]] = [None] * npts
    unit = next(i for i, (kind, *_) in enumerate(info) if kind == "unit")
    fns: dict[str, dict[int, int]] = {}
    fn_count: dict[str, dict[tuple[int, int], int]] = {}
    covers: dict[tuple[int, int], int] = {}
    used: dict[int, int] = {}

    def order_clash(name: str, a: int, b: int) -> bool:
        g = fns.get(name, {})
        if g.get(a, b) != b:
            return True
        return any((x < a and y > b) or (x > a and y < b)
                   for x, y in g.items())

    def bounds(i: int) -> tuple[int, int]:
        """Feasible value interval for point i given what is placed: the
        sandwich partners already assigned, and in failure mode the unit
        above the joinands."""
        lb, ub = 0, q - 1
        for a, b, strict in sandwiches.get(i, ()):
            if b == i and val[a] is not None:
                lb = max(lb, val[a] + strict)
            elif a == i and val[b] is not None:
                ub = min(ub, val[b] - strict)
        if require_failure:
            if i == unit:
                for j in joinands:
                    if val[j] is not None:
                        lb = max(lb, val[j] + 1)
            elif i in joinands and val[unit] is not None:
                ub = min(ub, val[unit] - 1)
        return lb, ub

    def assign(i: int, v: int):
        val[i] = v
        used[v] = used.get(v, 0) + 1
        kind, parent, extra, _ = info[i]
        if kind == "cov":
            a = min(v, val[parent])
            covers[(a, a + 1)] = covers.get((a, a + 1), 0) + 1
        elif kind == "app" and extra[1] == 0:
            pair = (val[parent], v)
            cnt = fn_count.setdefault(extra[0], {})
            cnt[pair] = cnt.get(pair, 0) + 1
            fns.setdefault(extra[0], {})[pair[0]] = pair[1]

    def unassign(i: int):
        v = val[i]
        val[i] = None
        used[v] -= 1
        if not used[v]:
            del used[v]
        kind, parent, extra, _ = info[i]
        if kind == "cov":
            a = min(v, val[parent])
            covers[(a, a + 1)] -= 1
            if not covers[(a, a + 1)]:
                del covers[(a, a + 1)]
        elif kind == "app" and extra[1] == 0:
            pair = (val[parent], v)
            fn_count[extra[0]][pair] -= 1
            if not fn_count[extra[0]][pair]:
                del fn_count[extra[0]][pair]
                del fns[extra[0]][pair[0]]

    def candidates(i: int):
        lb, ub = bounds(i)
        kind, parent, extra, s = info[i]
        if kind == "cov":
            v = val[parent] + s
            if lb <= v <= ub:
                yield v
            return
        if kind == "app" and extra[1] == 0:
            for v in range(lb, ub + 1):
                if not order_clash(extra[0], val[parent], v):
                    yield v
            return
        yield from range(lb, ub + 1)

    def complete() -> bool:
        if len(used) != q:
            return False
        for pi, ci, name, m in bracket_edges:
            got = iter_bracket(fns.get(name, {}), covers, m).get(val[pi])
            if got != val[ci]:
                return False
        return True

    def dfs(i: int) -> Iterator:
        if i == npts:
            if complete():
                yield (q, list(val), set(covers),
                       {k: dict(v) for k, v in fns.items()})
            return
        for v in candidates(i):
            if budget is not None:
                budget.spend()
            assign(i, v)
            if q - len(used) <= npts - i - 1:
                yield from dfs(i + 1)
            unassign(i)

    for q in range(1, npts + 1):
        yield from dfs(0)


def enumerate_compatible_surjections(
        eq: IntensionalEquation,
        require_failure: bool = False,
        budget: Optional[NodeBudget] = None) -> Iterator[CompatibleSurjection]:
    """All compatible surjections onto 0..q-1, q ascending.  With
    require_failure, prune to assignments that put every joinand strictly
    below the unit."""
    table = _point_table(eq)
    for q, values, covers, fns in _plain_assignments(table, require_failure,
                                                     budget):
        phi = {p: values[i] for i, p in enumerate(table[0])}
        chain = CChain(q, frozenset(covers))
        yield CompatibleSurjection(
            q, phi, chain,
            {name: PartialFn.from_mapping(g) for name, g in fns.items()})




# -------------------------------------------------- block grid enumeration

def _structurings(q: int, covers, fns,
                  budget: Optional[NodeBudget] = None
                  ) -> Iterator[tuple[list, list, int, int]]:
    """All ways to restructure the chain 0..q-1 as a block grid: cut it
    into consecutive blocks and spread each block's elements, in order,
    over a shared slot scale 0..d-1.

    Designated covers must stay inside one block on adjacent slots, every
    slot must be used by some element, and each function must send
    same-block arguments to same-block values and distinct-block to
    distinct-block (its block-level shadow is a partial injection).
    Yields (block, slot, b, d) with per-element block and slot lists."""
    quads_at: dict[int, list] = {}
    for g in fns.values():
        pairs = sorted(g.items())
        for j, (x1, y1) in enumerate(pairs):
            for x2, y2 in pairs[j + 1:]:
                key = max(x1, y1, x2, y2)
                quads_at.setdefault(key, []).append((x1, y1, x2, y2))
    cover_starts = {a for a, _ in covers}
    blk = [0] * q
    slt = [0] * q
    used: dict[int, int] = {}

    def place(i: int, b: int, s: int) -> bool:
        blk[i], slt[i] = b, s
        used[s] = used.get(s, 0) + 1
        return all((blk[x1] == blk[x2]) == (blk[y1] == blk[y2])
                   for x1, y1, x2, y2 in quads_at.get(i, ()))

    def unplace(i: int):
        s = slt[i]
        used[s] -= 1
        if not used[s]:
            del used[s]

    def dfs(i: int, d: int) -> Iterator:
        if i == q:
            if len(used) == d:
                yield (list(blk), list(slt), blk[q - 1] + 1, d)
            return
        if i == 0:
            options = ((0, s) for s in range(d))
        elif i - 1 in cover_starts:
            options = ((blk[i - 1], slt[i - 1] + 1),) \
                if slt[i - 1] + 1 < d else ()
        else:
            options = itertools.chain(
                ((blk[i - 1], s) for s in range(slt[i - 1] + 1, d)),
                ((blk[i - 1] + 1, s) for s in range(d)))
        for b, s in options:
            if budget is not None:
                budget.spend()
            ok = place(i, b, s)
            if ok and d - len(used) <= q - i - 1:
                yield from dfs(i + 1, d)
            unplace(i)

    for d in range(1, q + 1):
        yield from dfs(0, d)


def enumerate_partition_diagrams(
        eq: IntensionalEquation,
        require_failure: bool = False,
        budget: Optional[NodeBudget] = None) -> Iterator[PartitionDiagram]:
    """All block-grid diagrams, each exactly once.

    Ranking the occupied cells of a grid diagram flattens it to a plain
    compatible surjection with the same covers, functions, and order
    relations (covers stay adjacent because nothing sits between two
    cells of one cover, and brackets only compare occupied cells), and
    the diagram is recovered from that surjection by a unique
    structuring.  So the stream is: every compatible surjection, lifted
    through every structuring of its chain.  Blocks and slots are named
    by their final ranks; the flat chain is the full grid, covers
    sitting inside single blocks."""
    table = _point_table(eq)
    for q, values, covers, fns in _plain_assignments(table, require_failure,
                                                     budget):
        for blk, slt, b, d in _structurings(q, covers, fns, budget):
            def flat(c: int) -> int:
                return blk[c] * d + slt[c]
            phi = {p: (blk[values[i]], slt[values[i]])
                   for i, p in enumerate(table[0])}
            grid_covers = set()
            for a, a1 in covers:
                assert blk[a1] == blk[a] and slt[a1] == slt[a] + 1
                grid_covers.add((flat(a), flat(a) + 1))
            grid_fns = {
                name: PartialFn.from_mapping(
                    {flat(x): flat(y) for x, y in g.items()})
                for name, g in fns.items()}
            yield PartitionDiagram(b, d, phi,
                                   CChain(b * d, frozenset(grid_covers)),
                                   grid_fns)
