"""Guided enumeration of the failing candidates at a period n behind
the two decision procedures; both enumerators take (eq, budget, n).

Both searches build weak orders one element at a time (_WeakOrder): a
new element joins an existing class or opens a class in a gap between
two, and ranking the classes at the end gives an onto map to a chain
0..k-1.  The plain search builds a weak order of the termination
points of an intensional equation (the unit, the final subwords, and
their decorated padding), adding them in dependency order, and lets the
order induce everything else: the partial function of each variable
collects the pairs (value(u), value(x u)), and each +/- decoration
forces its point into the class next to its parent's, designating that
cover.  A candidate fails: every joinand sits strictly below the unit.
Conditions checked along the way:

  (i)   each induced partial function is functional and order-preserving;
  (ii)  decorated points sit exactly one step from their parents;
  (iii) inverse applications agree with the bracket inverses computed from
        the induced functions and covers.

The failure and conditions (ii) and (iii) are order constraints between
points always present in the point set (see _point_table), which prune
long before the brackets themselves become defined; every completed
assignment still gets a full bracket recheck.

The plain search also prunes by a necessary condition for an
n-periodic spacing embedding, the one the deciders search next:

  (iv)  for two pairs (x1, y1), (x2, y2) of one variable's function, with
        x1 < x2, X = e(x2) - e(x1) and Y = e(y2) - e(y1) under the
        embedding e, ceil(Y/n) <= ceil(X/n) and floor(X/n) <= floor(Y/n).

A segment between two classes whose gaps are all shut has a fixed
length, its gap count: each shut gap is a designated cover, which an
embedding puts at distance 1, and no class can open inside it.  Any other
segment is at least as long as its current gap count.  So a placed
plain application is refused when, against an earlier pair of its
variable, X is shut and ceil(gaps(Y)/n) > ceil(X/n), or Y is shut and
floor(gaps(X)/n) > floor(Y/n): no completion has an embedding.  Only the
pairs of the point just placed are tested; a gap that shuts later does
not recheck the pairs across it.

The same test is sound for the partition search, whose embedding makes
each block's slot function n-periodic on the shared slot chain.  A shut
segment lies inside one block on consecutive slots, because covers stay
on adjacent slots of one block, so its slot length is its gap count.
The block shadow of a function is a function and injective, so the other
segment's ends lie in one block too, and there its slot length is at
least its plain gap count.  Both pairs belong to that block's slot
function, so the same inequality fails under every shared embedding.

The plain search makes one pass per chain size q, q ascending, and each
point tries its feasible places in ascending order, so the stream is
canonical and capped runs meet the small chains first.

The partition search targets block grids: values are (block, slot) pairs
ordered lexicographically, covers must stay inside a block, and induced
functions must respect the block partition in both directions (equal
blocks map to equal blocks, distinct to distinct).  Ranking the occupied
cells of such a grid flattens it to a plain compatible surjection, and
the grid is recovered by cutting the chain into consecutive blocks and
ordering the slots of all its elements as a second weak order, so the
partition stream is the plain stream composed with these structurings.
Each diagram is built straight from its structuring as the embedding
problem it poses: the slot chain shared by all blocks and, per variable
and block, the image block and the slot function.

Both deciders read one candidate type, PartitionDiagram.  An fnz
candidate is a one-block diagram (F_n(Z) is the fiber {0} x Z of Q x Z),
whose structuring involves no choice and so spends no node.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator, Optional

from .diagram import CChain, NodeBudget, PartialFn, iter_bracket
from .term import IntensionalEquation, Point, delta_epsilon, point_of_word


@dataclass
class PartitionDiagram:
    """A candidate of either decider: phi sends each point to a (block,
    slot) pair, chain is the slot chain shared by all blocks (a cover
    wherever some block has one), and blocks sends each variable's name
    to its blocks j, each with its image block k and its slot function
    there.  The block-level shadow j -> k is a partial injection."""

    phi: dict[Point, tuple[int, int]]
    chain: CChain
    blocks: dict[str, dict[int, tuple[int, PartialFn]]]

    @property
    def fns(self) -> list[PartialFn]:
        """Every slot function, names in order and blocks ascending: the
        family a shared spacing embedding must make n-periodic at once."""
        return [g for per in self.blocks.values()
                for _, (_, g) in sorted(per.items())]


# ----------------------------------------------------------- point plumbing

def _point_table(eq: IntensionalEquation, budget: Optional[NodeBudget]):
    """Points in dependency order, the unit first, plus the structural
    edges to check: (pts, info, bracket_edges, relations), the relations
    as index triples (a, b, k) for value(b) - value(a) >= k: each
    sandwich below, each cover mate one step from its parent on its side,
    and each nonempty joinand below the unit.

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
    when made: cover mates (forced values) first, then plain applications
    (pinned by order preservation), then inverse applications, sandwich
    ends before the rest.  A sandwich joins U to a point two or three
    levels below it, so U is placed first and an end becomes eligible
    with exactly one placed partner: the key (rank, -(p in ends), len, p)
    is fixed when a point becomes eligible.  Parents always precede
    children.

    The point set, the table and the enumerator's per-point bounds grow
    with 2^|m|, so each point costs one node of budget, spent as the point
    set is built: an exhausted budget stops the build itself."""
    points = delta_epsilon(eq, None if budget is None else budget.spend)

    def op_kind(p: Point) -> str:
        if not p:
            return "unit"
        if p[0][0] == "cov":
            return "cov"
        return "app0" if p[0][2] == 0 else "app"

    rel_pts = []  # (a, b, k): value(b) - value(a) >= k
    ends: set[Point] = set()  # each sandwich's point below its parent
    for c in points:
        if op_kind(c) == "cov":  # one step from the parent on side s
            s = c[0][1]
            rel_pts += [(c[1:], c, s), (c, c[1:], -s)]
            continue
        if op_kind(c) != "app":
            continue
        _, name, m = c[0]
        parent = c[1:]
        if m > 0:
            lo = (("app", name, m - 1), ("cov", -1)) + c
            hi = (("app", name, m - 1),) + c
        else:
            lo = (("app", name, m + 1),) + c
            hi = (("app", name, m + 1), ("cov", +1)) + c
        rel_pts += [(lo, parent, int(m > 0)), (parent, hi, int(m < 0))]
        ends |= {lo, hi}
    rel_pts += [(point_of_word(w), (), 1) for w in eq.joinands if w]

    # the next point is the eligible one (parent placed) with the least
    # key; each point enters the heap once, when its parent is placed
    rank = {"cov": 0, "app0": 1, "app": 2, "unit": 3}
    children: dict[Point, list[Point]] = {}
    for p in points:
        if p:
            children.setdefault(p[1:], []).append(p)
    pts = []

    def key(p: Point):
        return rank[op_kind(p)], -(p in ends), len(p), p

    heap = [key(())]
    while heap:
        p = heapq.heappop(heap)[-1]
        pts.append(p)
        for c in children.get(p, ()):
            heapq.heappush(heap, key(c))

    index = {p: i for i, p in enumerate(pts)}
    info = []
    for p in pts:
        if not p:
            info.append(("unit", None, None))
        elif p[0][0] == "cov":
            info.append(("cov", index[p[1:]], None))
        else:
            info.append(("app", index[p[1:]], p[0][1:]))
    bracket_edges = [(parent, i, extra[0], extra[1])
                     for i, (kind, parent, extra) in enumerate(info)
                     if kind == "app" and extra[1] != 0]
    relations = [(index[a], index[b], k) for a, b, k in rel_pts]
    return pts, info, bracket_edges, relations


# ----------------------------------------------------------- weak orders

class _WeakOrder:
    """A weak order grown one element at a time: the elements placed so
    far, in placing order, with the rank of each one's class.

    Places are doubled so they compare like ranks: place 2c+1 joins class
    c and place 2r opens a new class in gap r, just below class r (gap k,
    above the top class, when there are k classes).  `at` holds 2*rank+1
    per placed element.  A designated cover shuts the gap between its two
    classes for good, so no class ever opens there and the two stay
    adjacent in every completion.  Ranking the classes at a leaf gives an
    onto map to 0..k-1."""

    def __init__(self):
        self.at: list[int] = []
        self.shut = [False]  # per gap 0..k
        self._undo: list[tuple[int, int]] = []

    @property
    def classes(self) -> int:
        return len(self.shut) - 1

    def places(self, lo: int, hi: int, grow: bool = True,
               join: bool = True) -> list[int]:
        """Feasible places in [lo, hi], ascending: the joins when join
        allows them, and the open gaps when grow allows a new class."""
        shut = self.shut
        return [p for p in range(max(lo, 0), min(hi, 2 * len(shut) - 2) + 1)
                if (join if p & 1 else grow and not shut[p >> 1])]

    def put(self, p: int, mate: Optional[int] = None):
        """Place the next element at p.  With mate, a placed element
        whose class is adjacent to the new one, shut the gap between the
        two classes."""
        at, shut = self.at, self.shut
        if not p & 1:
            shut.insert(p >> 1, False)
            at[:] = [v + 2 if v > p else v for v in at]
        at.append(p | 1)
        g = -1
        if mate is not None:
            g = (min(at[mate], p | 1) + 1) >> 1
            if shut[g]:
                g = -1
            else:
                shut[g] = True
        self._undo.append((p, g))

    def take(self):
        """Undo the last put."""
        p, g = self._undo.pop()
        at, shut = self.at, self.shut
        if g >= 0:
            shut[g] = False
        at.pop()
        if not p & 1:
            del shut[p >> 1]
            at[:] = [v - 2 if v > p else v for v in at]

    def ranks(self) -> list[int]:
        return [v >> 1 for v in self.at]


def _depth_first(depth: int, options, put, take, leaf,
                 budget: Optional[NodeBudget]) -> Iterator:
    """Walk a tree of choices depth levels deep, depth >= 1, and yield
    what leaf() returns below the last level, unless it is None.

    options(i) lists the choices at level i given those above it.  Each
    choice spends one node before put(i, o) makes it, and a put that
    returns False is taken back before the next choice.  The path is kept
    as a stack of option iterators rather than of frames, so the depth is
    not bounded by the interpreter's recursion limit."""
    stack, i = [iter(options(0))], 0  # i: the level being chosen
    while i >= 0:
        for o in stack[i]:
            if budget is not None:
                budget.spend()
            if put(i, o):
                break
            take()
        else:  # the level is exhausted: undo the choice above it
            stack.pop()
            i -= 1
            if i >= 0:
                take()
            continue
        if i + 1 < depth:
            i += 1
            stack.append(iter(options(i)))
        else:
            found = leaf()
            if found is not None:
                yield found
            take()


# --------------------------------------------------- plain chain enumeration

def _plain_assignments(table, budget: Optional[NodeBudget], n: int
                       ) -> Iterator[tuple[int, list[int], set, dict]]:
    """Failing assignments of the points of a _point_table onto chains
    0..q-1, each a weak order of the points built in table order.

    Every point's place is bounded by the points already placed: by each
    relation of the table whose other point is placed, and by the earlier
    plain applications of its variable (order preservation).  There is
    one pass per chain size q, q ascending, so capped runs meet small
    chains first: a point opens a class only while there are fewer than
    q, and joins one only while the points left can still open the rest,
    so every leaf has exactly q classes.  A plain application whose pair
    breaks condition (iv) at period n against an earlier pair of its
    variable is refused (module docstring).  Leaves read covers and
    functions off the ranks and recheck every bracket equation.  Yields
    (q, values, covers, fns)."""
    pts, info, bracket_edges, relations = table
    npts = len(pts)
    # per point, the earlier points bounding its place from below and
    # from above: place >= at[j] + s for (j, s) in below, place <= at[j]
    # - s for (j, s) in above.  A value difference k is a place offset s
    # of 2k - 1 for k >= 1 (a new class suffices), or 2k for k <= 0.
    below: list[list] = [[] for _ in pts]
    above: list[list] = [[] for _ in pts]
    for a, b, k in relations:  # filed at the later of the two
        s = 2 * k - (k > 0)
        if a < b:
            below[b].append((a, s))
        else:
            above[a].append((b, s))
    # per plain application, the earlier ones of its variable
    earlier: list[list] = [[] for _ in pts]
    apps: dict[str, list] = {}
    for i, (kind, parent, extra) in enumerate(info):
        if kind == "app" and extra[1] == 0:
            earlier[i] = list(apps.get(extra[0], ()))
            apps.setdefault(extra[0], []).append((parent, i))
    wo = _WeakOrder()
    at = wo.at

    def places(i: int) -> list[int]:
        k = wo.classes
        lo, hi = 0, 2 * k
        for j, s in below[i]:
            if at[j] + s > lo:
                lo = at[j] + s
        for j, s in above[i]:
            if at[j] - s < hi:
                hi = at[j] - s
        if earlier[i]:  # order preservation against the earlier pairs
            a = at[info[i][1]]
            for pj, j in earlier[i]:
                if at[pj] <= a and at[j] > lo:
                    lo = at[j]
                if at[pj] >= a and at[j] < hi:
                    hi = at[j]
        # open a class only below q of them, and join one only while the
        # points left can still open the rest
        need = q - k
        return wo.places(lo, hi, need > 0, need < npts - i)

    def leaf():
        val = wo.ranks()
        covers, fns = set(), {}
        for i, (kind, parent, extra) in enumerate(info):
            if kind == "cov":
                c = min(val[i], val[parent])
                covers.add((c, c + 1))
            elif kind == "app" and extra[1] == 0:
                fns.setdefault(extra[0], {})[val[parent]] = val[i]
        for pi, ci, name, m in bracket_edges:
            if iter_bracket(fns.get(name, {}), covers, m).get(val[pi]) \
                    != val[ci]:
                return None
        return q, val, covers, fns

    mates = [parent if kind == "cov" else None
             for kind, parent, _ in info]

    shut = wo.shut

    def put(i: int, p: int) -> bool:
        wo.put(p, mates[i])
        if not earlier[i]:
            return True
        x, y = at[info[i][1]], at[i]
        for pj, j in earlier[i]:
            x1, x2 = sorted((x, at[pj]))
            y1, y2 = sorted((y, at[j]))
            # doubled places: a segment spans the (v2 - v1) / 2 gaps
            # (v1 >> 1) + 1 .. v2 >> 1, gap r lying just below class r
            gx, gy = (x2 - x1) >> 1, (y2 - y1) >> 1
            if (-(-gy // n) > -(-gx // n)
                    and False not in shut[(x1 >> 1) + 1:(x2 >> 1) + 1]):
                return False
            if (gx // n > gy // n
                    and False not in shut[(y1 >> 1) + 1:(y2 >> 1) + 1]):
                return False
        return True

    for q in range(1, npts + 1):
        yield from _depth_first(npts, places, put, wo.take, leaf, budget)


def enumerate_compatible_surjections(
        eq: IntensionalEquation, budget: Optional[NodeBudget],
        n: int) -> Iterator[PartitionDiagram]:
    """The failing compatible surjections onto 0..q-1 at period n, q
    ascending, as one-block diagrams: phi sends a point to (0, value).
    Only surjections with no n-periodic spacing embedding are dropped by
    condition (iv)."""
    return _diagrams(eq, budget, n, _one_block)


# -------------------------------------------------- block grid enumeration

def _structurings(q: int, covers, fns, budget: Optional[NodeBudget]
                  ) -> Iterator[tuple[list, list, int, int]]:
    """All ways to restructure the chain 0..q-1 as a block grid: cut it
    into consecutive blocks and spread each block's elements, in order,
    over a shared slot scale 0..d-1.

    The slots form a weak order of the chain elements, built in chain
    order: an element continues its predecessor's block at a higher slot
    or starts the next block at any slot.  Designated covers stay inside
    one block on adjacent slots, and each function must send same-block
    arguments to same-block values and distinct-block to distinct-block
    (its block-level shadow is a partial injection).  Yields (block,
    slot, b, d) with per-element block and slot lists."""
    quads_at: dict[int, list] = {}
    for g in fns.values():
        pairs = sorted(g.items())
        for j, (x1, y1) in enumerate(pairs):
            for x2, y2 in pairs[j + 1:]:
                key = max(x1, y1, x2, y2)
                quads_at.setdefault(key, []).append((x1, y1, x2, y2))
    cover_starts = {a for a, _ in covers}
    blk = [0] * q
    wo = _WeakOrder()
    at = wo.at

    def options(i: int) -> list:
        top = 2 * wo.classes
        if i == 0:  # the first element opens the first slot
            return [(0, 0, None)]
        if i - 1 in cover_starts:
            return [(blk[i - 1], p, i - 1)
                    for p in wo.places(at[i - 1] + 1, at[i - 1] + 2)]
        return ([(blk[i - 1], p, None)
                 for p in wo.places(at[i - 1] + 1, top)]
                + [(blk[i - 1] + 1, p, None) for p in wo.places(0, top)])

    def put(i: int, option) -> bool:
        b, p, mate = option
        blk[i] = b
        wo.put(p, mate)
        return all((blk[x1] == blk[x2]) == (blk[y1] == blk[y2])
                   for x1, y1, x2, y2 in quads_at.get(i, ()))

    def leaf():
        return list(blk), wo.ranks(), blk[q - 1] + 1, wo.classes

    yield from _depth_first(q, options, put, wo.take, leaf, budget)


def _one_block(q: int, covers, fns, budget: Optional[NodeBudget]):
    """The chain 0..q-1 as a single block: no choice, so no node."""
    return [([0] * q, range(q), 1, q)]


def _diagrams(eq: IntensionalEquation, budget: Optional[NodeBudget], n: int,
              structurings) -> Iterator[PartitionDiagram]:
    """Every plain assignment, lifted through every structuring of its
    chain that structurings(q, covers, fns, budget) yields, as the
    diagram it poses.  Blocks and slots are named by their final ranks,
    and each cover of the assignment becomes a cover of the slot chain."""
    table = _point_table(eq, budget)
    for q, values, covers, fns in _plain_assignments(table, budget, n):
        for blk, slt, _, d in structurings(q, covers, fns, budget):
            phi = {p: (blk[values[i]], slt[values[i]])
                   for i, p in enumerate(table[0])}
            slot_covers = set()
            for a, a1 in covers:
                if blk[a1] != blk[a] or slt[a1] != slt[a] + 1:
                    raise AssertionError(f"cover {(a, a1)} split by the grid")
                slot_covers.add((slt[a], slt[a1]))
            blocks = {}
            for name, g in fns.items():
                per: dict[int, tuple[int, dict]] = {}
                for x, y in g.items():
                    per.setdefault(blk[x], (blk[y], {}))[1][slt[x]] = slt[y]
                blocks[name] = {j: (k, PartialFn.from_mapping(h))
                                for j, (k, h) in per.items()}
            yield PartitionDiagram(phi, CChain(d, frozenset(slot_covers)),
                                   blocks)


def enumerate_partition_diagrams(
        eq: IntensionalEquation, budget: Optional[NodeBudget],
        n: int) -> Iterator[PartitionDiagram]:
    """The failing block-grid diagrams at period n, each exactly once.

    Ranking the occupied cells of a grid diagram flattens it to a plain
    compatible surjection with the same covers, functions, and order
    relations (covers stay adjacent because nothing sits between two
    cells of one cover, and brackets only compare occupied cells), and
    the diagram is recovered from that surjection by a unique
    structuring.  So the stream is: every failing compatible surjection
    at period n, lifted through every structuring of its chain.  The
    period prunes as in enumerate_compatible_surjections: no structuring
    of a dropped surjection has a shared n-periodic slot embedding
    (module docstring)."""
    return _diagrams(eq, budget, n, _structurings)
