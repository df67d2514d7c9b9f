"""Spacing embeddings for integer c-chains, and the height bounds that
make a failed embedding search a proof.

A finite subset of Z with some designated unit gaps (a sub-c-chain, here
always presented as a SpacingEmbedding) can be re-spaced: moved to a new
strictly increasing image that keeps designated covers at distance 1 and
preserves which partial functions extend to periodic maps.  The point of
re-spacing is height control: every chain admits a 1-periodicity-preserving
embedding of height at most rho(size), and an n-periodicity-preserving one
of height at most nu(size, n), so searches over embeddings can be cut off
at these bounds without losing completeness (complete_cap).  The bounds
module constructs such re-spacings; the deciders need only the search
find_witness_embedding.

Both searches are over integer boxes of gap values and prune with one
rule, tighten: narrow the box to the points that satisfy one linear
inequality, given as a sparse row.  The embedding search feeds it the
height cap, both sides of every ceil constraint, each constraint's
cancelled row and, at n = 1, the rows that integer elimination leaves of
the translation equalities (_translation_closure); the bounds module's
solver feeds it both signs of each equality row.  The cancelled rows
exist because propagating the two sides of a ceil constraint separately
transfers their difference over shared gaps one pass at a time, far too
slowly for completeness-scale caps; in the row Y - X the shared gaps
cancel algebraically.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Mapping, Optional

from . import fnz
from .diagram import BudgetExceeded, CChain, PartialFn, SpacingEmbedding

# gap intervals wider than this are bisected instead of enumerated
_SPLIT_WIDTH = 16


def rho(a: int) -> int:
    """Height bound for 1-periodicity-preserving re-spacing of an a-point
    chain."""
    return 2 * a ** 3 * math.factorial(a) + a + 1


def nu(a: int, n: int) -> int:
    """Height bound for n-periodicity-preserving re-spacing of an a-point
    chain."""
    return (rho(3 * a) + 1) * n


def complete_cap(size: int, n: int) -> int:
    """The height bound that turns a refuted embedding search into a
    proof: any witness embedding re-spaces below it.  The 1-periodic
    re-spacing bound is much smaller than the general one."""
    return rho(size) if n == 1 else nu(size, n)


# --------------------------------------------------- witness embeddings

def _ceil_div(a: int, n: int) -> int:
    return -(a // -n)


def _segment(a: int, b: int) -> list[tuple[int, int]]:
    """P(a) - P(b) over the gaps, as a sparse row of (gap, coefficient)
    pairs; gap k spans points k and k + 1."""
    if a > b:
        return [(k, 1) for k in range(b, a)]
    return [(k, -1) for k in range(a, b)]


def tighten(row, rhs: int, lo: list[int], hi: list[int]) -> bool:
    """One pass of box consistency for sum(c * gap[k] for k, c in row) <=
    rhs over a sparse row of (k, c) pairs with c nonzero: narrow each
    gap's [lo, hi] to the values some point of the box allows.  Returns
    False when no point of the box satisfies the row.

    No bound can cross its partner: once the row's minimum over the box,
    base, is at most rhs, each gap keeps the slack rhs - base >= 0 above
    its own minimizing bound, so the new bounds stay inside the old box.
    For a single inequality one pass is exact."""
    base = 0
    for k, c in row:
        base += c * (lo[k] if c > 0 else hi[k])
    slack = rhs - base
    if slack < 0:
        return False
    for k, c in row:
        if c > 0:
            top = lo[k] + slack // c
            if top < hi[k]:
                hi[k] = top
        else:
            bottom = hi[k] - slack // -c
            if bottom > lo[k]:
                lo[k] = bottom
    return True


def _translation_closure(fns, ngaps, fixed, cap):
    """Exact linear reasoning for n = 1, where a counterpart is periodic
    iff it is a partial translation: consecutive pairs of each function
    force segment-sum equalities over the gaps.  Integer (fraction-free)
    elimination either refutes the system outright (rank or interval
    contradiction) or returns its reduced rows, whose cancelled
    combinations sharpen interval propagation far beyond the raw
    constraints.  Returns None when refuted, else a list of integer
    equality rows (row, rhs), each row sparse as in tighten.

    Eliminating column col of row r with pivot row p replaces r by
    |p[col]| * r - sign(p[col]) * r[col] * p, then divides by the positive
    gcd of the result.  Every row therefore stays a positive multiple of
    the row that elimination over the rationals would give, with the same
    zero pattern, so pivots, row swaps and refutations are the same as
    there.  Scaling a row and its rhs by lambda > 0 changes neither the
    interval refutation nor tighten, since floor(lambda s / (lambda c)) =
    floor(s / c)."""
    rows = []
    for g in fns:
        for (x1, y1), (x2, y2) in zip(g.pairs, g.pairs[1:]):
            row = [0] * ngaps
            for k in range(min(x1, x2), max(x1, x2)):
                row[k] += 1 if x2 > x1 else -1
            for k in range(min(y1, y2), max(y1, y2)):
                row[k] -= 1 if y2 > y1 else -1
            rhs = 0
            for k in fixed:
                rhs -= row[k]
                row[k] = 0
            if any(row):
                rows.append((row, rhs))
            elif rhs:
                return None
    piv = 0
    for col in range(ngaps):
        if col in fixed:
            continue
        j = next((i for i in range(piv, len(rows)) if rows[i][0][col]), None)
        if j is None:
            continue
        rows[piv], rows[j] = rows[j], rows[piv]
        prow, prhs = rows[piv]
        p = prow[col]
        for i in range(len(rows)):
            row, rhs = rows[i]
            c = row[col]
            if i != piv and c:
                a, b = (p, c) if p > 0 else (-p, -c)
                row = [a * r - b * q for r, q in zip(row, prow)]
                rhs = a * rhs - b * prhs
                d = math.gcd(rhs, *row)
                if d > 1:
                    row = [r // d for r in row]
                    rhs //= d
                rows[i] = (row, rhs)
        piv += 1
    out = []
    for row, rhs in rows:
        if not any(row):
            if rhs:
                return None
            continue
        irow = [(k, c) for k, c in enumerate(row) if c]
        # sound interval refutation: every non-fixed gap lies in [1, cap]
        low = sum(c * (1 if c > 0 else cap) for _, c in irow)
        high = sum(c * (cap if c > 0 else 1) for _, c in irow)
        if not low <= rhs <= high:
            return None
        out.append((irow, rhs))
    return out


def find_witness_embedding(chain: CChain,
                           fns: Mapping[str, PartialFn] | Iterable[PartialFn],
                           n: int,
                           cap: Optional[int] = None,
                           node_budget: Optional[int] = None
                           ) -> Optional[SpacingEmbedding]:
    """Search for a spacing embedding of the chain under which every given
    partial function is n-periodic (its counterpart extends to a periodic
    map), with height at most cap.

    Returns the embedding with the lexicographically smallest gap vector,
    or None if there is none up to the cap.  The default cap is a small
    practical one; passing cap=nu(chain.size, n) makes None a proof that no
    embedding exists at all, since a witness of any height can be re-spaced
    below that bound.  Raises BudgetExceeded after node_budget assignments.

    n-periodicity of a counterpart is the pairwise condition
    ceil((e(y)-e(y'))/n) <= ceil((e(x)-e(x'))/n) over pairs (x,y), (x',y')
    of each function; both sides are signed sums of gaps, so box
    propagation (tighten) over the gap domains prunes the search.
    """
    if isinstance(fns, Mapping):
        fns = list(fns.values())
    else:
        fns = list(fns)
    q = chain.size
    if cap is None:
        cap = (q + 1) * n + q
    ngaps = q - 1
    if ngaps == 0:
        return SpacingEmbedding(chain, (0,))

    # the n = 1 closure refutes most problems outright, so it runs before
    # any row is built
    closure = []
    if n == 1:
        fixed = {b - 1 for a, b in chain.covers}
        closure = _translation_closure(fns, ngaps, fixed, cap)
        if closure is None:
            return None

    lo = [1] * ngaps
    hi = [cap - (ngaps - 1)] * ngaps
    for a, b in chain.covers:
        hi[b - 1] = 1
    if any(l > h for l, h in zip(lo, hi)):
        return None

    # constraints: (Y, -X) with Y = P(y1) - P(y2) and X = P(x1) - P(x2),
    # demanding ceil(Y/n) <= ceil(X/n).  Each also implies the cancelled
    # row Y - X <= n - 1 (see the module docstring).  The height cap is
    # the first row.  Two functions may share pairs (two blocks of an lpn
    # diagram with equal local functions), so each ordered pair of pairs
    # is built once
    constraints, rows = [], [([(k, 1) for k in range(ngaps)], cap)]
    for (x1, y1), (x2, y2) in dict.fromkeys(
            pp for g in fns for pp in itertools.permutations(g.pairs, 2)):
        y, negx = _segment(y1, y2), _segment(x2, x1)
        constraints.append((y, negx))
        diff = dict(y)
        for k, c in negx:
            diff[k] = diff.get(k, 0) + c
        row = [(k, c) for k, c in diff.items() if c]
        if row:
            rows.append((row, n - 1))
    for row, rhs in closure:
        rows.append((row, rhs))
        rows.append(([(k, -c) for k, c in row], -rhs))

    max_passes = 20 * (ngaps + len(constraints) + 1)

    def propagate(lo, hi) -> bool:
        for _ in range(max_passes):
            before = (tuple(lo), tuple(hi))
            for row, rhs in rows:
                if not tighten(row, rhs, lo, hi):
                    return False
            for y, negx in constraints:
                xhi = -sum(c * (lo[k] if c > 0 else hi[k]) for k, c in negx)
                ylo = sum(c * (lo[k] if c > 0 else hi[k]) for k, c in y)
                # Y <= n * ceil(X_hi / n) also refutes ceil(Y_lo / n) >
                # ceil(X_hi / n); X >= n * (ceil(Y_lo / n) - 1) + 1
                if not tighten(y, n * _ceil_div(xhi, n), lo, hi):
                    return False
                if not tighten(negx, -n * (_ceil_div(ylo, n) - 1) - 1,
                               lo, hi):
                    return False
            if (tuple(lo), tuple(hi)) == before:
                return True
        return True  # propagation out of passes: sound, just less pruning

    nodes = [0]

    def dfs(lo, hi) -> Optional[list[int]]:
        if node_budget is not None:
            nodes[0] += 1
            if nodes[0] > node_budget:
                raise BudgetExceeded(
                    f"witness embedding search exceeded {node_budget} nodes")
        if not propagate(lo, hi):
            return None
        free = next((k for k in range(ngaps) if lo[k] < hi[k]), None)
        if free is None:
            return lo
        if hi[free] - lo[free] >= _SPLIT_WIDTH:
            # completeness caps leave enormous intervals; bisect so a
            # contradiction surfaces after logarithmically many splits.
            # Lower half first keeps the result lexicographically smallest.
            mid = lo[free] + (hi[free] - lo[free]) // 2
            nlo, nhi = lo[:], hi[:]
            nhi[free] = mid
            got = dfs(nlo, nhi)
            if got is not None:
                return got
            nlo, nhi = lo[:], hi[:]
            nlo[free] = mid + 1
            return dfs(nlo, nhi)
        for v in range(lo[free], hi[free] + 1):
            nlo, nhi = lo[:], hi[:]
            nlo[free] = nhi[free] = v
            got = dfs(nlo, nhi)
            if got is not None:
                return got
        return None

    gaps = dfs(lo, hi)
    if gaps is None:
        return None
    positions = [0]
    for gsize in gaps:
        positions.append(positions[-1] + gsize)
    out = SpacingEmbedding(chain, tuple(positions))
    if out.height > cap:
        raise AssertionError("solution must respect the height cap")
    for g in fns:
        cp = {out(x): out(y) for x, y in g.pairs}
        if not fnz.is_periodic_pairs(cp, n):
            raise AssertionError("solution must verify")
    return out
