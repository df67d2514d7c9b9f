"""Short re-spacings of integer c-chains: the constructions behind the
height bounds rho and nu of the spacing module, kept to check those
bounds (the deciders do not use them).

The 1-periodic case reduces to a linear system over the gap deficits
y_k = p_k - p_{k-1} - 1: a translation by c that maps chain points to chain
points forces pairs of segments to keep equal lengths, which is one linear
row per pair of positions in the translation's domain; designated covers
force y_k = 0.  Any nonnegative solution re-spaces the chain, and a classic
bound on small nonnegative solutions of integer systems caps the search.

The n-periodic case folds the chain by the period: divide all points by n,
pad with neighbors, re-space the quotient chain 1-periodically (unit gaps in
the quotient are kept designated so that carries across period boundaries
survive), then recombine as position*n + original remainder.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import fnz
from .diagram import CChain, SpacingEmbedding
from .spacing import nu, rho, tighten

# gap vectors are plain tuples of nonnegative ints, one entry per
# consecutive pair of chain points
GapVector = tuple[int, ...]


@dataclass(frozen=True)
class LinearSystem:
    """Integer system rows . Y = rhs over nonnegative gap deficits."""

    rows: tuple[tuple[int, ...], ...]
    rhs: tuple[int, ...]
    num_vars: int

    def __post_init__(self):
        if len(self.rows) != len(self.rhs) \
                or any(len(r) != self.num_vars for r in self.rows):
            raise AssertionError("rows, right-hand sides and width differ")


def build_1transfer_system(e: SpacingEmbedding) -> LinearSystem:
    """The linear system over gap deficits whose nonnegative solutions are
    exactly the re-spacings of e's image that preserve 1-periodicity of all
    restricted translations.

    For every translation constant c realized inside the point set, and
    every two domain positions z < j of that translation, the segment
    [z, j] and its image segment [z', j'] must keep equal length, which in
    deficit coordinates reads
        sum((z, j], Y) - sum((z', j'], Y) = (j' - z') - (j - z).
    Designated covers contribute Y_k = 0.
    """
    pos = e.positions
    npts = len(pos)
    index = {p: i for i, p in enumerate(pos)}
    nvars = npts - 1
    orig_y = tuple(pos[k + 1] - pos[k] - 1 for k in range(nvars))

    rows: dict[tuple[int, ...], int] = {}

    def add_row(coefs: tuple[int, ...], rhs: int):
        if all(c == 0 for c in coefs):
            if rhs != 0:
                raise AssertionError("zero row with a nonzero right-hand side")
            return
        if rows.setdefault(coefs, rhs) != rhs:
            raise AssertionError("conflicting rows from a valid chain")

    diffs = {b - a for a in pos for b in pos if a != b}
    for c in sorted(diffs):
        dom = [i for i in range(npts) if pos[i] + c in index]
        img = {i: index[pos[i] + c] for i in dom}
        for z, j in itertools.combinations(dom, 2):
            zp, jp = img[z], img[j]
            coefs = tuple((1 if z < k <= j else 0) - (1 if zp < k <= jp else 0)
                          for k in range(1, npts))
            rhs = (jp - zp) - (j - z)
            if any(v not in (-1, 0, 1) for v in coefs) \
                    or abs(rhs) > 2 * npts:
                raise AssertionError(f"row {coefs} = {rhs} out of range")
            add_row(coefs, rhs)
    for a, b in e.chain.covers:
        coefs = tuple(1 if k == b else 0 for k in range(1, npts))
        add_row(coefs, 0)

    system = LinearSystem(tuple(rows), tuple(rows[r] for r in rows), nvars)
    for coefs, rhs in zip(system.rows, system.rhs):
        if sum(c * y for c, y in zip(coefs, orig_y)) != rhs:
            raise AssertionError("input chain must solve its own system")
    return system


# ------------------------------------------------------ bounded solving

def _independent_rows(system: LinearSystem) -> Optional[list[int]]:
    """Indices of a maximal independent row set of (A|b); None if the
    system is inconsistent."""
    nv = system.num_vars
    reduced: list[tuple[list[Fraction], int]] = []  # (row, pivot col)
    chosen: list[int] = []
    for ridx, (coefs, rhs) in enumerate(zip(system.rows, system.rhs)):
        row = [Fraction(c) for c in coefs] + [Fraction(rhs)]
        for done, pivot in reduced:
            if row[pivot]:
                f = row[pivot] / done[pivot]
                row = [a - f * b for a, b in zip(row, done)]
        pivot = next((k for k in range(nv + 1) if row[k]), None)
        if pivot is None:
            continue
        if pivot == nv:
            return None  # 0 = nonzero
        reduced.append((row, pivot))
        chosen.append(ridx)
    return chosen


def _minor_bound(system: LinearSystem, row_idx: list[int],
                 max_exact: int = 4000) -> int:
    """Largest absolute M x M minor of the augmented independent rows,
    computed exactly when there are few column choices, otherwise bounded
    from above by Hadamard's inequality (any upper bound keeps the small-
    solution guarantee valid)."""
    m = len(row_idx)
    if m == 0:
        return 1
    aug = [list(system.rows[i]) + [system.rhs[i]] for i in row_idx]
    ncols = len(aug[0])
    if math.comb(ncols, m) <= max_exact:
        best = 0
        for cols in itertools.combinations(range(ncols), m):
            sub = [[Fraction(aug[r][c]) for c in cols] for r in range(m)]
            best = max(best, abs(_det(sub)))
        return int(best) if best else 1
    bound = 1
    for row in aug:
        norm2 = sum(v * v for v in row)
        bound *= math.isqrt(norm2) + 1
    return bound


def _det(mat: list[list[Fraction]]) -> Fraction:
    n = len(mat)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        for r in range(col + 1, n):
            f = mat[r][col] / mat[col][col]
            mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
    return det


def solve_bounded_nonneg(system: LinearSystem) -> Optional[GapVector]:
    """Lexicographically smallest nonnegative integer solution, or None.

    A consistent system with some nonnegative solution always has one with
    entries at most (l - M + 1) * gamma, where M is the rank and gamma the
    largest absolute M x M minor of the reduced augmented matrix, so the
    search space is a finite box.  Depth-first search, trying small values
    first, with box propagation through spacing.tighten.
    """
    nv = system.num_vars
    if nv == 0:
        return ()
    indep = _independent_rows(system)
    if indep is None:
        return None
    m = len(indep)
    bound = (nv - m + 1) * _minor_bound(system, indep)

    lo = [0] * nv
    hi = [bound] * nv
    # each equality row is the two inequalities row <= rhs, -row <= -rhs
    ineqs = []
    for coefs, rhs in zip(system.rows, system.rhs):
        row = [(i, c) for i, c in enumerate(coefs) if c]
        ineqs.append((row, rhs))
        ineqs.append(([(i, -c) for i, c in row], -rhs))

    def propagate(lo, hi) -> bool:
        while True:
            before = (tuple(lo), tuple(hi))
            if not all(tighten(row, rhs, lo, hi) for row, rhs in ineqs):
                return False
            if (tuple(lo), tuple(hi)) == before:
                return True

    def dfs(lo, hi) -> Optional[list[int]]:
        if not propagate(lo, hi):
            return None
        free = next((i for i in range(nv) if lo[i] < hi[i]), None)
        if free is None:
            # both inequalities of every row held at this single point
            return lo
        for v in range(lo[free], hi[free] + 1):
            nlo, nhi = lo[:], hi[:]
            nlo[free] = nhi[free] = v
            got = dfs(nlo, nhi)
            if got is not None:
                return got
        return None

    got = dfs(lo, hi)
    return tuple(got) if got is not None else None


# -------------------------------------------------------- short transfers

def find_short_1transfer(e: SpacingEmbedding) -> SpacingEmbedding:
    """Re-space an integer sub-c-chain, preserving 1-periodicity transfer,
    with height at most rho(size)."""
    system = build_1transfer_system(e)
    y = solve_bounded_nonneg(system)
    if y is None:
        raise AssertionError("own chain solves the system, so must the search")
    positions = [0]
    for k, deficit in enumerate(y):
        positions.append(positions[-1] + deficit + 1)
    out = SpacingEmbedding(e.chain, tuple(positions))
    if out.height > rho(e.chain.size):
        raise AssertionError(f"height {out.height} above rho")
    return out


def find_short_ntransfer(e: SpacingEmbedding, n: int) -> SpacingEmbedding:
    """Re-space an integer sub-c-chain, preserving n-periodicity transfer,
    with height at most nu(size, n).

    Folds by the period: quotient points q = x // n padded with q +- 1, unit
    gaps in the quotient designated as covers (a carry across a period
    boundary must stay a unit step for the recombined map to respect both
    the original covers and the periodic arithmetic), then 1-periodic
    re-spacing of the quotient and recombination with the remainders.
    """
    if n < 1:
        raise ValueError(f"period must be >= 1, got {n}")
    xs = e.positions
    folded = sorted({x // n + d for x in xs for d in (-1, 0, 1)})
    covers = frozenset((i, i + 1) for i in range(len(folded) - 1)
                       if folded[i + 1] == folded[i] + 1)
    quotient = SpacingEmbedding(CChain(len(folded), covers), tuple(folded))
    d = find_short_1transfer(quotient)
    qindex = {q: i for i, q in enumerate(folded)}
    raw = [d(qindex[x // n]) * n + x % n for x in xs]
    # periodicity transfer is translation-invariant, so normalize to min 0
    out = SpacingEmbedding(e.chain, tuple(p - raw[0] for p in raw))
    if out.height > nu(e.chain.size, n):
        raise AssertionError(f"height {out.height} above nu")
    return out


def transfers_periodicity(before: SpacingEmbedding, after: SpacingEmbedding,
                          f: fnz.PeriodicFn) -> bool:
    """Whether re-spacing `before` as `after` keeps the restriction of f
    extendable to a periodic map (the property the short transfers
    guarantee for every f)."""
    pts = set(before.positions)
    index = {p: i for i, p in enumerate(before.positions)}
    cp = {after(index[p]): after(index[fnz.eval(f, p)])
          for p in before.positions if fnz.eval(f, p) in pts}
    return fnz.is_periodic_pairs(cp, f.n)
