"""Short re-spacings of integer c-chains: the constructions behind the
height bounds rho and nu of the spacing module, kept to check those
bounds (the deciders do not use them).

The 1-periodic case is the embedding search of the spacing module at cap
rho: one partial function per translation constant c realized inside the
point set, sending each point to the point c above it.  A re-spacing
preserves 1-periodicity transfer exactly when every one of these stays a
partial translation, and the chain's own positions are such a re-spacing,
so a refuted search at cap rho would refute the bound on that chain.

The n-periodic case folds the chain by the period: divide all points by n,
pad with neighbors, re-space the quotient chain 1-periodically (unit gaps in
the quotient are kept designated so that carries across period boundaries
survive), then recombine as position*n + original remainder.
"""

from __future__ import annotations

from . import fnz
from .diagram import CChain, PartialFn, SpacingEmbedding
from .spacing import find_witness_embedding, nu, rho


def find_short_1transfer(e: SpacingEmbedding) -> SpacingEmbedding:
    """Re-space an integer sub-c-chain, preserving 1-periodicity transfer,
    with height at most rho(size): the least gap vector under which every
    translation realized inside the point set stays a translation."""
    pos = e.positions
    index = {p: i for i, p in enumerate(pos)}
    shifts = [PartialFn.from_mapping({i: index[p + c]
                                      for i, p in enumerate(pos)
                                      if p + c in index})
              for c in sorted({b - a for a in pos for b in pos if b > a})]
    out = find_witness_embedding(e.chain, shifts, 1, cap=rho(e.chain.size))
    if out is None:
        raise AssertionError("own positions satisfy the shifts, so a "
                             "re-spacing within rho must exist")
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
