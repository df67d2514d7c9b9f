"""Tests for chain re-spacing: the height bounds, the short re-spacings
of the bounds module (pinned on literal chains and checked for transfer),
box propagation, the witness embedding search against brute force, and
the n = 1 translation closure against brute force, against an
embedding's own shifts and against elimination over Fractions."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from lpregroup import fnz
from lpregroup.diagram import (BudgetExceeded, CChain, NodeBudget, PartialFn,
                               SpacingEmbedding)
from lpregroup import spacing
from lpregroup.bounds import (find_short_1transfer, find_short_ntransfer,
                              transfers_periodicity)
from lpregroup.spacing import find_witness_embedding, nu, rho, tighten


# --------------------------------------------------------------- oracles

def oracle_witness_gaps(chain, fns, n, cap):
    """First gap vector (lex order, entries >= 1, covers pinned to 1,
    total <= cap) whose embedding makes every fn n-periodic."""
    ngaps = chain.size - 1
    cover_gaps = {b - 1 for _, b in chain.covers}
    ranges = [range(1, 2) if k in cover_gaps else range(1, cap + 1)
              for k in range(ngaps)]
    for gaps in itertools.product(*ranges):
        if sum(gaps) > cap:
            continue
        pos = [0]
        for g in gaps:
            pos.append(pos[-1] + g)
        ok = True
        for f in fns:
            cp = {pos[x]: pos[y] for x, y in f.pairs}
            if not fnz.is_periodic_pairs(cp, n):
                ok = False
                break
        if ok:
            return gaps
    return None


# ------------------------------------------------------------ strategies

@st.composite
def embedded_chains(draw, max_size=6, max_gap=5):
    size = draw(st.integers(2, max_size))
    gaps = draw(st.lists(st.integers(1, max_gap),
                         min_size=size - 1, max_size=size - 1))
    positions = [0]
    for g in gaps:
        positions.append(positions[-1] + g)
    covers = frozenset(
        (i, i + 1) for i in range(size - 1)
        if gaps[i] == 1 and draw(st.booleans()))
    return SpacingEmbedding(CChain(size, covers), tuple(positions))


@st.composite
def periodic_fns_at(draw, n):
    steps = sorted(draw(st.lists(st.integers(0, n), min_size=n - 1,
                                 max_size=n - 1)))
    base = draw(st.integers(-6, 6))
    vals = [base]
    for s in steps:
        vals.append(base + s)
    return fnz.tabulated(n, tuple(vals[:n]))


# ---------------------------------------------------------- frozen values

def test_rho_values():
    assert rho(1) == 4
    assert rho(2) == 35
    assert rho(3) == 328


def test_nu_values():
    assert nu(1, 2) == 658
    assert nu(1, 1) == 329
    assert nu(2, 3) == 3 * (rho(6) + 1)


def test_1transfer_system_hand_example():
    # points 0,1,2,4,5,6; translating by 2 maps 0->2, 2->4, 4->6, which
    # forces the middle gap to be the two gaps before it plus 1
    e = SpacingEmbedding(CChain(6, frozenset()), (0, 1, 2, 4, 5, 6))
    short = find_short_1transfer(e)
    # gaps 1, 1 and 2 are forced, everything else can collapse
    assert short.positions == (0, 1, 2, 4, 5, 6)


def test_1transfer_cover_rows():
    e = SpacingEmbedding(CChain(3, frozenset({(1, 2)})), (0, 5, 6))
    short = find_short_1transfer(e)
    assert short.positions == (0, 1, 2)


# re-spacings pinned from the linear-system solver the embedding search
# replaced: (positions, covers) -> positions
SHORT_1TRANSFERS = [
    ((0, 2, 6, 10, 15, 20), (), (0, 2, 3, 4, 6, 8)),
    ((0, 5, 10, 11, 13), ((2, 3),), (0, 1, 2, 3, 4)),
    ((0, 4, 5, 10), (), (0, 1, 2, 4)),
    ((0, 1, 3, 8, 11), ((0, 1),), (0, 1, 2, 3, 5)),
    ((0, 5, 7, 8, 9, 11), ((3, 4),), (0, 1, 3, 4, 5, 7)),
    ((0, 3, 4, 6), (), (0, 2, 3, 4)),
    ((0, 5, 6, 9, 10, 13), ((3, 4),), (0, 3, 4, 5, 6, 7)),
    ((0, 4, 5, 7, 10), ((1, 2),), (0, 2, 3, 4, 6)),
    ((0, 1, 3, 5, 10, 14), (), (0, 1, 2, 3, 6, 8)),
    ((0, 1, 5, 7, 8, 13), (), (0, 1, 2, 4, 5, 7)),
    ((0, 4, 7, 8, 9), ((2, 3), (3, 4)), (0, 2, 3, 4, 5)),
    ((0, 4, 8, 13, 16, 17), (), (0, 2, 4, 7, 8, 9)),
    ((0, 3, 8, 13, 14, 18), ((3, 4),), (0, 1, 3, 5, 6, 7)),
    ((0, 4, 7, 8, 10), ((2, 3),), (0, 3, 5, 6, 7)),
    ((0, 5, 6, 10, 11, 12), ((1, 2), (3, 4)), (0, 2, 3, 4, 5, 6)),
    ((0, 1, 2, 3, 8, 9), ((0, 1), (1, 2), (4, 5)), (0, 1, 2, 3, 4, 5)),
]


@pytest.mark.parametrize("positions, covers, expect", SHORT_1TRANSFERS)
def test_1transfer_pinned(positions, covers, expect):
    e = SpacingEmbedding(CChain(len(positions), frozenset(covers)),
                         positions)
    assert find_short_1transfer(e).positions == expect


# (positions, covers, n) -> positions, pinned the same way
SHORT_NTRANSFERS = [
    ((0, 20, 40), (), 2, (0, 6, 12)),
    ((0, 30), (), 4, (0, 14)),
    ((0, 7, 30, 31), ((2, 3),), 3, (0, 7, 15, 16)),
    ((0, 9, 25), (), 2, (0, 9, 25)),
    ((0, 1, 12, 40), ((0, 1),), 3, (0, 1, 12, 22)),
]


@pytest.mark.parametrize("positions, covers, n, expect", SHORT_NTRANSFERS)
def test_ntransfer_pinned(positions, covers, n, expect):
    e = SpacingEmbedding(CChain(len(positions), frozenset(covers)),
                         positions)
    assert find_short_ntransfer(e, n).positions == expect


# ------------------------------------------------------ box propagation

@st.composite
def boxed_rows(draw, nvars=4):
    """A sparse row of 1-3 nonzero coefficients in [-2, 2], a rhs, and a
    box inside [0, 6]^nvars."""
    ks = draw(st.lists(st.integers(0, nvars - 1), min_size=1, max_size=3,
                       unique=True))
    row = [(k, draw(st.sampled_from((-2, -1, 1, 2)))) for k in ks]
    rhs = draw(st.integers(-14, 14))
    lo, hi = [], []
    for _ in range(nvars):
        a, b = sorted(draw(st.lists(st.integers(0, 6), min_size=2,
                                    max_size=2)))
        lo.append(a)
        hi.append(b)
    return row, rhs, lo, hi


@settings(max_examples=300, deadline=None)
@given(boxed_rows())
def test_tighten_matches_bruteforce(instance):
    row, rhs, lo, hi = instance
    ks = [k for k, _ in row]
    sats = [pt for pt in itertools.product(
                *(range(lo[k], hi[k] + 1) for k in ks))
            if sum(c * v for (_, c), v in zip(row, pt)) <= rhs]
    new_lo, new_hi = lo[:], hi[:]
    ok = tighten(row, rhs, new_lo, new_hi)
    assert ok == bool(sats)
    if not ok:
        return
    # one pass is exact for a single inequality: each bound is attained
    for i, k in enumerate(ks):
        assert new_lo[k] == min(pt[i] for pt in sats)
        assert new_hi[k] == max(pt[i] for pt in sats)
    for k in set(range(len(lo))) - set(ks):
        assert (new_lo[k], new_hi[k]) == (lo[k], hi[k])


# ------------------------------------------------------ transfer property

@settings(max_examples=150, deadline=None)
@given(embedded_chains(), st.data())
def test_1transfer_preserves_translations(e, data):
    short = find_short_1transfer(e)
    assert short.height <= rho(e.chain.size)
    assert short.chain == e.chain
    for _ in range(10):
        c = data.draw(st.integers(-8, 8))
        f = fnz.tabulated(1, (c,))
        assert transfers_periodicity(e, short, f)


@settings(max_examples=100, deadline=None)
@given(embedded_chains(max_size=5), st.integers(1, 4), st.data())
def test_ntransfer_preserves_periodic_fns(e, n, data):
    short = find_short_ntransfer(e, n)
    assert short.height <= nu(e.chain.size, n)
    assert short.chain == e.chain
    for i, x in enumerate(e.positions):
        # relative period phases survive the re-spacing
        assert (short.positions[i] - short.positions[0]) % n \
            == (x - e.positions[0]) % n
    assert short.positions[0] == 0
    for _ in range(10):
        f = data.draw(periodic_fns_at(n))
        assert transfers_periodicity(e, short, f)


def test_naive_squish_breaks_transfer():
    # collapsing all gaps to 1 is not a valid re-spacing: translating by 2
    # on these points stops being a translation restriction
    e = SpacingEmbedding(CChain(6, frozenset()), (0, 1, 2, 4, 5, 6))
    squished = SpacingEmbedding(CChain(6, frozenset()), (0, 1, 2, 3, 4, 5))
    f = fnz.tabulated(1, (2,))
    assert not transfers_periodicity(e, squished, f)
    assert transfers_periodicity(e, find_short_1transfer(e), f)


# ------------------------------------------------------ witness embedding

def test_witness_trivial():
    chain = CChain(2, frozenset())
    g = PartialFn.from_mapping({0: 1})
    e = find_witness_embedding(chain, [g], 1)
    assert e is not None
    assert e.positions == (0, 1)


def test_witness_point_merge_needs_period():
    # sending two points to one is impossible for translations but fine
    # once the period leaves room
    chain = CChain(3, frozenset())
    g = PartialFn.from_mapping({0: 2, 1: 2})
    assert find_witness_embedding(chain, [g], 1, cap=nu(3, 1)) is None
    e = find_witness_embedding(chain, [g], 2)
    assert e is not None
    cp = {e(x): e(y) for x, y in g.pairs}
    assert fnz.is_periodic_pairs(cp, 2)


def test_witness_respects_covers():
    chain = CChain(3, frozenset({(0, 1)}))
    g = PartialFn.from_mapping({0: 1, 1: 2})
    e = find_witness_embedding(chain, [g], 2)
    assert e is not None
    assert e.positions[1] - e.positions[0] == 1


def test_witness_budget():
    chain = CChain(5, frozenset())
    fns = [PartialFn.from_mapping({0: 2, 1: 3, 2: 4}),
           PartialFn.from_mapping({0: 3, 1: 4})]
    with pytest.raises(BudgetExceeded):
        find_witness_embedding(chain, fns, 2, cap=40,
                               node_budget=NodeBudget(1))


@pytest.mark.parametrize("size, n", [(10, 2), (10, 3), (20, 1)])
def test_witness_search_depth_is_not_bounded_by_recursion(size, n):
    # bisecting each gap down from the proof bound takes about log2(cap)
    # boxes per gap, far deeper than the interpreter's recursion limit
    e = find_witness_embedding(CChain(size), [PartialFn(((0, 0),))], n)
    assert e.positions == tuple(range(size))


@st.composite
def witness_instances(draw, max_size=5, max_fns=2, max_n=3):
    size = draw(st.integers(2, max_size))
    nfns = draw(st.integers(1, max_fns))
    fns = []
    for _ in range(nfns):
        dom = draw(st.lists(st.integers(0, size - 1), min_size=1,
                            max_size=size, unique=True))
        dom.sort()
        vals = sorted(draw(st.lists(st.integers(0, size - 1),
                                    min_size=len(dom), max_size=len(dom))))
        fns.append(PartialFn.from_mapping(dict(zip(dom, vals))))
    covers = frozenset((i, i + 1) for i in range(size - 1)
                       if draw(st.booleans()))
    n = draw(st.integers(1, max_n))
    return CChain(size, covers), fns, n


@settings(max_examples=120, deadline=None)
@given(witness_instances())
# one pass leaves no gap free here without having checked every row at
# the final values, so only the recheck at the leaf refutes the box
@example((CChain(4, frozenset({(0, 1)})),
          [PartialFn.from_mapping({1: 3}),
           PartialFn.from_mapping({0: 1, 1: 2, 2: 3, 3: 3})], 3))
def test_witness_matches_bruteforce(instance):
    chain, fns, n = instance
    cap = 2 * chain.size * n + 3
    got = find_witness_embedding(chain, fns, n, cap=cap)
    expect = oracle_witness_gaps(chain, fns, n, cap)
    if expect is None:
        assert got is None
    else:
        assert got is not None
        gaps = tuple(got.positions[i + 1] - got.positions[i]
                     for i in range(chain.size - 1))
        assert gaps == expect


@settings(max_examples=150, deadline=None)
@given(witness_instances(max_size=6, max_n=6).filter(
    lambda instance: instance[0].size <= instance[2]))
@example((CChain(1), [PartialFn(((0, 0),))], 1))
def test_chain_within_one_period_takes_unit_gaps_without_a_node(instance):
    # positions 0..size-1 < n are their own residues, so no search runs
    chain, fns, n = instance
    nb = NodeBudget(0)
    e = find_witness_embedding(chain, fns, n, node_budget=nb)
    assert e.positions == tuple(range(chain.size)) and nb.used == 0
    gaps = oracle_witness_gaps(chain, fns, n, chain.size)
    assert gaps == (1,) * (chain.size - 1)


def test_cap_below_the_gap_count_is_refuted_in_one_node():
    # the height cap is a row of the box search, not a pre-check
    nb = NodeBudget()
    chain = CChain(4)
    assert find_witness_embedding(chain, [PartialFn(((0, 1),))], 3,
                                  cap=2, node_budget=nb) is None
    assert nb.used == 1


# ---------------------------------------------------- translation closure

def closure_refutes(chain, fns, cap):
    fixed = {b - 1 for _, b in chain.covers}
    return spacing._translation_closure(fns, chain.size - 1, fixed,
                                        cap) is None


# a raw row refutes (gaps 2 and 3 must sum to the cover gap 0), but
# elimination mixes it into rows that each fit the box at every cap >= 2
RAW_ONLY_REFUTATION = (CChain(6, frozenset({(0, 1), (1, 2)})),
                       [PartialFn.from_mapping({2: 0, 4: 1, 5: 3})], 1)


@settings(max_examples=300, deadline=None)
@given(witness_instances(max_size=6, max_fns=3, max_n=1), st.integers(1, 12))
@example(RAW_ONLY_REFUTATION, 12)
def test_translation_closure_refutes_only_without_witness(instance, cap):
    chain, fns, _ = instance
    if closure_refutes(chain, fns, cap):
        assert oracle_witness_gaps(chain, fns, 1, cap) is None
        assert find_witness_embedding(chain, fns, 1, cap=cap) is None


@settings(max_examples=150, deadline=None)
@given(embedded_chains())
def test_translation_closure_passes_an_embeddings_own_shifts(e):
    # each shift c realized in the positions is a partial translation
    # of the chain, and the embedding itself makes all of them one
    index = {p: i for i, p in enumerate(e.positions)}
    shifts = [PartialFn.from_mapping({i: index[p + c]
                                      for i, p in enumerate(e.positions)
                                      if p + c in index})
              for c in range(e.height + 1)]
    for cap in (e.height, spacing.complete_cap(e.chain.size, 1)):
        assert not closure_refutes(e.chain, shifts, cap)


def _fraction_closure(fns, ngaps, fixed, cap):
    """The closure by Gaussian elimination over Fractions, kept as the
    reference for the integer elimination in spacing._translation_closure,
    with the same interval test on the raw and the reduced rows."""
    def fits(row, rhs):
        low = sum(c if c > 0 else cap * c for c in row)
        high = sum(cap * c if c > 0 else c for c in row)
        return low <= rhs <= high

    rows = []
    for g in fns:
        pairs = sorted(g.pairs)
        for (x1, y1), (x2, y2) in zip(pairs, pairs[1:]):
            row = [Fraction(0)] * ngaps
            for k in range(min(x1, x2), max(x1, x2)):
                row[k] += 1 if x2 > x1 else -1
            for k in range(min(y1, y2), max(y1, y2)):
                row[k] -= 1 if y2 > y1 else -1
            rhs = Fraction(0)
            for k in fixed:
                rhs -= row[k]
                row[k] = Fraction(0)
            if not fits(row, rhs):
                return None
            if any(row):
                rows.append((row, rhs))
    piv = 0
    for col in range(ngaps):
        if col in fixed:
            continue
        j = next((i for i in range(piv, len(rows)) if rows[i][0][col]), None)
        if j is None:
            continue
        rows[piv], rows[j] = rows[j], rows[piv]
        prow, prhs = rows[piv]
        for i in range(len(rows)):
            if i != piv and rows[i][0][col]:
                f = rows[i][0][col] / prow[col]
                rows[i] = ([a - f * b for a, b in zip(rows[i][0], prow)],
                           rows[i][1] - f * prhs)
        piv += 1
    out = []
    for row, rhs in rows:
        if not fits(row, rhs):
            return None
        if not any(row):
            continue
        scale = math.lcm(*(c.denominator for c in row + [rhs]))
        out.append(([(k, int(c * scale)) for k, c in enumerate(row) if c],
                    int(rhs * scale)))
    return out


@settings(max_examples=300, deadline=None)
@given(witness_instances(max_size=7, max_fns=3, max_n=1), st.integers(1, 12))
@example(RAW_ONLY_REFUTATION, 12)
def test_translation_closure_matches_fraction_reference(instance, small_cap):
    chain, fns, _ = instance
    ngaps = chain.size - 1
    fixed = {b - 1 for _, b in chain.covers}
    for cap in (spacing.complete_cap(chain.size, 1), small_cap):
        got = spacing._translation_closure(fns, ngaps, fixed, cap)
        expect = _fraction_closure(fns, ngaps, fixed, cap)
        assert (got is None) == (expect is None)
        if got is None:
            continue
        assert len(got) == len(expect)
        for (row, rhs), (ref, ref_rhs) in zip(got, expect):
            assert [k for k, _ in row] == [k for k, _ in ref]
            # (row, rhs) = lam * (ref, ref_rhs) for some lam = a / b > 0
            a, b = row[0][1], ref[0][1]
            assert a * b > 0
            assert all(c * b == r * a for (_, c), (_, r) in zip(row, ref))
            assert rhs * b == ref_rhs * a
