"""Enumeration tests: the guided searches must agree exactly with brute
force over all onto assignments checked straight from the definitions."""

import itertools

from lpregroup import spacing, term
from lpregroup.diagram import iter_bracket
from lpregroup.search import (enumerate_compatible_surjections,
                              enumerate_partition_diagrams, fails_in)


def conjuncts(text):
    return term.to_intensional(term.parse(text))


def conjunct(text, i=0):
    return conjuncts(text)[i]


def sorted_points(eq):
    return sorted(term.delta_epsilon(eq), key=lambda p: (len(p), p))


# ------------------------------------------------------- definition oracle
#
# Checks an assignment against the three conditions directly, using only
# the diagram module's bracket arithmetic (tested on its own elsewhere).

def induced(pts, phi):
    fns, covers = {}, set()
    for p in pts:
        if not p:
            continue
        op, parent = p[0], p[1:]
        if op[0] == "cov":
            if phi[p] != phi[parent] + op[1]:
                return None
            lo = min(phi[p], phi[parent])
            covers.add((lo, lo + 1))
        elif op[2] == 0:
            g = fns.setdefault(op[1], {})
            if g.get(phi[parent], phi[p]) != phi[p]:
                return None
            g[phi[parent]] = phi[p]
    for g in fns.values():
        pairs = sorted(g.items())
        for (x1, y1), (x2, y2) in zip(pairs, pairs[1:]):
            if y1 > y2:
                return None
    return fns, covers


def oracle_ok(pts, phi, slots=None):
    r = induced(pts, phi)
    if r is None:
        return False
    fns, covers = r
    if slots is not None:
        for a, _ in covers:
            if (a + 1) % slots == 0:
                return False
        for g in fns.values():
            fwd, bwd = {}, {}
            for a, b in g.items():
                if fwd.setdefault(a // slots, b // slots) != b // slots:
                    return False
                if bwd.setdefault(b // slots, a // slots) != a // slots:
                    return False
    for p in pts:
        if p and p[0][0] == "app" and p[0][2] != 0:
            br = iter_bracket(fns.get(p[0][1], {}), covers, p[0][2])
            if br.get(phi[p[1:]]) != phi[p]:
                return False
    return True


def brute_surjections(eq):
    pts = sorted_points(eq)
    found = set()
    for q in range(1, len(pts) + 1):
        for values in itertools.product(range(q), repeat=len(pts)):
            if set(values) != set(range(q)):
                continue
            if oracle_ok(pts, dict(zip(pts, values))):
                found.add((q, values))
    return found


def brute_partitions(eq):
    pts = sorted_points(eq)
    found = set()
    for b in range(1, len(pts) + 1):
        for d in range(1, len(pts) + 1):
            for values in itertools.product(range(b * d), repeat=len(pts)):
                if {v // d for v in values} != set(range(b)):
                    continue
                if {v % d for v in values} != set(range(d)):
                    continue
                if oracle_ok(pts, dict(zip(pts, values)), slots=d):
                    found.add((b, d, values))
    return found


def engine_surjections(eq):
    pts = sorted_points(eq)
    out = []
    for cs in enumerate_compatible_surjections(eq):
        out.append((cs.q, tuple(cs.phi[p] for p in pts)))
    return out


def engine_partitions(eq):
    pts = sorted_points(eq)
    out = []
    for pd in enumerate_partition_diagrams(eq):
        out.append((pd.blocks, pd.slots,
                    tuple(pd.flat(pd.phi[p]) for p in pts)))
    return out


# ------------------------------------------------------ compatible surjections

def test_one_leq_x_has_exactly_three_surjections():
    eq = conjunct("1 <= x")
    got = engine_surjections(eq)
    assert sorted(got) == [(1, (0, 0)), (2, (0, 1)), (2, (1, 0))]


def test_surjections_match_bruteforce():
    for text in ["1 <= x", "1 <= x x", "1 <= x y",
                 "1 <= x^l", "1 <= x^(-1) x"]:
        for eq in conjuncts(text):
            got = engine_surjections(eq)
            assert len(got) == len(set(got)), text
            assert set(got) == brute_surjections(eq), text


def test_surjection_stream_q_ascending():
    qs = [cs.q for cs in enumerate_compatible_surjections(conjunct("1 <= x^l"))]
    assert qs and qs == sorted(qs)


def test_no_failing_surjection_for_pregroup_laws():
    for text in ["1 <= x^(-1) x", "1 <= x x^l"]:
        eq = conjunct(text)
        assert list(enumerate_compatible_surjections(
            eq, require_failure=True)) == []
        assert not any(fails_in(cs, eq)
                       for cs in enumerate_compatible_surjections(eq))


def test_failing_surjections_for_one_leq_x():
    eq = conjunct("1 <= x")
    failing = list(enumerate_compatible_surjections(eq, require_failure=True))
    assert len(failing) == 1
    cs = failing[0]
    assert fails_in(cs, eq)
    assert cs.q == 2 and cs.phi[()] == 1


def test_require_failure_equals_filtered_stream():
    for text in ["1 <= x y", "1 <= x^l"]:
        eq = conjunct(text)
        pts = sorted_points(eq)
        def key(cs):
            return (cs.q, tuple(cs.phi[p] for p in pts))
        want = {key(cs) for cs in enumerate_compatible_surjections(eq)
                if fails_in(cs, eq)}
        got = {key(cs) for cs in
               enumerate_compatible_surjections(eq, require_failure=True)}
        assert got == want, text


# --------------------------------------------------------- partition diagrams

def test_partitions_match_bruteforce():
    for text in ["1 <= x", "1 <= x x", "1 <= x y"]:
        for eq in conjuncts(text):
            got = engine_partitions(eq)
            assert len(got) == len(set(got)), text
            assert set(got) == brute_partitions(eq), text


def test_partition_diagrams_wellformed():
    eq = conjunct("1 <= x^l")
    pts = sorted_points(eq)
    count = 0
    for pd in itertools.islice(enumerate_partition_diagrams(eq), 300):
        count += 1
        # covers inside one block
        for a, b in pd.chain.covers:
            assert a // pd.slots == b // pd.slots
        # blocks preserved in both directions
        for name in pd.fns:
            fwd, bwd = {}, {}
            for a, b in pd.fns[name].pairs:
                assert fwd.setdefault(a // pd.slots, b // pd.slots) \
                    == b // pd.slots
                assert bwd.setdefault(b // pd.slots, a // pd.slots) \
                    == a // pd.slots
        # projections onto: every block and slot carries an image point
        image = [pd.phi[p] for p in pts]
        assert {v[0] for v in image} == set(range(pd.blocks))
        assert {v[1] for v in image} == set(range(pd.slots))
        # slot chain is the projection of the flat covers
        assert pd.slot_chain().covers == frozenset(
            (a % pd.slots, b % pd.slots) for a, b in pd.chain.covers)
        # the whole assignment rechecks from scratch
        flat = {p: pd.flat(pd.phi[p]) for p in pts}
        assert oracle_ok(pts, flat, slots=pd.slots)
    assert count > 0


def test_partition_bracket_blocks_alternate():
    # flat bracket inverses land in the block paired by the induced block
    # injection: an l-bracket pair x -> y has gtilde(block(y)) == block(x),
    # and so does an r-bracket pair.
    eq = conjunct("1 <= x^l")
    seen = 0
    for pd in itertools.islice(enumerate_partition_diagrams(eq), 300):
        for name in pd.fns:
            gt = pd.gtilde(name)
            for m in (1, -1):
                for x, y in iter_bracket(dict(pd.fns[name].pairs),
                                         pd.chain.covers, m).items():
                    assert gt[y // pd.slots] == x // pd.slots
                    seen += 1
    assert seen > 0


def test_failing_partition_diagrams_for_one_leq_x():
    eq = conjunct("1 <= x")
    failing = list(enumerate_partition_diagrams(eq, require_failure=True))
    assert failing
    assert all(fails_in(pd, eq) for pd in failing)
    # and they are exactly the failing members of the full stream
    pts = sorted_points(eq)
    def key(pd):
        return (pd.blocks, pd.slots, tuple(pd.flat(pd.phi[p]) for p in pts))
    want = {key(pd) for pd in enumerate_partition_diagrams(eq)
            if fails_in(pd, eq)}
    assert {key(pd) for pd in failing} == want


def test_xl_xr_failing_diagram_periodic_at_2_not_1():
    # x^l = x^r reduces to two conjuncts; the one with joinand x x^(-1)
    # has failing partition diagrams.  Some admit a 2-periodic shared slot
    # embedding (the equation fails at n=2); none admit a 1-periodic one
    # (it holds in the 1-periodic theory, where both inverses coincide).
    eqs = conjuncts("x^l = x^r")
    assert len(eqs) == 2
    eq = next(e for e in eqs
              if e.joinands == ((("x", 0), ("x", -1)),))
    failing = list(enumerate_partition_diagrams(eq, require_failure=True))
    assert failing
    found2 = False
    for pd in failing:
        chain, fns = pd.slot_chain(), pd.local_fns()
        e2 = spacing.find_witness_embedding(
            chain, fns, 2, cap=spacing.nu(pd.slots, 2))
        if e2 is not None:
            found2 = True
        e1 = spacing.find_witness_embedding(
            chain, fns, 1, cap=spacing.nu(pd.slots, 1))
        assert e1 is None
    assert found2
