"""Tests for the translation wreath product: algebra axioms on sampled
elements, transport to the lexicographic representation, and the negative
result motivating the group-action restriction."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lpregroup import fnz, lexfn, wreath
from lpregroup.fnz import tabulated
from lpregroup.wreath import (
    WreathElement, iso_from_lexfn, iso_to_lexfn, iter_inv,
    join, leq, linv, meet, multiply, rinv,
)


@st.composite
def periodic_fns_at(draw, n):
    steps = sorted(draw(st.lists(st.integers(0, n), min_size=n - 1,
                                 max_size=n - 1)))
    base = draw(st.integers(-5, 5))
    vals = [base] + [base + s for s in steps]
    return tabulated(n, tuple(vals[:n]))


@st.composite
def elements(draw, n=None):
    if n is None:
        n = draw(st.integers(1, 3))
    h = draw(st.integers(-4, 4))
    support = draw(st.sets(st.integers(-5, 5), max_size=3))
    comps = tuple((j, draw(periodic_fns_at(n))) for j in sorted(support))
    return WreathElement(n, h, comps)


points = st.tuples(st.integers(-6, 6), st.integers(-6, 6))


# ----------------------------------------------------------------- monoid

def test_identity_laws():
    e = WreathElement(2)
    a = WreathElement(2, 3, ((0, tabulated(2, (1, 2))),))
    assert multiply(e, a) == a
    assert multiply(a, e) == a


def test_twist_uses_moved_index():
    # (a * b) component at j reads a's component at b.h + j
    a = WreathElement(1, 0, ((5, tabulated(1, (7,))),))
    b = WreathElement(1, 5, ())
    assert multiply(a, b).comp(0) == tabulated(1, (7,))
    assert multiply(b, a).comp(5) == tabulated(1, (7,))


@settings(max_examples=200, deadline=None)
@given(elements(n=2), elements(n=2), points)
def test_multiply_is_action_composition(a, b, p):
    assert multiply(a, b).act(p) == a.act(b.act(p))


@settings(max_examples=200, deadline=None)
@given(elements(n=2), elements(n=2), elements(n=2))
def test_associativity(a, b, c):
    assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


# ---------------------------------------------------------------- lattice

def test_join_case_table():
    lo = WreathElement(1, 0, ((0, tabulated(1, (9,))),))
    hi = WreathElement(1, 1, ((0, tabulated(1, (-9,))),))
    # incomparable components, but the translation decides: the join takes
    # the bigger side's components wholesale
    assert join(lo, hi) == hi
    assert meet(lo, hi) == lo
    assert leq(lo, hi)


@settings(max_examples=200, deadline=None)
@given(elements(n=2), elements(n=2))
def test_lattice_absorption(a, b):
    assert join(a, meet(a, b)) == a
    assert meet(a, join(a, b)) == a


@settings(max_examples=200, deadline=None)
@given(elements(n=2), elements(n=2))
def test_lattice_agrees_with_order(a, b):
    assert leq(meet(a, b), a)
    assert leq(a, join(a, b))
    assert leq(a, b) == (meet(a, b) == a)


@settings(max_examples=200, deadline=None)
@given(elements(n=2), elements(n=2), st.booleans())
def test_leq_matches_action(a, b, ordered):
    # the supports, one index off both, and one period of residues cover
    # every place where the two actions can compare differently
    if ordered:
        b = join(a, b)
    js = set(a.support) | set(b.support)
    js.add(max(js, default=0) + 1)
    sample = [(j, r) for j in js for r in range(a.n)]
    assert leq(a, b) == all(a.act(p) <= b.act(p) for p in sample)


@settings(max_examples=150, deadline=None)
@given(elements(n=2), elements(n=2), elements(n=2))
def test_distributivity(a, b, c):
    assert meet(a, join(b, c)) == join(meet(a, b), meet(a, c))


# --------------------------------------------------------------- inverses

def test_linv_identity():
    assert linv(WreathElement(3)) == WreathElement(3)
    assert rinv(WreathElement(3)) == WreathElement(3)


@settings(max_examples=200, deadline=None)
@given(elements())
def test_pregroup_inequalities(a):
    e = WreathElement(a.n)
    assert leq(multiply(linv(a), a), e)
    assert leq(e, multiply(a, linv(a)))
    assert leq(multiply(a, rinv(a)), e)
    assert leq(e, multiply(rinv(a), a))


@settings(max_examples=150, deadline=None)
@given(elements())
def test_double_inverse_keeps_translation(a):
    ll = linv(linv(a))
    assert ll.h == a.h
    assert ll == WreathElement(
        a.n, a.h, tuple((j, fnz.iter_inv(f, 2)) for j, f in a.comps))


@settings(max_examples=150, deadline=None)
@given(elements())
def test_periodicity(a):
    assert iter_inv(a, 2 * a.n) == a
    assert iter_inv(a, -2 * a.n) == a


def _residual(a, left):
    """One residual straight from its definition: negate the translation,
    move component j to j + h and take the component's residual."""
    res = fnz.linv if left else fnz.rinv
    return WreathElement(a.n, -a.h,
                         tuple((j + a.h, res(f)) for j, f in a.comps))


@settings(max_examples=150, deadline=None)
@given(elements(), st.integers(-6, 6))
def test_iter_inv_matches_residual_chain(a, m):
    ref = a
    for _ in range(abs(m)):
        ref = _residual(ref, m > 0)
    assert iter_inv(a, m) == ref
    assert linv(a) == _residual(a, True)
    assert rinv(a) == _residual(a, False)


def test_periodicity_needs_matching_components():
    # a 2-periodic non-translation component is not 1-periodic: one
    # double-inverse does not return to the element
    a = WreathElement(2, 0, ((0, tabulated(2, (0, 0))),))
    assert iter_inv(a, 2) != a
    assert iter_inv(a, 4) == a


# ------------------------------------------------ one component normal form

_F2 = tabulated(2, (1, 2))


@pytest.mark.parametrize("n, comps, message", [
    (0, (), "period must be >= 1, got 0"),
    (1, ((0, _F2),), "component period 2 != 1"),
    (2, ((3, _F2), (3, fnz.id_fn(2))), "duplicate component at 3"),
], ids=["period", "component-period", "repeated-index"])
def test_both_constructors_refuse_alike(n, comps, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        WreathElement(n, 0, comps)
    with pytest.raises(ValueError, match=f"^{message}$"):
        lexfn.LexFn(n, lexfn.PLBijection(), comps)


def test_both_constructors_keep_one_normal_form():
    comps = ((4, _F2), (-1, fnz.id_fn(2)), (1, _F2))
    assert WreathElement(2, 0, comps).comps == ((1, _F2), (4, _F2))
    assert WreathElement(2, 0, ((Fraction(3), _F2),)).comps == ((3, _F2),)
    assert lexfn.LexFn(2, lexfn.PLBijection(), comps).components == (
        (Fraction(1), _F2), (Fraction(4), _F2))


@pytest.mark.parametrize("comps", [
    ((Fraction(3, 2), _F2),),
    ((0.5, _F2),),
    ((Fraction(3, 2), _F2), (Fraction(5, 3), _F2)),  # both truncate to 1
], ids=["fraction", "float", "same-truncation"])
def test_wreath_refuses_a_non_integer_index(comps):
    # truncating it would move the component to another fiber
    with pytest.raises(ValueError, match="is not an integer"):
        WreathElement(2, 0, comps)


@pytest.mark.parametrize("op", [lexfn.compose, lexfn.meet, lexfn.join])
def test_lexfn_operations_refuse_mismatched_periods(op):
    with pytest.raises(ValueError, match="^period mismatch: 1 != 2$"):
        op(lexfn.LexFn(1), lexfn.LexFn(2))


@pytest.mark.parametrize("op", [multiply, meet, join])
def test_wreath_operations_refuse_mismatched_periods(op):
    with pytest.raises(ValueError, match="^period mismatch: 1 != 2$"):
        op(WreathElement(1), WreathElement(2))


# -------------------------------------------------------------- transport

def test_iso_identity():
    assert iso_to_lexfn(WreathElement(2)) == lexfn.LexFn(2)
    assert iso_from_lexfn(lexfn.LexFn(2)) == WreathElement(2)


@settings(max_examples=200, deadline=None)
@given(elements(), points)
def test_iso_eval_agreement(a, p):
    j, m = a.act(p)
    assert lexfn.eval(iso_to_lexfn(a), p) == (Fraction(j), m)


@settings(max_examples=200, deadline=None)
@given(elements(n=2), elements(n=2))
def test_iso_homomorphism(a, b):
    assert iso_to_lexfn(multiply(a, b)) == \
        lexfn.compose(iso_to_lexfn(a), iso_to_lexfn(b))


@settings(max_examples=150, deadline=None)
@given(elements())
def test_iso_roundtrip(a):
    assert iso_from_lexfn(iso_to_lexfn(a)) == a


def test_iso_from_lexfn_rejects_non_translation():
    f = lexfn.LexFn(1, lexfn.PLBijection(((0, 0), (1, 2))))
    with pytest.raises(ValueError):
        iso_from_lexfn(f)
    g = lexfn.LexFn(1, lexfn.PLBijection.translation(Fraction(1, 2)))
    with pytest.raises(ValueError):
        iso_from_lexfn(g)


# ------------------------------------------------ failed generalization

def test_pregroup_action_breaks_inversion():
    """With the acting part drawn from a pregroup instead of a group, the
    analogous inversion formulas give (h, n)^(lr) = (h, n twisted by
    h^l o h), which differs from (h, n) whenever h is not invertible."""
    n = 2
    h = tabulated(n, (0, 0))  # collapses odd points: not invertible
    hl = fnz.linv(h)
    assert fnz.compose(hl, h) != fnz.id_fn(n)

    comps = {0: fnz.id_fn(n), 1: tabulated(n, (1, 1))}

    def comp(j):
        return comps.get(j, fnz.id_fn(n))

    twist = fnz.compose(hl, h)
    roundtrip = {j: comp(fnz.eval(twist, j)) for j in comps}
    assert roundtrip[1] != comp(1)
    # the discrepancy is one-sided: the roundtrip lands strictly below
    assert fnz.leq(roundtrip[1], comp(1))
    assert not fnz.leq(comp(1), roundtrip[1])
