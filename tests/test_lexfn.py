"""Tests for the lexicographic-product function algebra, validated by
pointwise evaluation oracles."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lpregroup import fnz, lexfn
from lpregroup.decide import Witness, witness_from_json
from lpregroup.fnz import tabulated
from lpregroup.lexfn import LexFn, PLBijection


# ------------------------------------------------------------ strategies

fractions = st.builds(Fraction, st.integers(-12, 12),
                      st.integers(1, 6))


@st.composite
def pl_bijections(draw):
    k = draw(st.integers(0, 3))
    xs = sorted(draw(st.sets(fractions, min_size=k, max_size=k)))
    ys = sorted(draw(st.sets(fractions, min_size=k, max_size=k)))
    return PLBijection(tuple(zip(xs, ys)))


@st.composite
def periodic_fns_at(draw, n):
    steps = sorted(draw(st.lists(st.integers(0, n), min_size=n - 1,
                                 max_size=n - 1)))
    base = draw(st.integers(-5, 5))
    vals = [base] + [base + s for s in steps]
    return tabulated(n, tuple(vals[:n]))


@st.composite
def lex_fns(draw, n=None):
    if n is None:
        n = draw(st.integers(1, 3))
    tilde = draw(pl_bijections())
    support = draw(st.sets(fractions, max_size=3))
    comps = tuple((j, draw(periodic_fns_at(n))) for j in sorted(support))
    return LexFn(n, tilde, comps)


@st.composite
def lex_points(draw):
    return (draw(fractions), draw(st.integers(-8, 8)))


# ------------------------------------------------------------ PLBijection

def test_pl_identity():
    f = PLBijection()
    assert f.is_identity
    assert f(Fraction(7, 3)) == Fraction(7, 3)


def test_pl_translation_normal_form():
    # any anchor set lying on y = x + c collapses to the canonical anchor
    assert PLBijection(((3, 8), (5, 10))) == PLBijection.translation(5)
    assert PLBijection(((2, 2),)) == PLBijection()


def test_pl_eval_piecewise():
    f = PLBijection(((0, 0), (1, 3)))
    assert f(Fraction(1, 2)) == Fraction(3, 2)
    assert f(-2) == -2
    assert f(2) == 4


def test_pl_rejects_non_increasing():
    with pytest.raises(ValueError):
        PLBijection(((0, 0), (1, 0)))
    with pytest.raises(ValueError):
        PLBijection(((0, 0), (0, 1)))


@settings(max_examples=200, deadline=None)
@given(pl_bijections(), pl_bijections(), fractions)
def test_pl_compose_pointwise(f, g, x):
    assert f.compose(g)(x) == f(g(x))


@settings(max_examples=200, deadline=None)
@given(pl_bijections(), fractions)
def test_pl_inverse_roundtrip(f, x):
    assert f.inverse()(f(x)) == x
    assert f.inverse().inverse() == f


@settings(max_examples=200, deadline=None)
@given(pl_bijections(), fractions)
def test_pl_preimage_is_the_inverse_at_a_point(f, y):
    assert f.preimage(y) == f.inverse()(y)


def _file_roundtrip(f: LexFn) -> LexFn:
    # the function's file form lives in the witness file, so read it back
    # as the one assignment of a witness
    w = Witness("FnQxZ", f.n, {"x": f}, (Fraction(0), 0))
    return witness_from_json(json.loads(json.dumps(w.to_json()))) \
        .assignment["x"]


@settings(max_examples=100, deadline=None)
@given(pl_bijections())
def test_pl_json_roundtrip(f):
    assert _file_roundtrip(LexFn(1, f)).tilde == f


# ------------------------------------------------------------------ LexFn

def test_eval_identity():
    f = LexFn(2)
    assert lexfn.eval(f, (Fraction(1, 2), 3)) == (Fraction(1, 2), 3)


def test_eval_component_fiber():
    f = LexFn(2, PLBijection(), ((Fraction(0), tabulated(2, (4, 4))),))
    assert lexfn.eval(f, (0, 1)) == (0, 4)
    assert lexfn.eval(f, (7, 5)) == (7, 5)


def test_compose_moves_components():
    shift = LexFn(1, PLBijection.translation(1),
                  ((Fraction(0), tabulated(1, (1,))),))
    twice = lexfn.compose(shift, shift)
    assert twice.tilde == PLBijection.translation(2)
    # the fiber at 0 first moves by the 0-component, then by the
    # component at the moved index (identity there)
    assert twice.component(0) == tabulated(1, (1,))
    for m in range(-3, 4):
        assert lexfn.eval(twice, (0, m)) == \
            lexfn.eval(shift, lexfn.eval(shift, (0, m)))


@settings(max_examples=200, deadline=None)
@given(lex_fns(n=2), lex_fns(n=2), lex_points())
def test_compose_agrees_with_eval(f, g, p):
    assert lexfn.eval(lexfn.compose(f, g), p) == \
        lexfn.eval(f, lexfn.eval(g, p))


@settings(max_examples=150, deadline=None)
@given(lex_fns())
def test_inverses_cancel_structurally(f):
    assert lexfn.rinv(lexfn.linv(f)) == f
    assert lexfn.linv(lexfn.rinv(f)) == f


@settings(max_examples=150, deadline=None)
@given(lex_fns(n=2), lex_points(), lex_points())
def test_galois_adjunctions(f, a, b):
    fa = lexfn.eval(f, a)
    ra = lexfn.eval(lexfn.rinv(f), b)
    assert (fa <= b) == (a <= ra)
    la = lexfn.eval(lexfn.linv(f), b)
    assert (b <= fa) == (la <= a)


@settings(max_examples=100, deadline=None)
@given(lex_fns())
def test_periodicity_of_iterates(f):
    assert lexfn.iter_inv(f, 2 * f.n) == f
    assert lexfn.iter_inv(f, -2 * f.n) == f


def _residual(f, left):
    """One residual straight from its definition: invert the global part,
    move component j to tilde(j) and take the component's residual."""
    res = fnz.linv if left else fnz.rinv
    return LexFn(f.n, f.tilde.inverse(),
                 tuple((f.tilde(j), res(c)) for j, c in f.components))


@settings(max_examples=150, deadline=None)
@given(lex_fns(), st.integers(-6, 6))
def test_iter_inv_matches_residual_chain(f, m):
    ref = f
    for _ in range(abs(m)):
        ref = _residual(ref, m > 0)
    assert lexfn.iter_inv(f, m) == ref
    assert lexfn.linv(f) == _residual(f, True)
    assert lexfn.rinv(f) == _residual(f, False)


@settings(max_examples=150, deadline=None)
@given(lex_fns(), st.integers(-6, 6), fractions, st.integers(-8, 8))
def test_inv_at_matches_iter_inv(f, m, q, r):
    # support indices, their images and preimages under the global part,
    # a drawn rational and one past the support
    inv = f.tilde.inverse()
    js = {q, max(f.support, default=Fraction(0)) + Fraction(1, 7)}
    for j in f.support:
        js |= {j, f.tilde(j), inv(j)}
    fm = lexfn.iter_inv(f, m)
    for j in js:
        assert lexfn.inv_at(f, m, (j, r)) == lexfn.eval(fm, (j, r))


# ----------------------------------------------------------------- order

def sampled_leq(f, g, sample):
    """Pointwise comparison on the given sample: a sound refuter, exact
    only if the sample covers the disagreement set."""
    if f.n != g.n:
        raise ValueError(f"period mismatch: {f.n} != {g.n}")
    return all(lexfn.eval(f, p) <= lexfn.eval(g, p) for p in sample)


@settings(max_examples=150, deadline=None)
@given(lex_fns(n=2), lex_fns(n=2), st.lists(lex_points(), max_size=10))
def test_exact_leq_implies_sampled_leq(f, g, sample):
    if lexfn.leq(f, g):
        assert sampled_leq(f, g, sample)


def _covering_sample(f, g):
    """Points where f and g can disagree in order: the lattice grid, both
    supports, the midpoints between them and one block beyond each end,
    each with every residue.  Between consecutive indices one global part
    stays on one side of the other, off the supports both components are
    the identity, and a component is decided by one period."""
    js = sorted(set(lexfn._lattice_grid(f, g)) | set(f.support)
                | set(g.support))
    js += [(a + b) / 2 for a, b in zip(js, js[1:])]
    js += [js[0] - 1, max(js) + 1]
    return [(j, r) for j in js for r in range(f.n)]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(lex_fns(n), lex_fns(n))),
       st.booleans())
def test_exact_leq_matches_covering_sample(pair, ordered):
    f, g = pair
    if ordered:  # half the draws compare f with something above it
        g = lexfn.join(f, g)
    assert lexfn.leq(f, g) == sampled_leq(f, g, _covering_sample(f, g))


def test_exact_leq_component_sensitivity():
    lo = LexFn(2, PLBijection(), ((Fraction(1), tabulated(2, (0, 1))),))
    hi = LexFn(2, PLBijection(), ((Fraction(1), tabulated(2, (1, 1))),))
    assert lexfn.leq(lo, hi)
    assert not lexfn.leq(hi, lo)


def test_exact_leq_catches_far_tilde_dip():
    # the global parts agree only left of 0, where f's component is bigger
    f = LexFn(1, PLBijection(((0, 0), (1, 2))),
              ((Fraction(-5), tabulated(1, (1,))),))
    g = LexFn(1, PLBijection(((0, 0), (1, 3))))
    assert not lexfn.leq(f, g)
    f_ok = LexFn(1, PLBijection(((0, 0), (1, 2))),
                 ((Fraction(-5), tabulated(1, (-2,))),))
    assert lexfn.leq(f_ok, g)


@settings(max_examples=150, deadline=None)
@given(lex_fns(n=2), lex_fns(n=2), lex_points())
def test_meet_join_pointwise(f, g, p):
    fp, gp = lexfn.eval(f, p), lexfn.eval(g, p)
    assert lexfn.eval(lexfn.meet(f, g), p) == min(fp, gp)
    assert lexfn.eval(lexfn.join(f, g), p) == max(fp, gp)


@settings(max_examples=100, deadline=None)
@given(lex_fns(n=3), lex_fns(n=3))
def test_meet_below_arguments(f, g):
    m = lexfn.meet(f, g)
    assert lexfn.leq(m, f)
    assert lexfn.leq(m, g)
    j = lexfn.join(f, g)
    assert lexfn.leq(f, j)
    assert lexfn.leq(g, j)


@settings(max_examples=100, deadline=None)
@given(lex_fns())
def test_json_roundtrip(f):
    assert _file_roundtrip(f) == f
