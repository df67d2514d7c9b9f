"""Tests for the n-periodic integer maps.

The residual operations and the periodicity test each get a brute-force
oracle here (plain scans over a window, the bounded forall-k definition),
written before the implementations were trusted and kept as the reference.
"""

import pytest
from hypothesis import given, settings, strategies as st

from lpregroup import fnz
from lpregroup.fnz import PeriodicFn


# ---------------------------------------------------------------- oracles

def oracle_linv_at(f, a, span=64):
    """min{b : a <= f(b)} by exhaustive ascending scan."""
    for b in range(a - span, a + span + 1):
        if fnz.eval(f, b) >= a:
            return b
    raise AssertionError("scan window too small")


def oracle_rinv_at(f, b, span=64):
    """max{a : f(a) <= b} by exhaustive descending scan."""
    for a in range(b + span, b - span - 1, -1):
        if fnz.eval(f, a) <= b:
            return a
    raise AssertionError("scan window too small")


def oracle_is_periodic(pairs, n):
    """Definitional check: x <= y + kn implies h(x) <= h(y) + kn.

    |k| beyond span/n + 1 makes the hypothesis or the conclusion trivial,
    so a bounded scan is exhaustive.
    """
    pts = sorted(pairs)
    if not pts:
        return True
    span = max(abs(x) + abs(pairs[x]) for x in pts) + max(n, 1)
    kmax = span // n + 2
    for x in pts:
        for y in pts:
            for k in range(-kmax, kmax + 1):
                if x <= y + k * n and not pairs[x] <= pairs[y] + k * n:
                    return False
    return True


# ------------------------------------------------------------- strategies

@st.composite
def periodic_fns(draw, max_n=4, bound=8):
    n = draw(st.integers(1, max_n))
    v0 = draw(st.integers(-bound, bound))
    steps = sorted(draw(st.lists(st.integers(0, n), min_size=n - 1,
                                 max_size=n - 1)))
    return PeriodicFn(n, tuple([v0] + [v0 + s for s in steps]))


@st.composite
def periodic_fn_pairs(draw, max_n=4, bound=8):
    f = draw(periodic_fns(max_n=max_n, bound=bound))
    v0 = draw(st.integers(-bound, bound))
    steps = sorted(draw(st.lists(st.integers(0, f.n), min_size=f.n - 1,
                                 max_size=f.n - 1)))
    return f, PeriodicFn(f.n, tuple([v0] + [v0 + s for s in steps]))


# ------------------------------------------------------------- unit tests

def test_constructor_validates():
    with pytest.raises(ValueError):
        PeriodicFn(0, ())
    with pytest.raises(ValueError):
        PeriodicFn(2, (3, 1))       # decreasing
    with pytest.raises(ValueError):
        PeriodicFn(2, (0, 3))       # window wider than the period
    with pytest.raises(ValueError):
        PeriodicFn(2, (0, 1, 2))    # wrong length


def test_eval_periodicity():
    f = PeriodicFn(3, (1, 1, 4))
    assert [f(x) for x in range(-3, 6)] == [-2, -2, 1, 1, 1, 4, 4, 4, 7]
    assert f(30) == f(0) + 30


def test_worked_example_values():
    f = PeriodicFn(2, (4, 4))
    assert fnz.linv(f) == PeriodicFn(2, (-4, -2))
    assert fnz.iter_inv(f, 2) == PeriodicFn(2, (3, 5))
    assert fnz.decompose(f) == (4, PeriodicFn(2, (0, 0)))


def test_decompose_translation_part_is_multiple_of_n():
    shift, star = fnz.decompose(PeriodicFn(3, (-4, -2, -2)))
    assert shift % 3 == 0 and shift == -6
    assert star == PeriodicFn(3, (2, 4, 4))
    assert all(star(x) + shift == fnz.eval(PeriodicFn(3, (-4, -2, -2)), x)
               for x in range(-6, 7))


def test_extend_partial_two_point_example():
    assert fnz.extend_partial({0: 1, 3: 4}, 2) == PeriodicFn(2, (1, 2))


def test_extend_partial_empty():
    with pytest.raises(ValueError):
        fnz.extend_partial({}, 3)
    assert fnz.extend_partial({}, 3, permissive=True) == fnz.id_fn(3)


def test_extend_partial_rejects_aperiodic():
    assert not fnz.is_periodic_pairs({0: 0, 1: 5}, 2)
    with pytest.raises(ValueError):
        fnz.extend_partial({0: 0, 1: 5}, 2)


def test_shift_fn_and_id():
    assert fnz.id_fn(3)(17) == 17
    assert fnz.shift_fn(2, 5)(-3) == 2


# --------------------------------------------------------- property tests

@given(periodic_fns())
def test_linv_rinv_match_oracle(f):
    li, ri = fnz.linv(f), fnz.rinv(f)
    for x in range(-2 * f.n, 2 * f.n + 1):
        assert fnz.eval(li, x) == oracle_linv_at(f, x)
        assert fnz.eval(ri, x) == oracle_rinv_at(f, x)


def _residual_chain_at(f, m, x, span):
    """f^(m)(x) through the materialized chain of residuals, each step
    tabulated by the brute-force scans and the last one run at x."""
    if m == 0:
        return fnz.eval(f, x)
    step = oracle_linv_at if m > 0 else oracle_rinv_at
    g = f
    for _ in range(abs(m) - 1):
        g = PeriodicFn(f.n, tuple(step(g, a, span) for a in range(f.n)))
    return step(g, x, span)


@settings(max_examples=150, deadline=None)
@given(periodic_fns(max_n=50), st.integers(-6, 6), st.integers(-200, 200))
def test_inv_at_matches_residual_chain(f, m, x):
    # every offset f^(m)(x) - x is at most |v0| + n + |m| in size
    assert fnz.inv_at(f, m, x) == _residual_chain_at(f, m, x, 3 * f.n + 32)


@given(periodic_fns())
def test_residual_adjunctions(f):
    li, ri = fnz.linv(f), fnz.rinv(f)
    for a in range(-4, 5):
        for b in range(-4, 5):
            assert (fnz.eval(li, a) <= b) == (a <= fnz.eval(f, b))
            assert (fnz.eval(f, a) <= b) == (a <= fnz.eval(ri, b))


@given(periodic_fns())
def test_pregroup_unit_laws(f):
    one = fnz.id_fn(f.n)
    li, ri = fnz.linv(f), fnz.rinv(f)
    assert fnz.leq(fnz.compose(li, f), one)
    assert fnz.leq(one, fnz.compose(f, li))
    assert fnz.leq(fnz.compose(f, ri), one)
    assert fnz.leq(one, fnz.compose(ri, f))


@given(periodic_fns())
def test_iter_inv_tower(f):
    assert fnz.iter_inv(f, 0) == f
    assert fnz.iter_inv(f, 1) == fnz.linv(f)
    assert fnz.iter_inv(f, -1) == fnz.rinv(f)
    for m in range(-4, 4):
        assert fnz.iter_inv(f, m + 1) == fnz.linv(fnz.iter_inv(f, m))
        assert fnz.iter_inv(f, m) == fnz.rinv(fnz.iter_inv(f, m + 1))


@given(periodic_fns())
def test_period_makes_inverses_cycle(f):
    assert fnz.iter_inv(f, 2 * f.n) == f
    assert fnz.iter_inv(f, -2 * f.n) == f


@given(periodic_fns())
def test_double_left_inverse_is_conjugated_shift(f):
    ff = fnz.iter_inv(f, 2)
    for x in range(-3, 4):
        assert fnz.eval(ff, x) == fnz.eval(f, x - 1) + 1


@given(periodic_fn_pairs())
def test_compose_respects_lattice(pair):
    f, g = pair
    j, m = fnz.join(f, g), fnz.meet(f, g)
    assert fnz.leq(m, f) and fnz.leq(m, g)
    assert fnz.leq(f, j) and fnz.leq(g, j)
    h = fnz.iter_inv(f, 3)  # an arbitrary third element
    assert fnz.compose(h, j) == fnz.join(fnz.compose(h, f), fnz.compose(h, g))
    assert fnz.compose(j, h) == fnz.join(fnz.compose(f, h), fnz.compose(g, h))
    assert fnz.compose(h, m) == fnz.meet(fnz.compose(h, f), fnz.compose(h, g))
    assert fnz.compose(m, h) == fnz.meet(fnz.compose(f, h), fnz.compose(g, h))


@given(periodic_fn_pairs())
def test_compose_associative_with_identity(pair):
    f, g = pair
    one = fnz.id_fn(f.n)
    assert fnz.compose(f, one) == f == fnz.compose(one, f)
    h = fnz.linv(g)
    assert fnz.compose(fnz.compose(f, g), h) == fnz.compose(f, fnz.compose(g, h))


@given(periodic_fns())
def test_decompose_roundtrip(f):
    shift, star = fnz.decompose(f)
    assert shift % f.n == 0
    assert 0 <= star.vals[0] < f.n
    assert star.vals == tuple(v - shift for v in f.vals)


@given(periodic_fns(), st.integers(-3, 3))
def test_extend_partial_recovers_full_restriction(f, offset):
    dom = range(offset * f.n, offset * f.n + f.n)
    h = {x: fnz.eval(f, x) for x in dom}
    assert fnz.extend_partial(h, f.n) == f


@given(periodic_fns(), st.sets(st.integers(-9, 9), min_size=1, max_size=5))
def test_extend_partial_extends_any_restriction(f, dom):
    h = {x: fnz.eval(f, x) for x in dom}
    g = fnz.extend_partial(h, f.n)
    assert all(fnz.eval(g, x) == h[x] for x in h)


@settings(max_examples=200)
@given(st.integers(1, 3),
       st.dictionaries(st.integers(-6, 6), st.integers(-6, 6), max_size=4))
def test_periodicity_test_matches_definition(n, pairs):
    assert fnz.is_periodic_pairs(pairs, n) == oracle_is_periodic(pairs, n)
