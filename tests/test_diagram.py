"""Tests for c-chains, brackets and spacing embeddings.

The load-bearing property here is realization: bracket pairs computed on the
finite diagram must be honored by every periodic extension of the embedded
counterpart e.g.e^-1.  That is what lets a finite certificate stand in for a
function algebra computation, so it gets a direct property test, as does
monotone growth of brackets under diagram extension (the soundness of
incremental pruning rests on it).
"""

import os
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from lpregroup import diagram, fnz
from lpregroup.diagram import CChain, PartialFn, SpacingEmbedding, iter_bracket


# ------------------------------------------------------------- strategies

@st.composite
def chain_and_fn(draw, max_size=5):
    size = draw(st.integers(2, max_size))
    covers = frozenset((a, a + 1) for a in range(size - 1)
                       if draw(st.booleans()))
    chain = CChain(size, covers)
    dom = sorted(draw(st.sets(st.integers(0, size - 1), max_size=size)))
    vals = sorted(draw(st.lists(st.integers(0, size - 1), min_size=len(dom),
                                max_size=len(dom))))
    return chain, PartialFn(tuple(zip(dom, vals)))


@st.composite
def embedded(draw, max_size=5):
    chain, g = draw(chain_and_fn(max_size=max_size))
    pos = [draw(st.integers(-4, 4))]
    for a in range(chain.size - 1):
        gap = 1 if (a, a + 1) in chain.covers else draw(st.integers(1, 3))
        pos.append(pos[-1] + gap)
    return chain, g, SpacingEmbedding(chain, tuple(pos))


# ------------------------------------------------------------- unit tests

def test_partial_fn_validation():
    with pytest.raises(ValueError):
        PartialFn(((0, 2), (1, 1)))     # order violated
    with pytest.raises(ValueError):
        PartialFn(((0, 2), (0, 3)))     # two values at one point


def test_chain_validation():
    with pytest.raises(ValueError):
        CChain(3, frozenset({(0, 2)}))
    with pytest.raises(ValueError):
        CChain(2, frozenset({(1, 2)}))


def test_embedding_validation():
    chain = CChain(3, frozenset({(0, 1)}))
    SpacingEmbedding(chain, (0, 1, 5))
    with pytest.raises(ValueError):
        SpacingEmbedding(chain, (0, 2, 5))   # cover stretched
    with pytest.raises(ValueError):
        SpacingEmbedding(chain, (0, 0, 5))   # not strictly increasing
    with pytest.raises(ValueError):
        SpacingEmbedding(chain, (0, 1))      # wrong length


def test_bracket_hand_example():
    g = {0: 1, 1: 2}
    assert iter_bracket(g, {(0, 1)}, 1) == {2: 1}
    assert iter_bracket(g, {(0, 1)}, -1) == {1: 0}
    # no covers, no brackets
    assert iter_bracket(g, set(), 1) == {}


def test_iter_bracket_directions():
    covers = {(0, 1), (1, 2)}
    g = {0: 0, 1: 2, 2: 3}
    assert iter_bracket(g, covers, 0) == g
    assert iter_bracket(g, covers, 1) == {1: 1, 2: 1, 3: 2}
    assert iter_bracket(g, covers, -1) == {0: 0, 1: 0, 2: 1}
    assert iter_bracket(g, covers, -2) == iter_bracket(
        iter_bracket(g, covers, -1), covers, -1)
    assert iter_bracket(g, covers, 2) == iter_bracket(
        iter_bracket(g, covers, 1), covers, 1)


# --------------------------------------------------------- property tests

_CLASHING_BRACKET = """
import sys
from lpregroup.diagram import iter_bracket
try:
    iter_bracket({0: 0, 1: 2, 2: 1, 3: 3}, {(0, 1), (2, 3)}, 1)
except AssertionError:
    print("raised", sys.flags.optimize)
else:
    print("returned", sys.flags.optimize)
"""


def test_bracket_clash_raises_under_optimize():
    # g is not order-preserving, so the covers (0, 1) and (2, 3) both
    # claim the l-bracket value at 2; python -O strips assert statements,
    # and the clash must still stop the computation
    src = os.path.dirname(os.path.dirname(diagram.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", _CLASHING_BRACKET],
                          capture_output=True, text=True, env=env)
    assert proc.stdout.split() == ["raised", "1"], proc.stderr


@settings(max_examples=300)
@given(embedded(), st.integers(1, 3), st.integers(-3, 3))
def test_bracket_pairs_realized_by_periodic_extensions(setup, n, m):
    chain, g, e = setup
    cp = {e(x): e(y) for x, y in g.pairs}
    assume(cp and fnz.is_periodic_pairs(cp, n))
    f = fnz.extend_partial(cp, n)
    fm = fnz.iter_inv(f, m)
    for x, y in iter_bracket(dict(g.pairs), chain.covers, m).items():
        assert fnz.eval(fm, e(x)) == e(y)


@settings(max_examples=200)
@given(chain_and_fn(), st.data(), st.integers(-3, 3))
def test_brackets_grow_monotonically(setup, data, m):
    chain, g = setup
    sub_pairs = tuple(p for p in g.pairs if data.draw(st.booleans()))
    sub_covers = frozenset(c for c in chain.covers if data.draw(st.booleans()))
    small = iter_bracket(dict(sub_pairs), sub_covers, m).items()
    big = iter_bracket(dict(g.pairs), chain.covers, m).items()
    assert small <= big
