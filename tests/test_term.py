"""Tests for parsing, intensional normalization and the point set.

The normalization oracle is semantic: an equation and its intensional form
must agree on every concrete assignment of n-periodic functions, because
each rewriting step is an equivalence over those algebras.  Evaluating both
sides directly is a complete check up to the sampled assignments and is
where any distribution or inverse-pushing bug would surface.  The
conjunct lists themselves, order included, are checked against a two-pass
reference normal form kept here, and the parser against the one it
replaced.
"""

import itertools
import math
import re
import sys
import time
from pathlib import Path

import pytest
from hypothesis import (assume, example, given, settings,
                        strategies as st)

from lpregroup import fnz, lexfn, term
from lpregroup.term import (MAX_NESTING, Equation, IntensionalEquation, Inv,
                            Join, Meet, ParseError, Prod, Term, Unit, Var,
                            delta_epsilon, final_subwords, literal_str,
                            parse, point_of_word, to_intensional)

from test_fnz import periodic_fns
from test_lexfn import lex_fns, lex_points

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import random_cases  # noqa: E402


# ----------------------------------------------------------------- oracles

def eval_term(t, asg, alg, unit):
    """Direct evaluation of a term AST in a function algebra, fnz on Z or
    lexfn on Q×Z, with the given unit."""
    if isinstance(t, Var):
        return asg[t.name]
    if isinstance(t, Unit):
        return unit
    if isinstance(t, Inv):
        return alg.iter_inv(eval_term(t.arg, asg, alg, unit), t.m)
    vals = [eval_term(a, asg, alg, unit) for a in t.args]
    out = vals[0]
    for v in vals[1:]:
        if isinstance(t, Prod):
            out = alg.compose(out, v)
        elif isinstance(t, Join):
            out = alg.join(out, v)
        else:
            out = alg.meet(out, v)
    return out


def equation_holds(eq: Equation, asg, alg, unit) -> bool:
    lhs = eval_term(eq.lhs, asg, alg, unit)
    rhs = eval_term(eq.rhs, asg, alg, unit)
    if eq.relation == "<=":
        return alg.leq(lhs, rhs)
    return lhs == rhs  # both algebras keep their elements in normal form


def conjunct_holds(c: IntensionalEquation, asg, n) -> bool:
    # 1 <= join of words, checked on one period
    return all(any(fnz.eval_word(w, asg, p) >= p for w in c.joinands)
               for p in range(n))


# ------------------------------------------------------------------ parser

def test_parse_literals_and_precedence():
    assert parse("x <= y") == Equation(Var("x"), Var("y"), "<=")
    eq = parse("x y | z & w = 1")
    assert eq.lhs == Join((Prod((Var("x"), Var("y"))),
                           Meet((Var("z"), Var("w")))))
    assert eq.rhs == Unit()


def test_parse_postfix():
    assert parse("x^l = x^r") == Equation(Inv(Var("x"), 1),
                                          Inv(Var("x"), -1), "=")
    assert parse("x^l^l <= 1").lhs == Inv(Inv(Var("x"), 1), 1)
    assert parse("x^(-2) <= 1").lhs == Inv(Var("x"), -2)
    assert parse("(x y)^l <= 1").lhs == Inv(Prod((Var("x"), Var("y"))), 1)
    # whitespace may separate the parts of a suffix, tabs and newlines too
    for text in ("x ^ l <= 1", "x^\nl <= 1"):
        assert parse(text).lhs == Inv(Var("x"), 1)
    for text in ("x^( - 3 ) <= 1", "x^(\t-\t3\t) <= 1", "x ^\n(-3\n) <= 1"):
        assert parse(text).lhs == Inv(Var("x"), -3)
    assert parse("x^ (2) <= 1").lhs == Inv(Var("x"), 2)
    assert parse("x^(-0) <= x").lhs == Inv(Var("x"), 0)
    assert parse("x^(2)x1 <= 1").lhs == Prod((Inv(Var("x"), 2), Var("x1")))
    assert parse("x^l(y) <= 1").lhs == Prod((Inv(Var("x"), 1), Var("y")))
    assert parse("1x <= 1").lhs == Prod((Unit(), Var("x")))


def test_parse_explicit_star_and_parens():
    assert parse("x * y <= x y") == Equation(Prod((Var("x"), Var("y"))),
                                             Prod((Var("x"), Var("y"))), "<=")
    assert parse("(x | y) z <= 1").lhs == Prod((Join((Var("x"), Var("y"))),
                                                Var("z")))


def test_parse_errors():
    for bad in ["x <", "x <= ", "<= x", "x ^ q <= 1", "x^() <= 1",
                "2 <= x", "x & <= y", "x <= y)", "x@y <= 1", "x <= y z)",
                "x^l1 <= 1", "x^left <= 1", "x^lx <= 1", "x^(+1) <= x",
                "01 <= x", "x 10 <= 1", "x - y <= 1", "x^ <= 1",
                "x^(y) <= 1", "x^(--1) <= 1", "^l <= x"]:
        with pytest.raises(ParseError):
            parse(bad)


def test_overlong_exponent_is_a_parse_error():
    # int() refuses more digits than the interpreter's limit, which CI
    # may run with off; the suffix "^(" starts at 6
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ParseError, match=r"5000 digits at 6$"):
            parse("1 <= x^(" + "9" * 5000 + ") x")
    finally:
        sys.set_int_max_str_digits(old)


def test_sizes():
    assert term.equation_size(parse("x <= x^l")) == 3
    assert term.equation_size(parse("1 <= x")) == 2
    assert term.equation_size(parse("x y = y x")) == 6
    assert term.equation_size(parse("x^(4) = x")) == 6
    assert term.equation_size(parse("x | 1 <= x & x")) == 6


def test_variables():
    assert term.variables(parse("x y^l | 1 <= z").lhs) == {"x", "y"}


# ------------------------------------------------ reference parser
#
# The tokenizer and parser as they were before the lexer read an inverse
# suffix as one token, kept verbatim as the reference for term.parse.

_TOKEN_RE = re.compile(r"\s*(?:(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
                       r"|(?P<int>\d+)"
                       r"|(?P<op><=|[=|&*^()\-]))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r} at {pos}")
        if m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        elif m.lastgroup == "int":
            tokens.append(("int", m.group("int"), m.start("int")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value):
        kind, val, pos = self.take()
        if val != value:
            raise ParseError(f"expected {value!r} at {pos}, got {val!r}")

    def fail(self, msg):
        _, val, pos = self.peek()
        raise ParseError(f"{msg} at {pos} (near {val!r})")

    def equation(self) -> Equation:
        lhs = self.term()
        kind, val, pos = self.take()
        if val not in ("=", "<="):
            raise ParseError(f"expected '=' or '<=' at {pos}, got {val!r}")
        rhs = self.term()
        if self.peek()[0] != "end":
            self.fail("trailing input")
        return Equation(lhs, rhs, val)

    def term(self) -> Term:
        arms = [self.meet()]
        while self.peek()[1] == "|":
            self.take()
            arms.append(self.meet())
        return arms[0] if len(arms) == 1 else Join(tuple(arms))

    def meet(self) -> Term:
        arms = [self.prod()]
        while self.peek()[1] == "&":
            self.take()
            arms.append(self.prod())
        return arms[0] if len(arms) == 1 else Meet(tuple(arms))

    def prod(self) -> Term:
        factors = [self.postfix()]
        while True:
            kind, val, _ = self.peek()
            if val == "*":
                self.take()
                factors.append(self.postfix())
            elif kind == "name" or val == "(" or (kind == "int" and val == "1"):
                factors.append(self.postfix())
            else:
                break
        return factors[0] if len(factors) == 1 else Prod(tuple(factors))

    def postfix(self) -> Term:
        t = self.atom()
        while self.peek()[1] == "^":
            self.take()
            kind, val, pos = self.take()
            if val == "l":
                t = Inv(t, 1)
            elif val == "r":
                t = Inv(t, -1)
            elif val == "(":
                sign = 1
                if self.peek()[1] == "-":
                    self.take()
                    sign = -1
                kind, val, pos = self.take()
                if kind != "int":
                    raise ParseError(f"expected integer at {pos}")
                self.expect(")")
                t = Inv(t, sign * int(val))
            else:
                raise ParseError(
                    f"expected 'l', 'r' or '(m)' after '^' at {pos}")
        return t

    def atom(self) -> Term:
        kind, val, pos = self.take()
        if kind == "name":
            return Var(val)
        if kind == "int":
            if val == "1":
                return Unit()
            raise ParseError(f"only the unit constant 1 is allowed, "
                             f"got {val} at {pos}")
        if val == "(":
            # each level costs several stack frames here and in the
            # recursive normal form; refuse before Python's limit
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than "
                                 f"{MAX_NESTING} at {pos}")
            self.depth += 1
            t = self.term()
            self.expect(")")
            self.depth -= 1
            return t
        raise ParseError(f"expected a variable, '1' or '(' at {pos}, "
                         f"got {val!r}")


def parse_reference(text: str) -> Equation:
    return _Parser(text).equation()


def assert_parses_as_reference(text: str):
    """term.parse gives the reference's AST, or both raise ParseError,
    term.parse's naming a character position."""
    try:
        expected = parse_reference(text)
    except ParseError:
        with pytest.raises(ParseError, match=r" at \d+$"):
            parse(text)
    else:
        assert parse(text) == expected


_SPACES = st.sampled_from(("", " ", "\t", "\n", " \t\n "))
_OPERANDS = ("x", "y", "x1", "left", "l", "r", "1", "01", "10")
_NEAR_MISSES = ("^", "(", ")", "-", "+", "|", "&", "*", "=", "<=", "<", "@")


@st.composite
def inverse_suffixes(draw):
    """^l, ^r or ^(m), blanks, tabs and newlines between their parts, and
    signs the grammar refuses."""
    s = [draw(_SPACES) for _ in range(4)]
    if draw(st.booleans()):
        return f"^{s[0]}{draw(st.sampled_from('lr'))}"
    sign = draw(st.sampled_from(("", "-", "+", "--")))
    digits = draw(st.sampled_from(("0", "3", "01", "12")))
    return f"^{s[0]}({s[1]}{sign}{s[2]}{digits}{s[3]})"


@st.composite
def token_strings(draw):
    """Text over the token alphabet, each token followed by whitespace:
    operands (names or integers with inverse suffixes, some in
    parentheses) between operators, around one relation.  One token in
    ten is a near miss, so both accepted and refused text comes up.  The
    simplest draw of each choice is the plain one, for shrinking."""
    def token(options) -> str:
        if draw(st.integers(0, 9)) == 9:
            options = _NEAR_MISSES
        return draw(st.sampled_from(options)) + draw(_SPACES)

    def operand(depth: int) -> str:
        if depth < 2 and draw(st.integers(0, 3)) == 3:
            text = "(" + draw(_SPACES) + side(depth + 1) + ")"
        else:
            text = token(_OPERANDS)
        for _ in range(draw(st.integers(0, 2))):
            text += draw(inverse_suffixes()) + draw(_SPACES)
        return text

    def side(depth: int = 0) -> str:
        text = operand(depth)
        for _ in range(draw(st.integers(0, 2))):
            text += token(("", "*", "|", "&")) + operand(depth)
        return text

    return side() + token(("<=", "=")) + side()


@settings(max_examples=500, deadline=None)
@given(token_strings())
@example("x ^ l <= 1")
@example("x^( - 3 ) <= 1")
@example("x^(\t-\t3\t) <= 1")
@example("x^ (2) <= 1")
@example("x^(2)x1 <= 1")
@example("x^l(y) <= 1")
@example("x^(-0) <= x")
@example("1x <= 1")
@example("x^l1 <= 1")
@example("x^left <= 1")
@example("x^lx <= 1")
@example("x^(+1) <= x")
@example("01 <= x")
@example("x 10 <= 1")
@example("x - y <= 1")
def test_parser_matches_the_reference(text):
    assert_parses_as_reference(text)


def test_parser_matches_the_reference_on_the_benchmark_draws():
    texts = {case.eq for seed in (1, 2, 3)
             for case in random_cases(seed, 6_000)}
    for text in texts:
        assert parse(text) == parse_reference(text)


# ------------------------------------------------------------ normalization

def words(*texts):
    out = []
    for t in texts:
        w = []
        for lit in t.split():
            if "^" in lit:
                name, m = lit.split("^")
                w.append((name, int(m.strip("()"))))
            else:
                w.append((lit, 0))
        out.append(tuple(w))
    return out


def test_intensional_inverse_split():
    assert [c.joinands for c in to_intensional(parse("x^l = x^r"))] == \
        [tuple(words("x x^(-1)")), tuple(words("x^(-2) x^(1)"))]
    assert [c.joinands for c in to_intensional(parse("x^(4) = x"))] == \
        [tuple(words("x^(3) x")), tuple(words("x^(-1) x^(4)"))]


def test_intensional_commutativity():
    got = [c.joinands for c in to_intensional(parse("x y = y x"))]
    assert got == [tuple(words("y^(-1) x^(-1) y x")),
                   tuple(words("x^(-1) y^(-1) x y"))]


def test_intensional_trivial_conjuncts_dropped():
    assert to_intensional(parse("1 <= 1 | x")) == []
    assert to_intensional(parse("1 <= 1")) == []


def test_intensional_join_and_meet():
    # meets on the right split into selections, joins stay joins
    got = to_intensional(parse("1 <= x & y"))
    assert [c.joinands for c in got] == [tuple(words("x")), tuple(words("y"))]
    got = to_intensional(parse("1 <= x | y"))
    assert [c.joinands for c in got] == [tuple(sorted(words("x", "y")))]


@st.composite
def small_terms(draw, depth=0, max_depth=2, max_m=2):
    if depth >= max_depth or draw(st.booleans()):
        leaf = draw(st.sampled_from(["x", "y", "1"]))
        return Unit() if leaf == "1" else Var(leaf)
    kind = draw(st.sampled_from(["prod", "join", "meet", "inv", "inv"]))
    sub = small_terms(depth + 1, max_depth, max_m)
    if kind == "inv":
        return Inv(draw(sub), draw(st.integers(-max_m, max_m)))
    args = (draw(sub), draw(sub))
    return {"prod": Prod, "join": Join, "meet": Meet}[kind](args)


@st.composite
def terms(draw, size):
    """Term text of exactly `size` symbols (term.term_size) over x, y and
    the unit, built from product, join, meet, ^l and ^r."""
    if size == 1:
        return draw(st.sampled_from(("x", "y", "1")))
    op = draw(st.sampled_from((" ", " | ", " & ", "^l", "^r")
                              if size > 2 else ("^l", "^r")))
    if op.startswith("^"):
        return f"({draw(terms(size - 1))}){op}"
    left = draw(st.integers(1, size - 2))
    return f"({draw(terms(left))}){op}({draw(terms(size - 1 - left))})"


@st.composite
def equations(draw):
    """Equation text of 2 to 6 symbols, the grammar tests/test_decide.py
    fuzzes the deciders with."""
    # hypothesis favours the simplest draws, so make those the largest
    size = 6 - draw(st.integers(0, 4))
    left = draw(st.integers(1, size - 1))
    rel = draw(st.sampled_from(("=", "<=")))
    return f"{draw(terms(left))} {rel} {draw(terms(size - left))}"


def periodic_fns_at(n, bound=4):
    def build(v0, steps):
        return fnz.tabulated(n, tuple([v0] + [v0 + s for s in sorted(steps)]))
    return st.builds(build, st.integers(-bound, bound),
                     st.lists(st.integers(0, n), min_size=n - 1,
                              max_size=n - 1))


@settings(max_examples=300, deadline=None)
@given(small_terms(), small_terms(), st.sampled_from(["<=", "="]),
       st.data())
def test_intensional_form_is_equivalent(lhs, rhs, rel, data):
    eq = Equation(lhs, rhs, rel)
    n = data.draw(st.integers(1, 3))
    asg = {v: data.draw(periodic_fns_at(n), label=v) for v in ("x", "y")}
    direct = equation_holds(eq, asg, fnz, fnz.id_fn(n))
    viaform = all(conjunct_holds(c, asg, n) for c in to_intensional(eq))
    assert direct == viaform


def conjunct_term(c: IntensionalEquation):
    """The join of c's joinands as a term; 1 <= it is c."""
    return Join(tuple(Prod(tuple(Inv(Var(name), m) for name, m in w))
                      if w else Unit() for w in c.joinands))


@settings(max_examples=300, deadline=None)
@given(small_terms(), small_terms(), st.sampled_from(["<=", "="]),
       st.data())
def test_intensional_form_is_equivalent_on_qxz(lhs, rhs, rel, data):
    # lpn witnesses live on Q×Z, not on the fiber F_n(Z) drawn above
    eq = Equation(lhs, rhs, rel)
    n = data.draw(st.integers(1, 3))
    asg = {v: data.draw(lex_fns(n), label=v) for v in ("x", "y")}
    unit = lexfn.LexFn(n)
    direct = equation_holds(eq, asg, lexfn, unit)
    viaform = all(lexfn.leq(unit, eval_term(conjunct_term(c), asg, lexfn,
                                            unit))
                  for c in to_intensional(eq))
    assert direct == viaform


# The reference normal form, in two passes: push the inverses down to the
# variables, then distribute, re-normalizing each factor once per arm built
# so far.  term._join_of_meets does both in one recursion, and must give
# the same conjunct lists, order included.

def push_inv_reference(t, m):
    """Rewrite t^(m) with inverses applied directly to variables."""
    t, ms = term._strip_inv(t)
    m += sum(ms)
    if isinstance(t, Unit):
        return t
    if isinstance(t, Var):
        return Inv(t, m) if m else t
    args = tuple(push_inv_reference(a, m) for a in t.args)
    if isinstance(t, Prod):
        return Prod(args if m % 2 == 0 else args[::-1])
    if isinstance(t, Join):
        return Join(args) if m % 2 == 0 else Meet(args)
    return Meet(args) if m % 2 == 0 else Join(args)


def join_of_meets_reference(t):
    """Normal form of an inverse-pushed term: a join of meets of words."""
    if isinstance(t, Unit):
        return [[()]]
    if isinstance(t, Var):
        return [[((t.name, 0),)]]
    if isinstance(t, Inv):
        if not isinstance(t.arg, Var):
            raise AssertionError("inverses must be pushed first")
        return [[((t.arg.name, t.m),)]]
    if isinstance(t, Join):
        arms = []
        for a in t.args:
            arms.extend(join_of_meets_reference(a))
        return dedup_arms(arms)
    if isinstance(t, Meet):
        arms = [[]]
        for a in t.args:
            arms = [dedup_words(m1 + m2)
                    for m1 in arms for m2 in join_of_meets_reference(a)]
        return dedup_arms(arms)
    # product: multiply arm by arm, word by word
    arms = [[()]]
    for a in t.args:
        arms = [dedup_words([w1 + w2 for w1 in m1 for w2 in m2])
                for m1 in arms for m2 in join_of_meets_reference(a)]
    return dedup_arms(arms)


def dedup_words(words):
    return sorted(set(words))


def dedup_arms(arms):
    seen = set()
    out = []
    for arm in arms:
        key = tuple(arm)
        if key not in seen:
            seen.add(key)
            out.append(arm)
    return out


def inequality_conjuncts_reference(lhs, rhs):
    moved = Prod((Inv(lhs, -1), rhs))
    arms = join_of_meets_reference(push_inv_reference(moved, 0))
    conjuncts = []
    for choice in itertools.product(*(range(len(arm)) for arm in arms)):
        joinands = tuple(sorted({arms[i][c] for i, c in enumerate(choice)}))
        if () in joinands:
            continue  # one joinand is the unit itself: trivially true
        if joinands:
            conjuncts.append(IntensionalEquation(joinands))
    return conjuncts


def intensional_reference(eq: Equation):
    out = inequality_conjuncts_reference(eq.lhs, eq.rhs)
    if eq.relation == "=":
        out.extend(inequality_conjuncts_reference(eq.rhs, eq.lhs))
    return list(dict.fromkeys(out))


@settings(max_examples=500, deadline=None)
@given(small_terms(max_depth=3, max_m=3), small_terms(max_depth=3, max_m=3),
       st.sampled_from(["<=", "="]))
def test_intensional_form_matches_the_two_pass_reference(lhs, rhs, rel):
    eq = Equation(lhs, rhs, rel)
    # a side takes one selection per choice of a meetand from each arm;
    # at depth 3 a rare draw takes billions
    for a, b in [(lhs, rhs), (rhs, lhs)]:
        arms = join_of_meets_reference(push_inv_reference(
            Prod((Inv(a, -1), b)), 0))
        assume(math.prod(map(len, arms)) <= 10_000)
    assert to_intensional(eq) == intensional_reference(eq)  # order included


@settings(max_examples=300, deadline=None)
@given(equations())
def test_intensional_form_matches_the_reference_on_the_fuzz_grammar(text):
    eq = parse(text)
    assert to_intensional(eq) == intensional_reference(eq)


def test_normal_form_visits_each_subterm_once(monkeypatch):
    calls = 0
    recurse = term._join_of_meets

    def counted(*args):
        nonlocal calls
        calls += 1
        return recurse(*args)

    monkeypatch.setattr(term, "_join_of_meets", counted)
    a = "(x|y|z)"
    eq = parse(f"1 <= ((({a}{a})({a}{a}))(({a}{a})({a}{a})))")

    def nodes(t):  # subterms that are not inverses
        t, _ = term._strip_inv(t)
        return 1 + sum(map(nodes, getattr(t, "args", ())))

    to_intensional(eq)
    # the moved product 1^r P, the unit under its inverse, and P's 39
    assert calls == 1 + nodes(eq.lhs) + nodes(eq.rhs) == 41


# ------------------------------------------------------- renaming key

_NAMES = ("x", "y", "z")


@st.composite
def conjuncts_xyz(draw, max_m=2, max_joinands=3, max_len=3, names=_NAMES):
    """A conjunct over x, y and z (or the given names) with short words."""
    literal = st.tuples(st.sampled_from(names), st.integers(-max_m, max_m))
    ws = draw(st.lists(st.lists(literal, min_size=1, max_size=max_len)
                       .map(tuple), min_size=1, max_size=max_joinands))
    return IntensionalEquation(tuple(sorted(set(ws))))


def rename(c, to: dict):
    return IntensionalEquation(tuple(sorted(
        {tuple((to[name], m) for name, m in w) for w in c.joinands})))


def renaming(a, b):
    """A bijection of variable names taking conjunct a to conjunct b, by
    brute force, or None."""
    src, dst = term.variables_of([a]), term.variables_of([b])
    if len(src) == len(dst):
        for perm in itertools.permutations(dst):
            to = dict(zip(src, perm))
            if rename(a, to) == b:
                return to
    return None


@settings(max_examples=300, deadline=None)
@given(conjuncts_xyz(), st.permutations(_NAMES))
def test_conjunct_key_ignores_renaming(c, perm):
    image = rename(c, dict(zip(_NAMES, perm)))
    assert term.conjunct_key(image) == term.conjunct_key(c)


@settings(max_examples=500, deadline=None)
@given(conjuncts_xyz(max_m=1, max_joinands=2, max_len=2),
       conjuncts_xyz(max_m=1, max_joinands=2, max_len=2))
def test_equal_conjunct_keys_are_renamings(a, b):
    # small alphabets, so equal keys come up often
    same = term.conjunct_key(a) == term.conjunct_key(b)
    assert same == (renaming(a, b) is not None)


_SIX = ("a", "b", "c", "d", "e", "f")
four_to_six = conjuncts_xyz(max_m=1, max_joinands=4, max_len=3,
                            names=_SIX).filter(
    lambda c: len(term.variables_of([c])) >= 4)


@settings(max_examples=200, deadline=None)
@given(four_to_six, st.permutations(_SIX))
def test_conjunct_key_ignores_renaming_of_up_to_six_variables(c, perm):
    image = rename(c, dict(zip(_SIX, perm)))
    assert term.conjunct_key(image) == term.conjunct_key(c)


@settings(max_examples=200, deadline=None)
@given(four_to_six, st.permutations(_SIX), st.data())
def test_equal_keys_of_up_to_six_variables_are_renamings(a, perm, data):
    # b renames a, and then maybe one literal changes, so both answers
    # come up
    words = [list(w) for w in rename(a, dict(zip(_SIX, perm))).joinands]
    if data.draw(st.booleans()):
        w = data.draw(st.sampled_from(words))
        i = data.draw(st.integers(0, len(w) - 1))
        w[i] = (data.draw(st.sampled_from(_SIX)),
                data.draw(st.integers(-1, 1)))
    b = IntensionalEquation(tuple(sorted(set(map(tuple, words)))))
    same = term.conjunct_key(a) == term.conjunct_key(b)
    assert same == (renaming(a, b) is not None)


def test_conjunct_key_pairs_the_mirror_conjuncts():
    c1, c2 = to_intensional(parse("x y = y x"))
    assert c1 != c2 and term.conjunct_key(c1) == term.conjunct_key(c2)
    keys = [term.conjunct_key(c)
            for c in to_intensional(parse("(x | y)^l = x^l & y^l"))]
    assert keys[3] == keys[0] and len(set(keys)) == 3
    # x and y occur with exponents 0 and 1 in both, but no renaming maps
    # one conjunct onto the other
    [a] = to_intensional(parse("1 <= x y | x^l y^l"))
    [b] = to_intensional(parse("1 <= x y^l | x^l y"))
    assert term.conjunct_key(a) != term.conjunct_key(b)


def test_conjunct_key_of_seven_variables_is_its_own_joinands():
    # distinct exponent signatures, but 7! orders exceed the bound
    [c] = to_intensional(parse(
        "1 <= a b^l c^(2) d^(-1) e^(3) f^(-2) g^(4) | a^l b c d e f g"))
    assert len(term.variables_of([c])) == 7
    assert math.factorial(6) <= term.MAX_KEY_RENAMINGS < math.factorial(7)
    assert term.conjunct_key(c) == c.joinands


def test_conjunct_key_falls_back_past_the_renaming_bound():
    # nine variables in a ring of joinands: 9! orders, none of them tried
    names = [f"x{i}" for i in range(9)]
    text = "1 <= " + " | ".join(f"{a} {b}" for a, b in
                                zip(names, names[1:] + names[:1]))
    t0 = time.perf_counter()
    [c] = to_intensional(parse(text))
    key = term.conjunct_key(c)
    assert time.perf_counter() - t0 < 0.1
    assert math.factorial(9) > term.MAX_KEY_RENAMINGS
    assert key == c.joinands


# ------------------------------------------------------- final subwords

def test_final_subwords():
    [c] = to_intensional(parse("1 <= x^r x"))
    assert final_subwords(c) == {(), *words("x", "x^(-1) x")}


def test_final_subwords_multiple_joinands():
    [c] = to_intensional(parse("1 <= x y | y"))
    got = final_subwords(c)
    assert got == {(), *words("y", "x y")}


# ------------------------------------------- exponents mod 2n, expansions

def deletes_to_unit_by_brute_force(w, n):
    """Whether some order of deleting adjacent expansions x^(a) x^(b),
    a - b = -1 (mod 2n), empties w: every order is tried."""
    seen, todo = set(), [tuple(w)]
    while todo:
        u = todo.pop()
        if not u:
            return True
        if u in seen:
            continue
        seen.add(u)
        todo.extend(u[:i] + u[i + 2:] for i in range(len(u) - 1)
                    if u[i][0] == u[i + 1][0]
                    and (u[i][1] - u[i + 1][1] + 1) % (2 * n) == 0)
    return False


def deletes_greedily(w, n):
    stack = []
    for name, m in w:
        if stack and stack[-1][0] == name \
                and (stack[-1][1] - m + 1) % (2 * n) == 0:
            stack.pop()
        else:
            stack.append((name, m))
    return not stack


# x x^l x^(2) x^l: a stack pairs x with x^l and is left with x^(2) x^l,
# while deleting the middle pair x^l x^(2) first empties the word
GREEDY_MISS = (("x", 0), ("x", 1), ("x", 2), ("x", 1))


@st.composite
def expansion_words(draw, max_m=3, max_len=8):
    """A word that often deletes to the unit: expansions x^(b-1) x^(b)
    inserted one at a time, each exponent then shifted by a multiple of
    2n, and sometimes one literal changed."""
    n = draw(st.integers(1, 3))
    w = []
    while len(w) < max_len and draw(st.booleans()):
        name = draw(st.sampled_from(("x", "y")))
        b = draw(st.integers(-max_m, max_m))
        i = draw(st.integers(0, len(w)))
        w[i:i] = [(name, b - 1), (name, b)]
    w = [(name, m + 2 * n * draw(st.integers(-1, 1))) for name, m in w]
    if w and draw(st.booleans()):
        i = draw(st.integers(0, len(w) - 1))
        w[i] = (w[i][0], draw(st.integers(-max_m, max_m)))
    return tuple(w), n


random_words = st.tuples(
    st.lists(st.tuples(st.sampled_from(("x", "y")), st.integers(-4, 4)),
             max_size=8).map(tuple),
    st.integers(1, 3))


def test_greedy_deletion_misses_an_expansion_word():
    assert not deletes_greedily(GREEDY_MISS, 2)
    assert term.expands_to_unit(GREEDY_MISS, 2)
    for vals in [(0, 2), (-1, 0), (3, 3), (0, 1)]:
        asg = {"x": fnz.tabulated(2, vals)}
        assert all(fnz.eval_word(GREEDY_MISS, asg, p) >= p for p in range(2))


@settings(max_examples=500, deadline=None)
@given(st.one_of(expansion_words(), random_words))
@example((GREEDY_MISS, 2))
@example((GREEDY_MISS, 3))
def test_expands_to_unit_matches_every_deletion_order(case):
    w, n = case
    assert term.expands_to_unit(w, n) == deletes_to_unit_by_brute_force(w, n)


@settings(max_examples=200, deadline=None)
@given(expansion_words(), st.data())
def test_expansion_words_are_above_the_unit(case, data):
    w, n = case
    if not term.expands_to_unit(w, n):
        return
    asg = {v: data.draw(periodic_fns_at(n), label=v) for v in ("x", "y")}
    # w commutes with the shift by n, so one period decides it
    assert all(fnz.eval_word(w, asg, p) >= p for p in range(n))
    lex = {v: data.draw(lex_fns(n), label=f"lex {v}") for v in ("x", "y")}
    for p in data.draw(st.lists(lex_points(), min_size=1, max_size=5)):
        assert lexfn.eval_word(w, lex, p) >= p


@settings(max_examples=200, deadline=None)
@given(conjuncts_xyz(max_m=16), st.integers(1, 3), st.data())
def test_reduced_exponents_evaluate_equal(c, n, data):
    r = term.reduce_exponents(c, n)
    assert all(-n <= m <= n for w in r.joinands for _, m in w)
    if all(abs(m) <= n for w in c.joinands for _, m in w):
        assert r is c  # nothing to reduce, so no new search order
    asg = {v: data.draw(periodic_fns_at(n), label=v) for v in _NAMES}
    for p in range(n):
        assert ({fnz.eval_word(w, asg, p) for w in c.joinands}
                == {fnz.eval_word(w, asg, p) for w in r.joinands})
    lex = {v: data.draw(lex_fns(n), label=f"lex {v}") for v in _NAMES}
    p = data.draw(lex_points())
    assert ({lexfn.eval_word(w, lex, p) for w in c.joinands}
            == {lexfn.eval_word(w, lex, p) for w in r.joinands})


def test_reduction_keeps_exponents_within_the_period():
    # x^r stays x^r at n = 1 (remapping -1 to 1 enlarges the search)
    [c] = to_intensional(parse("1 <= x^r y^(3) | x^(-5)"))
    assert term.reduce_exponents(c, 1).joinands == tuple(sorted(
        [(("x", -1), ("y", 1)), (("x", 1),)]))
    assert term.reduce_exponents(c, 2).joinands == tuple(sorted(
        [(("x", -1), ("y", -1)), (("x", -1),)]))
    assert term.reduce_exponents(c, 5) is c
    # x^(3) and x^(1) meet at n = 1
    [c] = to_intensional(parse("1 <= x^(3) | x^l"))
    assert term.reduce_exponents(c, 1).joinands == ((("x", 1),),)


# --------------------------------------------------------------- Delta set

def point_str(p):
    bits = [literal_str(op[1:]) if op[0] == "app" else "+-"[op[1] < 0]
            for op in p]
    return " ".join(bits).replace("+ ", "+").replace("- ", "-") or "1"


def point_set_strs(eq_text):
    conjs = to_intensional(parse(eq_text))
    return [sorted(point_str(p) for p in delta_epsilon(c)) for c in conjs]


def test_delta_smallest():
    [pts] = point_set_strs("1 <= x")
    assert pts == ["1", "x"]


def test_delta_one_left_inverse():
    [c] = to_intensional(parse("1 <= x x^l"))
    pts = delta_epsilon(c)
    assert sorted(point_str(p) for p in pts) == \
        ["-x^(1)", "1", "x -x^(1)", "x x^(1)", "x^(1)"]


def test_delta_one_right_inverse():
    [c] = to_intensional(parse("1 <= x^r x"))
    pts = delta_epsilon(c)
    assert sorted(point_str(p) for p in pts) == \
        ["+x^(-1) x", "1", "x", "x +x^(-1) x", "x x^(-1) x", "x^(-1) x"]


def test_delta_sizes_of_known_sets():
    [c] = to_intensional(parse("1 <= x^(3) x"))
    assert len(delta_epsilon(c)) == 24
    c1, c2 = to_intensional(parse("x y = y x"))
    assert len(delta_epsilon(c1)) == len(delta_epsilon(c2)) == 11


def test_delta_contains_final_subwords_and_cover_bases():
    for eq_text in ["1 <= x^(-2) x^(1)", "x^(4) = x", "x y = y x"]:
        for c in to_intensional(parse(eq_text)):
            pts = delta_epsilon(c)
            for w in final_subwords(c):
                assert point_of_word(w) in pts
            for p in pts:
                if p and p[0][0] == "cov":
                    assert p[1:] in pts
                # stripping one application lands back in the set
                if p and p[0][0] == "app":
                    assert p[1:] in pts
