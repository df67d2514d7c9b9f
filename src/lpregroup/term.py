"""Terms, parsing, and reduction of equations to intensional form.

Input language (ASCII):

    equation  :=  term ("=" | "<=") term
    term      :=  meet ("|" meet)*            join, loosest
    meet      :=  prod ("&" prod)*
    prod      :=  postfix (["*"] postfix)*    juxtaposition allowed
    postfix   :=  atom ("^l" | "^r" | "^(" ["-"] int ")")*
    atom      :=  ident | "1" | "(" term ")"

Whitespace may separate any two tokens, also inside an inverse suffix
(x^( - 3 )).  A name character directly after ^l or ^r (x^l1) is an
error, not a new factor.  Parentheses nest at most MAX_NESTING deep.

An equation is decided through its intensional form: a conjunction of
inequalities 1 <= w_1 | ... | w_k where every w is a product of literals
x^(m) (m-fold iterated inverses of variables, m in Z; x^(0) is x itself,
x^(1) is x^l, x^(-1) is x^r).  The reduction: split = into two <=, move the
left side to the right (s <= t becomes 1 <= s^r t), and normalize s^r t to
a join of meets of words in one recursion.  It carries the pending inverse
exponent down to the variables (inverting is an anti-automorphism for even
iterates and swaps join with meet for odd ones) while it distributes
products over joins and meets and meets over joins, each subterm once.
Finally the join of meets splits into one conjunct per selection of a
word from each meet, built by a fold over the meets.  Every step
preserves validity over the function algebras targeted here
(multiplication has both residuals and co-residuals, so it distributes
over finite joins and meets, and the lattices are distributive).

Words are tuples of (variable, m) pairs, composition order left to right:
the rightmost factor applies first to a point.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Union

# --------------------------------------------------------------------- AST

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unit:
    pass


@dataclass(frozen=True)
class Inv:
    arg: "Term"
    m: int


@dataclass(frozen=True)
class Prod:
    args: tuple["Term", ...]


@dataclass(frozen=True)
class Join:
    args: tuple["Term", ...]


@dataclass(frozen=True)
class Meet:
    args: tuple["Term", ...]


Term = Union[Var, Unit, Inv, Prod, Join, Meet]


@dataclass(frozen=True)
class Equation:
    lhs: Term
    rhs: Term
    relation: str  # "=" or "<="


class ParseError(ValueError):
    pass


# ------------------------------------------------------------------ parser

MAX_NESTING = 100

# One token per match, after optional whitespace.  An inverse suffix is
# one token, spaced as the input has it; an l or r directly followed by a
# name character is not one.  "bad" is a character no token starts with.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<op><=|[=|&*()])|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<unit>1(?!\d))|(?P<int>\d+)"
    r"|(?P<inv>\^\s*(?:(?P<lr>[lr])(?![A-Za-z_0-9])"
    r"|\(\s*(?P<minus>-?)\s*(?P<m>\d+)\s*\)))|(?P<bad>\S))")

_ATOM = ("name", "unit", "(")  # the kinds that can start a factor

# per binary level by its separator: its node and the level below it
# ("" below products: their factors)
_LEVELS = {"|": (Join, "&"), "&": (Meet, "*"), "*": (Prod, "")}


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    """(kind, value, position) per token, then ("end", "", len(text)).  An
    operator's kind is its text, and an inverse suffix's value is m."""
    tokens = []
    for t in _TOKEN_RE.finditer(text):
        kind = t.lastgroup
        val, pos = t[kind], t.start(kind)
        if kind == "bad":
            raise ParseError(f"unexpected character {val!r} at {pos}")
        if kind == "op":
            kind = val
        elif kind == "inv":
            try:
                val = int(t["minus"] + t["m"]) if t["m"] else (
                    1 if t["lr"] == "l" else -1)
            except ValueError:  # past sys.get_int_max_str_digits()
                raise ParseError(f"exponent of {len(t['m'])} digits at "
                                 f"{pos}") from None
        tokens.append((kind, val, pos))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def take(self, *expected: str) -> tuple[str, object, int]:
        """Consume the next token and return it; ParseError at its
        position when its kind is not one of expected."""
        tok = self.tokens[self.i]
        if tok[0] not in expected:
            raise ParseError(f"expected {' or '.join(expected)} at {tok[2]}")
        self.i += 1
        return tok

    def equation(self) -> Equation:
        lhs = self.term()
        relation = self.take("=", "<=")[0]
        rhs = self.term()
        self.take("end")
        return Equation(lhs, rhs, relation)

    def term(self, sep: str = "|") -> Term:
        """The level of separator sep, "|" for a whole term: args of the
        level below, one node when there are two or more.  The factors of
        a product may also stand side by side."""
        node, below = _LEVELS[sep]
        tokens = self.tokens
        args = []
        while True:
            args.append(self.term(below) if below else self.factor())
            kind = tokens[self.i][0]
            if kind == sep:
                self.i += 1
            elif node is not Prod or kind not in _ATOM:
                break
        return args[0] if len(args) == 1 else node(tuple(args))

    def factor(self) -> Term:
        """An atom and its inverse suffixes, taken in a loop."""
        kind, val, pos = self.take(*_ATOM)
        if kind != "(":
            t = Var(val) if kind == "name" else Unit()
        else:
            # each level costs several stack frames here and in the
            # recursive normal form; refuse before Python's limit
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than "
                                 f"{MAX_NESTING} at {pos}")
            self.depth += 1
            t = self.term()
            self.take(")")
            self.depth -= 1
        while self.tokens[self.i][0] == "inv":
            t = Inv(t, self.take("inv")[1])
        return t


def parse(text: str) -> Equation:
    """Parse an equation.  Raises ParseError on malformed input."""
    return _Parser(text).equation()


# ------------------------------------------------------- size and variables

def _strip_inv(t: Term) -> tuple[Term, list[int]]:
    """The term under a chain of inverses and the chain's exponents.  A
    postfix chain nests one Inv per "^", so walk it in a loop."""
    ms = []
    while isinstance(t, Inv):
        ms.append(t.m)
        t = t.arg
    return t, ms


def term_size(t: Term) -> int:
    """Symbol count: variable and unit occurrences, k-ary lattice/monoid
    operations count k-1, an m-fold inverse counts |m|."""
    t, ms = _strip_inv(t)
    size = sum(abs(m) for m in ms)
    if isinstance(t, (Var, Unit)):
        return size + 1
    return size + sum(term_size(a) for a in t.args) + len(t.args) - 1


def equation_size(eq: Equation) -> int:
    return term_size(eq.lhs) + term_size(eq.rhs)


def variables(t: Term) -> set[str]:
    t, _ = _strip_inv(t)
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, Unit):
        return set()
    return set().union(*(variables(a) for a in t.args))


# -------------------------------------------------------- intensional form

# A word is a product of literals x^(m); the empty word is the unit.
Word = tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class IntensionalEquation:
    """1 <= w_1 | ... | w_k with every w_i a word of literals."""

    joinands: tuple[Word, ...]

    def __str__(self):
        return "1 <= " + " | ".join(word_str(w) for w in self.joinands)


def literal_str(lit: tuple[str, int]) -> str:
    name, m = lit
    if m == 0:
        return name
    return f"{name}^({m})"


def word_str(w: Word) -> str:
    return " ".join(literal_str(lit) for lit in w) if w else "1"


def _join_of_meets(t: Term, m: int = 0) -> list[tuple[Word, ...]]:
    """The normal form of t^(m): a join of meets, each meet a sorted tuple
    of words.  The pending exponent m rides down to the variables, and
    every argument is normalized once before its arms are combined."""
    t, ms = _strip_inv(t)
    m += sum(ms)
    if isinstance(t, Unit):
        return [((),)]
    if isinstance(t, Var):
        return [(((t.name, m),),)]
    args = [_join_of_meets(a, m) for a in t.args]
    if isinstance(t, Prod):
        # multiply arm by arm, word by word; odd inverses reverse products
        arms = [((),)]
        for b in (args if m % 2 == 0 else args[::-1]):
            arms = [tuple(sorted({w1 + w2 for w1 in m1 for w2 in m2}))
                    for m1 in arms for m2 in b]
    elif isinstance(t, Join) == (m % 2 == 0):
        # a join, or a meet under odd inverses: concatenate the arms
        arms = [arm for b in args for arm in b]
    else:
        # a meet, or a join under odd inverses: union the meets pairwise
        arms = [()]
        for b in args:
            arms = [tuple(sorted(set(m1 + m2))) for m1 in arms for m2 in b]
    return list(dict.fromkeys(arms))  # drop repeats, keep first-seen order


def _inequality_conjuncts(lhs: Term, rhs: Term) -> list[IntensionalEquation]:
    # a meet at a time: a selection is its word set, kept where it first
    # occurs (an equal later prefix completes alike); the unit is skipped
    sels = dict.fromkeys([frozenset()])
    for meet in _join_of_meets(Prod((Inv(lhs, -1), rhs))):
        sels = dict.fromkeys(s | {w} for s in sels for w in meet if w)
    return [IntensionalEquation(tuple(sorted(s))) for s in sels]


def to_intensional(eq: Equation) -> list[IntensionalEquation]:
    """Reduce an equation to an equivalent finite conjunction of intensional
    inequalities.  The list may be empty when every conjunct is trivially
    true (for instance 1 <= 1 | x)."""
    out = _inequality_conjuncts(eq.lhs, eq.rhs)
    if eq.relation == "=":
        out.extend(_inequality_conjuncts(eq.rhs, eq.lhs))
    return list(dict.fromkeys(out))  # drop repeats, keep first-seen order


def conjuncts(eq: Union[Equation, str]) -> list[IntensionalEquation]:
    """The intensional conjuncts of an equation, parsing it if given as
    text."""
    if isinstance(eq, str):
        eq = parse(eq)
    return to_intensional(eq)


def variables_of(conjs: Iterable[IntensionalEquation]) -> list[str]:
    """Sorted names of the variables occurring in the given conjuncts."""
    return sorted({name for c in conjs for w in c.joinands for name, _ in w})


# conjunct_key tries every order of a conjunct's variables while there
# are at most this many (6 variables), and past it keys a conjunct by its
# exact joinands
MAX_KEY_RENAMINGS = 720


def conjunct_key(eq: IntensionalEquation) -> tuple:
    """A key that two conjuncts share exactly when one is the other with
    its variables renamed (bijectively), except that a conjunct whose
    variables have more than MAX_KEY_RENAMINGS orders (7 or more
    variables) is keyed by its own joinands, which only an equal conjunct
    shares: it can miss a renaming, never merge two conjuncts.

    Every order of the variables renames them onto 0..k-1, and the key
    is the least sorted tuple of renamed joinands."""
    names = variables_of([eq])
    if math.factorial(len(names)) > MAX_KEY_RENAMINGS:
        return eq.joinands  # string names: never equal to a renamed key
    index = {name: i for i, name in enumerate(names)}
    words = [[(index[name], m) for name, m in w] for w in eq.joinands]
    return min(tuple(sorted(tuple((to[i], m) for i, m in w) for w in words))
               for to in itertools.permutations(range(len(names))))


def reduce_exponents(eq: IntensionalEquation, n: int) -> IntensionalEquation:
    """eq with every literal x^(m), |m| > n, rewritten to x^(m') with m'
    the representative of m mod 2n in (-n, n]; literals with |m| <= n
    are kept.  Equivalent to eq in every n-periodic algebra, where
    x^(2n) = x.  eq itself when no literal changes."""
    def rep(m: int) -> int:
        if -n <= m <= n:
            return m
        r = m % (2 * n)
        return r - 2 * n if r > n else r

    words = [tuple((name, rep(m)) for name, m in w) for w in eq.joinands]
    if words == list(eq.joinands):
        return eq
    return IntensionalEquation(tuple(sorted(set(words))))


def expands_to_unit(w: Word, n: int) -> bool:
    """Whether w deletes to the empty word, one adjacent expansion
    x^(a) x^(b) with a - b = -1 (mod 2n) at a time, in some order.  An
    expansion is y^r y >= 1 with y = x^(b), so such a w is >= 1 in every
    n-periodic l-pregroup (products are monotone).

    An interval recursion over all deletion orders: w[i:j] deletes away
    when i == j, or when w[i] pairs with some w[k] and both w[i+1:k] and
    w[k+1:j] delete away.  Deleting greedily is not enough:
    x x^(1) x^(2) x^(1) empties only from its middle pair."""
    def pairs(a, b) -> bool:
        return a[0] == b[0] and (a[1] - b[1] + 1) % (2 * n) == 0

    # ends[i]: every j with w[i:j] deleting away, filled right to left
    size = len(w)
    ends = [set() for _ in range(size)] + [{size}]
    for i in reversed(range(size)):
        ends[i] = {i}.union(*(ends[k + 1] for k in ends[i + 1]
                              if k < size and pairs(w[i], w[k])))
    return size in ends[0]


def intensional_size(eq: IntensionalEquation) -> int:
    """Symbol count of an intensional equation (the unit on the left counts
    one, like any other occurrence)."""
    total = 1 + max(len(eq.joinands) - 1, 0)
    for w in eq.joinands:
        total += sum(1 + abs(m) for _, m in w) + max(len(w) - 1, 0)
        if not w:
            total += 1
    return total


# ------------------------------------------------ final subwords and Delta

def final_subwords(eq: IntensionalEquation) -> set[Word]:
    """All final (right) segments of the joinands, including the empty word."""
    subs: set[Word] = {()}
    for w in eq.joinands:
        for i in range(len(w) + 1):
            subs.add(w[i:])
    return subs


# Points of the Delta set are decorated words: tuples of operations, written
# leftmost first, applied rightmost first.  Operations are
#   ("app", x, m)  apply the m-th iterated inverse of variable x
#   ("cov", +1)    move to the upper cover       ("cov", -1)  lower cover
Point = tuple[tuple, ...]


def point_of_word(w: Word) -> Point:
    return tuple(("app", name, m) for name, m in w)


def _decorated_family(name: str, m: int, base: Point) -> Iterator[Point]:
    """The decorated approach-words for one literal x^(m) acting on a base
    point: for every tail j..|m| of the exponent ladder and every choice of
    cover decorations (lower covers for m >= 0, upper for m < 0; never on
    the outermost exponent 0).  Generated lazily: there are about
    3 * 2^|m| of them."""
    sign = 1 if m >= 0 else -1
    cov = -1 if m >= 0 else +1
    for j in range(abs(m) + 1):
        ladder = list(range(j, abs(m) + 1))
        decorable = [k for k in ladder if not (k == 0)]
        for picks in itertools.product((False, True), repeat=len(decorable)):
            chosen = {k for k, on in zip(decorable, picks) if on}
            ops: list[tuple] = []
            for k in ladder:
                if k in chosen:
                    ops.append(("cov", cov))
                ops.append(("app", name, sign * k))
            yield tuple(ops) + base


def delta_epsilon(eq: IntensionalEquation,
                  spend: Optional[Callable[[], object]] = None
                  ) -> frozenset[Point]:
    """The finite set of decorated evaluation points attached to an
    intensional equation.  It contains the final subwords; for every literal
    step x^(m)v between final subwords it also contains the intermediate
    iterates x^(j)...x^(m)v with optional cover decorations, which is what
    lets a surjection of this set pin down iterated inverses exactly.

    The set doubles with each unit of |m|, so spend, when given, is called
    once per new point before it is stored; a budget that raises there
    stops the build one point past its limit."""
    fs = final_subwords(eq)
    families = (p for w in fs if w
                for p in _decorated_family(w[0][0], w[0][1],
                                           point_of_word(w[1:])))
    points: set[Point] = set()
    for p in itertools.chain(map(point_of_word, fs), families):
        if p not in points:
            if spend is not None:
                spend()
            points.add(p)
    size = intensional_size(eq)
    if len(points) > 2 ** size * size ** 4:
        raise AssertionError(f"point set larger than promised: {len(points)}")
    return frozenset(points)
