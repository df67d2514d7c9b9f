"""Decision procedures with verified witnesses.

Three entry points, one per theory:

- decide_fnz: validity over the algebra of n-periodic functions on the
  integer chain.  A failing one-block diagram plus a spacing embedding
  realizes concrete functions.
- decide_lpn: validity in the variety of n-periodic l-pregroups.  Same
  shape, but a diagram may have many blocks, the embedding is shared
  across blocks, and the witness lives on the lexicographic chain Q x Z.
- decide_dlp: validity in distributive l-pregroups, by reduction to
  decide_lpn at an exactly computed period.  LP_n is contained in DLP,
  so a fails verdict from decide_lpn at any n refutes the equation in
  DLP too; a valid one says something about DLP only at that period.

Every embedding search runs up to the re-spacing bound
(spacing.complete_cap), so each refuted candidate is refuted for good.
A verdict is "valid" exactly when the candidate stream was exhausted and
every embedding attempt was refuted: the failure search space is then
provably empty.  A "fails" verdict always carries a witness that has
been re-verified by direct evaluation in the function algebra;
"unknown-budget-exhausted" means the node budget ran out first, and
stats["stopped_by"] says where: "embedding" inside an embedding search,
"enumeration" anywhere else (the point table or the enumeration).

One NodeBudget bounds a whole decision: the point table, the candidate
enumeration and every embedding search spend from it.  Capped mode, the
default, sets it to DEFAULT_NODE_BUDGET and complete mode to none; an
explicit budget bounds the whole search in either mode.  Both modes
read a verdict the same way.

At n > 1 the search first runs at period 1, on at most PERIOD_ONE_SLICE
nodes of that budget and at most half of it.  A failure there refutes
the equation at n, because the periods form a chain of subalgebras and
subvarieties: for d | n a d-periodic map is n-periodic, so F_d(Z) is a
subalgebra of F_n(Z), and x^(2d) = x implies x^(2n) = x, so LP_d is
contained in LP_n, and every LP_n in DLP.  An inequality that fails in
a subalgebra fails in the algebra, and one that fails in a subvariety
fails in the variety.  The search at d makes the rewrites below with d
for n, which is sound in F_d(Z) and LP_d, both d-periodic, and its
witness is checked on the original exponents all the same.  That
witness keeps its period: Witness.n is 1, stats["witness_period"] says
so, and Verdict.n stays n.  Lifting it to n would multiply its steps by
n, out of reach at decide_dlp's period.  A period-1 search that is
exhausted or cut by its slice says nothing about n, so the search at n
then runs on the rest of the budget, from scratch, and only it can give
"valid": a valid equation pays at most the slice.

stats["periods"] records each search: its period "d", its "nodes" and
"embed_nodes", and its "outcome" ("fails", "exhausted", or where its
budget ran out).  The totals stats["nodes"], stats["embed_nodes"],
stats["failing_candidates"] and stats["embeddings_refuted"] sum over
the searches, and stats["renamed_conjuncts"] counts the skips of the
last one, which gave the verdict.  Conjuncts are dropped at n, and
counted in stats["expansion_conjuncts"], before either search: one
that holds at n holds at 1, so neither search looks at it.

Conjuncts are searched in order, and a conjunct that is a renaming of
an earlier one (term.conjunct_key) is skipped.  Its variables are
universally quantified, so it makes the same claim as that earlier one,
whose search already ran without finding a witness: a witness would
have ended the run.  Nothing found is ever renamed, so a fails verdict
names the conjunct its witness was realized for, and verify_witness
still accepts a witness for the skipped one.

Before its search, each conjunct gets two rewrites, both sound in
every n-periodic l-pregroup, so in F_n(Z) and in LP_n:

- every exponent m with |m| > n becomes its representative mod 2n in
  (-n, n] (term.reduce_exponents).  x^(2n) = x holds in every
  n-periodic l-pregroup, so the rewritten conjunct is the same
  inequality there;
- a conjunct is dropped, and counted in stats["expansion_conjuncts"],
  when one of its joinands deletes to the empty word by removing
  adjacent expansions x^(a) x^(b) with a - b = -1 (mod 2n)
  (term.expands_to_unit).  Such a pair is y^r y for y = x^(b), and
  y^r y >= 1; products are monotone, so that joinand is >= 1 and the
  conjunct holds.

The searched conjunct is the rewritten one, and a witness is realized
for it.  Its functions are n-periodic, so they give the same values on
the original exponents, which verify_witness evaluates;
Witness.conjunct indexes the original list of term.conjuncts.  At
decide_dlp's period, far above any exponent, the first rewrite changes
nothing, and the second deletes only pairs x^(m-1) x^(m), which are
>= 1 in every l-pregroup.
"""

from __future__ import annotations

import dataclasses
import re
import time
from dataclasses import dataclass, field
from fractions import Fraction
from types import ModuleType
from typing import Callable, NamedTuple, Optional, Union

from . import fnz, lexfn, spacing, term
from .diagram import BudgetExceeded, NodeBudget, PartialFn, SpacingEmbedding
from .fnz import PeriodicFn
from .lexfn import LexFn, PLBijection
from .search import (PartitionDiagram, enumerate_compatible_surjections,
                     enumerate_partition_diagrams)
from .term import Equation, IntensionalEquation, point_of_word, word_str

VALID = "valid"
FAILS = "fails"
UNKNOWN = "unknown-budget-exhausted"

# capped-mode default: nodes across the whole decision
DEFAULT_NODE_BUDGET = 2_000_000
# nodes of a decision's budget that the search at period 1 may spend
# before the search at n > 1, the one that cuts it included; at most
# half the budget when that is less
PERIOD_ONE_SLICE = 256
# the largest equation size decide_dlp takes: its period has 30,123 digits
DLP_MAX_SIZE = 100_000

FnPoint = Union[int, tuple[Fraction, int]]


# ----------------------------------------------------------------- results

@dataclass
class Witness:
    """A failing instantiation: a function per variable and a point where
    every joinand of one conjunct lands strictly below it."""

    space: str  # a key of SPACES
    n: int
    assignment: dict[str, Union[PeriodicFn, LexFn]]
    point: FnPoint
    conjunct: int = 0
    checked: tuple[tuple[str, FnPoint], ...] = ()

    def to_json(self) -> dict:
        sp = SPACES[self.space]
        return {
            "space": self.space,
            "n": self.n,
            "assignment": {name: sp.write_fn(f)
                           for name, f in sorted(self.assignment.items())},
            "point": sp.write_point(self.point),
            "conjunct": self.conjunct,
            "checked": [{"word": w, "value": sp.write_point(v)}
                        for w, v in self.checked],
        }


# ------------------------------------------------------------ witness files
#
# Every value is read only in the form the writer gives it: an integer is
# a JSON integer, an array a JSON array, and a rational a JSON integer or
# the string str() gives a Fraction.  Fraction itself would also take
# "1e3", "1.5" or " 1", and "1e999999999" would build a billion-digit
# number, so a rational string must match _RATIONAL first ([0-9], as \d
# takes "١").  Its digit runs stop at Python's default int-to-str limit:
# Fraction converts a longer one in quadratic time where that limit is off.

_RATIONAL = re.compile(r"-?[0-9]{1,4300}(?:/[0-9]{1,4300})?")


def _int(v) -> int:
    if type(v) is not int:  # a float or a boolean is refused, not cast
        raise ValueError(f"expected an integer, got {v!r}")
    return v


def _array(v) -> list:
    if type(v) is not list:  # a string or an object would iterate
        raise ValueError(f"expected an array, got {v!r}")
    return v


def _rational(v) -> Fraction:
    if type(v) is int or (type(v) is str and _RATIONAL.fullmatch(v)):
        return Fraction(v)
    raise ValueError(f"expected a rational string or integer, got {v!r}")


def _pairs(v, read, what: str) -> tuple:
    """An array of two-element arrays, both elements read by read; what
    names the pair in the message for one of another length."""
    out = []
    for a in _array(v):
        if len(_array(a)) != 2:
            raise ValueError(f"{what}, got {a!r}")
        out.append((read(a[0]), read(a[1])))
    return tuple(out)


def _write_fnz(f: PeriodicFn) -> dict:
    return {"n": f.n, "steps": [[r, v] for r, v in f.steps]}


def _read_fnz(data) -> PeriodicFn:
    steps = _pairs(data["steps"], _int, "a step is [residue, value]")
    return PeriodicFn(_int(data["n"]), steps)


def _write_lex(f: LexFn) -> dict:
    return {"n": f.n,
            "tilde": [[str(x), str(y)] for x, y in f.tilde.anchors],
            "components": [{"j": str(j), "fn": _write_fnz(c)}
                           for j, c in f.components]}


def _read_lex(data) -> LexFn:
    return LexFn(_int(data["n"]),
                 PLBijection(_pairs(data["tilde"], _rational,
                                    "an anchor is [x, y]")),
                 tuple((_rational(c["j"]), _read_fnz(c["fn"]))
                       for c in _array(data["components"])))


class WitnessSpace(NamedTuple):
    """One function algebra a witness lives in, and its file form.  The
    algebra is its module, so eval_word is looked up where it is called."""

    algebra: ModuleType
    write_fn: Callable
    read_fn: Callable
    write_point: Callable
    read_point: Callable


# by the tag a witness names its space with
SPACES = {
    "FnZ": WitnessSpace(fnz, _write_fnz, _read_fnz, lambda p: p, _int),
    "FnQxZ": WitnessSpace(
        lexfn, _write_lex, _read_lex,
        lambda p: {"q": str(p[0]), "z": p[1]},
        lambda d: (_rational(d["q"]), _int(d["z"]))),
}


def witness_from_json(data: dict) -> Witness:
    """Load a witness from its JSON form.  Raises ValueError when data is
    not shaped like a witness (a missing field, an unknown space, a value
    of the wrong type or spelling, a number that is not an integer where
    one belongs, a zero denominator)."""
    try:
        space = data["space"]
        if space not in SPACES:
            raise ValueError(f"malformed witness: unknown space {space!r}")
        sp = SPACES[space]
        return Witness(
            space=space,
            n=_int(data["n"]),
            assignment={name: sp.read_fn(f)
                        for name, f in data["assignment"].items()},
            point=sp.read_point(data["point"]),
            conjunct=_int(data.get("conjunct", 0)),
            checked=tuple((c["word"], sp.read_point(c["value"]))
                          for c in _array(data.get("checked", []))),
        )
    except (KeyError, TypeError, AttributeError, ZeroDivisionError) as e:
        raise ValueError(f"malformed witness: {e!r}") from e


@dataclass
class Verdict:
    status: str  # valid / fails / unknown-budget-exhausted
    n: int
    mode: str  # "complete" or "capped"
    witness: Optional[Witness] = None
    stats: dict = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        return {VALID: 0, FAILS: 1, UNKNOWN: 2}[self.status]

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "n": self.n,
            "mode": self.mode,
            "witness": self.witness.to_json() if self.witness else None,
            "stats": dict(self.stats),
        }


# ------------------------------------------------------------- realization

def _check_realized(space: str, eq: IntensionalEquation, n: int, fns, p,
                    want_at) -> Witness:
    """The witness of fns at p in space, after evaluating every final
    subword of every joinand at p and comparing with the diagram's value
    want_at(point); each joinand must land strictly below p.  A mismatch
    is an internal error, not an input condition."""
    ev = SPACES[space].algebra.eval_word
    checked = []
    for w in eq.joinands:
        # innermost literal first; the empty subword is p by construction
        got = p
        for k in reversed(range(len(w))):
            got = ev(w[k:k + 1], fns, got)
            want = want_at(point_of_word(w[k:]))
            if got != want:
                raise AssertionError(
                    f"realized functions disagree with diagram at {w[k:]}: "
                    f"{got} != {want}")
        if not got < p:
            raise AssertionError(f"joinand {word_str(w)} not below the point")
        checked.append((word_str(w), got))
    return Witness(space, n, fns, p, 0, tuple(checked))


def realize_fnz_witness(pd: PartitionDiagram, e: SpacingEmbedding,
                        eq: IntensionalEquation, n: int,
                        names: list[str]) -> Witness:
    """Concrete n-periodic functions on Z, one per name in names, from a
    failing one-block diagram and a spacing embedding of its chain.

    Each variable's counterpart pairs are pushed through the embedding and
    extended periodically; variables with no pairs (among them those that
    do not occur in eq) get the identity.  The evaluations are then
    checked against the diagram, final subword by final subword."""
    fns = {}
    for name in names:
        _, g = pd.blocks.get(name, {}).get(0, (0, PartialFn(())))
        fns[name] = fnz.extend_partial({e(x): e(y) for x, y in g.pairs}, n)
    return _check_realized("FnZ", eq, n, fns, e(pd.phi[()][1]),
                           lambda pt: e(pd.phi[pt][1]))


def realize_lex_witness(pd: PartitionDiagram, e: SpacingEmbedding,
                        eq: IntensionalEquation, n: int,
                        names: list[str]) -> Witness:
    """Concrete functions on the lexicographic chain Q x Z, one per name
    in names, from a failing block-grid diagram and a shared spacing
    embedding of its slot chain.

    Blocks sit at the integer rationals.  A variable's block-level
    injection extends to a piecewise-linear bijection through those
    anchor points, and each of its per-block slot functions extends
    n-periodically under the shared embedding; untouched fibers keep the
    identity component, so a variable with no pairs is the identity.  As
    in the integer case, every evaluation is checked against the diagram
    before the witness is returned."""
    def at(v: tuple[int, int]) -> tuple[Fraction, int]:
        return (Fraction(v[0]), e(v[1]))

    fns = {}
    for name in names:
        per = sorted(pd.blocks.get(name, {}).items())
        tilde = PLBijection(tuple((Fraction(j), Fraction(k))
                                  for j, (k, _) in per))
        comps = tuple(
            (Fraction(j),
             fnz.extend_partial({e(s): e(t) for s, t in g.pairs}, n))
            for j, (_, g) in per)
        fns[name] = LexFn(n, tilde, comps)
    return _check_realized("FnQxZ", eq, n, fns, at(pd.phi[()]),
                           lambda pt: at(pd.phi[pt]))


def verify_witness(eq: Union[Equation, str, list[IntensionalEquation]],
                   w: Witness) -> bool:
    """Re-check a witness by direct evaluation, independent of the search
    that produced it: every joinand of the claimed conjunct must evaluate
    strictly below the witness point.  eq may also be given as its list
    of term.conjuncts, as the deciders do to skip parsing it again.
    Raises KeyError when the assignment is missing a variable of that
    conjunct, and ValueError when an assigned function's period is not
    the witness's."""
    for name, f in w.assignment.items():
        if f.n != w.n:
            raise ValueError(f"malformed witness: {name} has period {f.n}, "
                             f"the witness claims {w.n}")
    conjuncts = eq if isinstance(eq, list) else term.conjuncts(eq)
    if not 0 <= w.conjunct < len(conjuncts):
        return False
    conj = conjuncts[w.conjunct]
    missing = set(term.variables_of([conj])) - set(w.assignment)
    if missing:
        raise KeyError(f"assignment missing variables: {sorted(missing)}")
    ev = SPACES[w.space].algebra.eval_word
    return all(ev(jw, w.assignment, w.point) < w.point
               for jw in conj.joinands)


# ------------------------------------------------------------- the drivers

def _decide(eq: Union[Equation, str], n: int, complete: bool,
            budget: Optional[int], enumerate_failing, realize) -> Verdict:
    if n < 1:
        raise ValueError(f"period must be positive, got {n}")
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    conjuncts = term.conjuncts(eq)
    names = term.variables_of(conjuncts)
    mode = "complete" if complete else "capped"
    if budget is None:
        budget = None if complete else DEFAULT_NODE_BUDGET
    nb = NodeBudget(budget)
    stats = {"failing_candidates": 0, "embeddings_refuted": 0,
             "expansion_conjuncts": 0, "renamed_conjuncts": 0,
             "embed_nodes": 0, "embed_s": 0.0, "periods": []}
    t0 = time.perf_counter()
    live = []  # (index, conjunct rewritten at n) of each one to search
    for ci, conj in enumerate(conjuncts):
        conj = term.reduce_exponents(conj, n)
        if any(term.expands_to_unit(w, n) for w in conj.joinands):
            stats["expansion_conjuncts"] += 1  # holds: a joinand >= 1
        else:
            live.append((ci, conj))

    def search(d: int) -> Optional[Witness]:
        """Search the live conjuncts for a failure at period d, which
        divides n, and return its verified witness, or None once the
        search is exhausted.  Raises BudgetExceeded when nb runs out;
        stats["periods"] gets a record of the search either way."""
        used0, embed0 = nb.used, stats["embed_nodes"]
        rec = {"d": d, "outcome": "exhausted"}
        stats["periods"].append(rec)
        stats["renamed_conjuncts"] = 0  # counts the last search's skips
        decided = set()  # conjunct_key of every conjunct searched so far
        where = "enumeration"
        try:
            for ci, conj in live:
                if d != n:  # a conjunct that holds at n holds at d
                    conj = term.reduce_exponents(conjuncts[ci], d)
                    if any(term.expands_to_unit(w, d) for w in conj.joinands):
                        continue
                key = term.conjunct_key(conj)
                if key in decided:  # renames an earlier one, with no witness
                    stats["renamed_conjuncts"] += 1
                    continue
                decided.add(key)
                for cand in enumerate_failing(conj, nb, d):
                    stats["failing_candidates"] += 1
                    used, t_embed = nb.used, time.perf_counter()
                    where = "embedding"
                    try:
                        emb = spacing.find_witness_embedding(
                            cand.chain, cand.fns, d, node_budget=nb)
                    finally:
                        stats["embed_nodes"] += nb.used - used
                        stats["embed_s"] += time.perf_counter() - t_embed
                    where = "enumeration"
                    if emb is None:
                        stats["embeddings_refuted"] += 1
                        continue
                    w = dataclasses.replace(realize(cand, emb, conj, d, names),
                                            conjunct=ci)
                    if not verify_witness(conjuncts, w):
                        raise AssertionError(
                            "witness failed independent re-verification")
                    rec["outcome"] = FAILS
                    return w
            return None
        except BudgetExceeded:
            rec["outcome"] = where
            raise
        finally:
            rec["embed_nodes"] = stats["embed_nodes"] - embed0
            rec["nodes"] = nb.used - used0 - rec["embed_nodes"]

    def finish(status, witness=None):
        if status == UNKNOWN:
            stats["stopped_by"] = stats["periods"][-1]["outcome"]
        if witness is not None:
            stats["witness_period"] = witness.n
        stats["nodes"] = nb.used - stats["embed_nodes"]
        stats["time_s"] = round(time.perf_counter() - t0, 3)
        stats["embed_s"] = round(stats["embed_s"], 3)
        return Verdict(status, n, mode, witness, stats)

    # a period-1 witness refutes the equation at n.  The slice counts the
    # node that cuts it, and leaves at least half the budget to n
    cut = PERIOD_ONE_SLICE if budget is None else min(PERIOD_ONE_SLICE,
                                                      budget // 2)
    if n > 1 and cut > 0 and live:
        nb.limit = cut - 1
        try:
            w = search(1)
        except BudgetExceeded:
            w = None  # a cut search says nothing about n
        nb.limit = budget
        if w is not None:
            return finish(FAILS, w)
    try:
        w = search(n)
    except BudgetExceeded:
        return finish(UNKNOWN)
    # valid: each candidate was refuted up to the proof bound
    return finish(VALID if w is None else FAILS, w)


def decide_fnz(eq: Union[Equation, str], n: int, complete: bool = False,
               budget: Optional[int] = None) -> Verdict:
    """Decide validity of an equation over the n-periodic functions on Z.

    Every failing candidate gets an embedding search up to the
    re-spacing bound, so valid and fails are both proofs.  One node
    budget bounds the whole search: the point table, the enumeration and
    every embedding search.  When it runs out first the verdict is
    unknown.  Capped mode (the default) sets it to DEFAULT_NODE_BUDGET
    and complete mode to none; an explicit budget applies in either."""
    return _decide(eq, n, complete, budget,
                   enumerate_compatible_surjections, realize_fnz_witness)


def decide_lpn(eq: Union[Equation, str], n: int, complete: bool = False,
               budget: Optional[int] = None) -> Verdict:
    """Decide validity of an equation in the n-periodic variety.

    Candidates are block-grid diagrams; one spacing embedding of the
    shared slot chain must make every block's local function n-periodic
    at once, and a found witness lives on the chain Q x Z with blocks at
    the integer rationals.  Modes and verdicts are as in decide_fnz."""
    return _decide(eq, n, complete, budget,
                   enumerate_partition_diagrams, realize_lex_witness)


def decide_dlp(eq: Union[Equation, str], complete: bool = False,
               budget: Optional[int] = None) -> Verdict:
    """Decide validity in distributive l-pregroups by reduction.

    An equation of symbol count s holds there iff it holds in the
    n-periodic variety for n = 2^s * s^4, computed exactly and reported
    in the verdict.  No part of the run is linear in n: a realized
    function has one step per chain point.  Modes and budgets are as in
    decide_lpn.  Only this period makes a valid verdict a proof about
    DLP.  A fails verdict from decide_lpn at any period also refutes the
    equation in DLP, because LP_n is contained in DLP.  Raises ValueError
    for a size past DLP_MAX_SIZE, before the period is built."""
    eqobj = term.parse(eq) if isinstance(eq, str) else eq
    s = term.equation_size(eqobj)
    if s > DLP_MAX_SIZE:
        raise ValueError(f"equation size {s} is past DLP_MAX_SIZE = "
                         f"{DLP_MAX_SIZE}, too large to build its period")
    return decide_lpn(eqobj, (1 << s) * s ** 4, complete=complete,
                      budget=budget)
