"""Outside-in tracing of the library's layers, from the benchmark's side.

Tracing replaces, for the length of a traced phase, the module attributes
through which the library's own callers look up each layer's public entry
points, so every call is timed where it crosses a layer boundary.  Nothing
under src/ changes.

A span holds a name, a start, an end, the index of the span that caused
it and the decision it belongs to.  Spans are kept in memory and written
out once, at the end of the run.  The hottest leaf calls (eval_word) are
folded into their parent instead of getting a span each: their count and
time are added to the parent, which keeps memory flat on crosscheck and
leaves self times unchanged, because a leaf covers only its own interval.

A layer is the module part of a span name ("search.next" is in layer
"search"), and a layer's self time is the time its spans cover minus the
part of it that their child spans cover.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

from lpregroup import decide, fnz, lexfn, oracle, search, spacing, term
from lpregroup.diagram import BudgetExceeded


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    decision: int
    folded_s: float = 0.0  # time of folded leaf calls made inside this span


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.end - s.start - s.folded_s
            - _covered(children.get(i, ()), s.start, s.end)
            for i, s in enumerate(spans)]


def layer_self_times(spans: list[Span], folded: dict[str, float]
                     ) -> Counter:
    """Self time per layer; folded leaf time counts for the leaf's layer."""
    out: Counter = Counter()
    for s, t in zip(spans, self_times(spans)):
        out[layer_of(s.name)] += t
    for name, t in folded.items():
        out[layer_of(name)] += t
    return out


class Tracer:
    """Collects spans and counters while installed.

    Calls made outside a root span (the benchmark's own correctness checks)
    pass through unrecorded."""

    FOLD = ("fnz.eval_word", "lexfn.eval_word")

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.decision = -1
        # per decision: counters, and the embedding problems seen so far
        self.counts: dict[int, Counter] = {}
        self.folded: Counter = Counter()
        self._seen: dict[int, set] = {}
        self._restore: list = []

    # ---------------------------------------------------------- recording

    def count(self, name: str, k: int = 1):
        self.counts.setdefault(self.decision, Counter())[name] += k

    @contextmanager
    def root(self, name: str, decision: int):
        """The span of one whole decision; spans inside it are recorded."""
        self.decision = decision
        with self.span(name):
            yield

    @contextmanager
    def span(self, name: str):
        parent = self.stack[-1] if self.stack else None
        idx = len(self.spans)
        s = Span(name, time.perf_counter(), 0.0, parent, self.decision)
        self.spans.append(s)
        self.stack.append(idx)
        try:
            yield
        finally:
            s.end = time.perf_counter()
            self.stack.pop()

    def leaf(self, name: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self.spans[self.stack[-1]].folded_s += dt
            self.folded[name] += dt
            self.count(name + ".calls")

    # -------------------------------------------------------- the wrappers

    def _wrap(self, module, attr: str, name: str, after=None):
        fn = getattr(module, attr)
        fold = name in self.FOLD

        def wrapper(*args, **kwargs):
            if not self.stack:
                return fn(*args, **kwargs)
            if fold:
                return self.leaf(name, fn, *args, **kwargs)
            with self.span(name):
                out = fn(*args, **kwargs)
            self.count(name + ".calls")
            if after:
                after(out)
            return out

        self._patch(module, attr, wrapper)

    def _patch(self, module, attr, value):
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def _wrap_generator(self, module, attr: str, name: str):
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            if not self.stack:
                return it

            def timed():
                while True:
                    with self.span(name):
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                    self.count("search.candidates")
                    yield item
            return timed()

        self._patch(module, attr, wrapper)

    def _embed(self, chain, fns, n, cap=None, node_budget=None):
        if not self.stack:
            return self._find(chain, fns, n, cap=cap, node_budget=node_budget)
        fns = list(fns.values()) if hasattr(fns, "values") else list(fns)
        key = (chain, frozenset(g.pairs for g in fns), n, cap)
        seen = self._seen.setdefault(self.decision, set())
        if key not in seen:
            seen.add(key)
            self.count("spacing.distinct")
        self.count("spacing.calls")
        try:
            with self.span("spacing.find_witness_embedding"):
                e = self._find(chain, fns, n, cap=cap,
                               node_budget=node_budget)
        except BudgetExceeded:
            self.count("spacing.capped")
            raise
        self.count("spacing.refuted" if e is None else "spacing.found")
        return e

    def install(self):
        """Wrap every layer entry point at the name its caller looks up."""
        self._wrap(term, "parse", "term.parse")
        self._wrap(term, "to_intensional", "term.to_intensional",
                   after=lambda out: self.count(
                       "term.conjuncts", len(out)))
        self._wrap(search, "delta_epsilon", "term.delta_epsilon",
                   after=lambda out: self.count(
                       "term.points", len(out)))
        for attr in ("enumerate_compatible_surjections",
                     "enumerate_partition_diagrams"):
            self._wrap_generator(decide, attr, "search.next")
        self._find = spacing.find_witness_embedding
        self._patch(spacing, "find_witness_embedding", self._embed)
        for attr in ("realize_fnz_witness", "realize_lex_witness"):
            self._wrap(decide, attr, "decide.realize")
        self._wrap(decide, "verify_witness", "decide.verify")
        self._wrap(fnz, "eval_word", "fnz.eval_word")
        self._wrap(lexfn, "eval_word", "lexfn.eval_word")
        for attr in ("search_counterexample_fnz",
                     "search_counterexample_lex"):
            self._wrap(oracle, attr, "oracle.search",
                       after=lambda out: self.count(
                           "oracle.hits", out is not None))

    def uninstall(self):
        while self._restore:
            module, attr, value = self._restore.pop()
            setattr(module, attr, value)

    # ------------------------------------------------------------ results

    def totals(self) -> Counter:
        out: Counter = Counter()
        for c in self.counts.values():
            out.update(c)
        return out
