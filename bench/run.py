"""Decision benchmark: time to a correct verdict, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload against the library in this process, as one closed-loop
caller (jobs=1): the next decision starts only when the previous one has
returned.  Workloads (see BENCHMARK.json for why each exists):

  prove-search  complete mode, known-valid rows where enumeration is the cost
  prove-embed   complete mode, known-valid rows with thousands of refuted
                embedding problems
  refute        capped mode on seeded random equations
  crosscheck    the brute-force oracle on seeded random equations

The fixed rows are decided in a seeded order, cycling until every row has
run (on prove-search, twice) and the time is up; the random workloads draw from a seeded pool until
the time is up.  Every verdict is checked as it returns, outside its timed
region (see check()); a decision that raises, overruns its limit or is
wrong counts as failed, and none is retried or dropped.

With --trace 0 the last line carries the end-to-end metrics, measured with
tracing off.  With --trace 1 the same cases run twice, untraced and then
traced (tracing.py), and the last line carries the per-layer metrics.  The
full result, with every verdict and, when traced, every span, is written to
bench/out/.  --setup-only does the set-up alone and exits; the runner times
fresh interpreters doing that to give setup_s.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
sys.path.insert(0, str(ROOT / "src"))

import lpregroup  # noqa: E402

if Path(lpregroup.__file__).resolve().parent != ROOT / "src" / "lpregroup":
    sys.exit(f"lpregroup must come from {ROOT / 'src'}, "
             f"found {lpregroup.__file__}")

from lpregroup import decide, oracle, term  # noqa: E402

import metrics  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Tracer, layer_self_times, self_times  # noqa: E402

# Capped-mode node budget per refute decision.  It bounds the budget-bound
# tail (valid equations capped mode cannot prove) to well under a second,
# so a run holds thousands of decisions and its percentiles hold still from
# seed to seed; at the library default one such decision takes ~10 s.
REFUTE_BUDGET = 20_000
# assignments per crosscheck search; a miss costs the whole budget
ORACLE_BUDGET = 30
# assignments the oracle gets to refute a capped-mode "valid"
CHECK_BUDGET = 50
SETUP_REPEATS = 5
SETUP_LIMIT_S = 60.0
POOL = {"refute": 6_000, "crosscheck": 12_000}
# a random workload's "full pass" is this many draws
PASS_SIZE = {"refute": 1_000, "crosscheck": 200}
DECIDED = (decide.VALID, decide.FAILS, "witness")


class Overrun(Exception):
    pass


def _alarm(signum, frame):
    raise Overrun


@contextmanager
def time_limit(seconds: float):
    """Raise Overrun in the main thread once `seconds` have passed."""
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


# ---------------------------------------------------------------- workloads

def _decider(case: wl.Case):
    return decide.decide_fnz if case.theory == "fnz" else decide.decide_lpn


def _oracle(case: wl.Case):
    if case.theory == "fnz":
        return oracle.search_counterexample_fnz
    return oracle.search_counterexample_lex


def _prove(case):
    return _decider(case)(case.eq, case.n, complete=True)


def _refute(case):
    return _decider(case)(case.eq, case.n, budget=REFUTE_BUDGET)


def _crosscheck(case):
    return _oracle(case)(case.eq, case.n, budget=ORACLE_BUDGET, seed=case.seed)


@dataclass(frozen=True)
class Workload:
    name: str
    cases: Callable[[int], list]
    call: Callable  # one decision, through the library's module attributes
    root: str  # name of the span around one decision
    limit_s: float  # per-decision time limit
    fixed: bool  # fixed rows (cycled) rather than a pool of random draws
    passes: int = 1  # fixed rows: run every row at least this many times


WORKLOADS = {w.name: w for w in (
    # two rows of ~8 s and one of ~2 s: each row runs twice so that its
    # median is not a single sample of a ~10% per-decision noise
    Workload("prove-search", lambda s: wl.prove_cases(wl.PROVE_SEARCH, s),
             _prove, "decide.run", 60.0, True, passes=2),
    Workload("prove-embed", lambda s: wl.prove_cases(wl.PROVE_EMBED, s),
             _prove, "decide.run", 60.0, True),
    Workload("refute", lambda s: wl.random_cases(s, POOL["refute"]),
             _refute, "decide.run", 20.0, False),
    Workload("crosscheck", lambda s: wl.random_cases(s, POOL["crosscheck"]),
             _crosscheck, "oracle.run", 20.0, False),
)}


# ------------------------------------------------------------------ running

@dataclass
class Record:
    index: int  # position of the case in the workload's case list
    case: wl.Case
    seconds: float
    status: str  # a verdict, "witness" / "none" for the oracle, or "error"
    result: object = None
    nodes: int = 0
    candidates: int = 0
    failure: str | None = None


def run_one(w: Workload, index: int, case, tracer: Tracer | None = None,
            decision: int = 0) -> Record:
    """One timed decision.  Errors become failed records, never retries."""
    failure = None
    t0 = time.perf_counter()
    try:
        with time_limit(w.limit_s):
            if tracer is None:
                out = w.call(case)
            else:
                with tracer.root(w.root, decision):
                    out = w.call(case)
    except Overrun:
        out, failure = None, f"overran the {w.limit_s:g} s limit"
    except Exception as e:  # counted as a failed attempt and reported
        out, failure = None, f"raised {type(e).__name__}: {e}"
    dt = time.perf_counter() - t0
    rec = Record(index, case, dt, "error", out, failure=failure)
    if failure is None and dt > w.limit_s:
        rec.failure = f"overran the {w.limit_s:g} s limit"
    if isinstance(out, decide.Verdict):
        rec.status = out.status
        rec.nodes = out.stats["nodes"]
        rec.candidates = out.stats["failing_candidates"]
    elif failure is None:
        rec.status = "none" if out is None else "witness"
    return rec


def measure(w: Workload, cases: list, seconds: float) -> list[Record]:
    """Closed loop until `seconds` have passed (fixed rows: and every row
    has run `passes` times).  A random pool that runs dry ends the loop
    early."""
    records: list[Record] = []
    deadline = time.perf_counter() + seconds
    order = itertools.cycle(enumerate(cases)) if w.fixed \
        else enumerate(cases)
    least = len(cases) * w.passes if w.fixed else 1
    oracle_says: dict = {}
    for i, case in order:
        if len(records) >= least and time.perf_counter() >= deadline:
            break
        records.append(run_one(w, i, case))
        check(records[-1], oracle_says)
    return records


def replay(w: Workload, records: list[Record], tracer: Tracer
           ) -> list[Record]:
    """The same decisions again, traced."""
    out: list[Record] = []
    oracle_says: dict = {}
    for k, r in enumerate(records):
        out.append(run_one(w, r.index, r.case, tracer, decision=k))
        check(out[-1], oracle_says)
    return out


# ----------------------------------------------------------------- checking

def check(r: Record, oracle_says: dict):
    """Mark a wrong answer, then drop the result object.  Runs as each
    decision returns, outside its timed region.

    A known answer must be met.  Every fails witness and every oracle
    witness must pass decide.verify_witness.  A capped "valid" must survive
    an oracle search (memoized in `oracle_says` per equation)."""
    if not r.failure:
        try:
            r.failure = _wrong(r, oracle_says)
        except Exception as e:  # a check that cannot run is a failure too
            r.failure = f"check raised {type(e).__name__}: {e}"
    r.result = None


def _wrong(r: Record, oracle_says: dict) -> str | None:
    c = r.case
    if c.known:
        return None if r.status == c.known \
            else f"expected {c.known}, got {r.status}"
    if r.status in (decide.FAILS, "witness"):
        witness = r.result.witness if r.status == decide.FAILS else r.result
        if not decide.verify_witness(c.eq, witness):
            return "witness fails re-verification"
    elif r.status == decide.VALID:
        key = (c.theory, c.eq, c.n)
        if key not in oracle_says:
            oracle_says[key] = _oracle(c)(c.eq, c.n, budget=CHECK_BUDGET)
        if oracle_says[key] is not None:
            return "oracle refutes a valid verdict"
    return None


def mark_flips(records: list[Record]):
    """One equation decided both valid and fails in a run is a flip, and
    all its records fail."""
    seen: dict = {}
    for r in records:
        if r.status in (decide.VALID, decide.FAILS):
            seen.setdefault((r.case.theory, r.case.eq, r.case.n),
                            set()).add(r.status)
    for r in records:
        if len(seen.get((r.case.theory, r.case.eq, r.case.n), ())) > 1:
            r.failure = r.failure or "verdict flip within the run"


# ------------------------------------------------------------------ metrics

def case_times(w: Workload, records: list[Record]) -> list[float]:
    """One time per case: a fixed row's median over its repeats, or each
    random draw's own time."""
    if not w.fixed:
        return [r.seconds for r in records]
    by_case: dict[int, list] = {}
    for r in records:
        by_case.setdefault(r.index, []).append(r.seconds)
    return [statistics.median(v) for _, v in sorted(by_case.items())]


def wall(w: Workload, records: list[Record]) -> float:
    """One full pass: every fixed row once, or PASS_SIZE random draws at
    this run's mean time per draw."""
    times = case_times(w, records)
    if w.fixed:
        return sum(times)
    return PASS_SIZE[w.name] * statistics.fmean(times)


def end_to_end(w: Workload, records: list[Record], setup: list[float]
               ) -> dict:
    times = case_times(w, records)
    tail_s, _, _ = metrics.tail(times)
    decided = sum(r.status in DECIDED for r in records) / len(records)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall(w, records), "s"),
        "verdict_p50_s": (statistics.median(times), "s"),
        "verdict_tail_s": (tail_s, "s"),
        "verdict_geomean_s": (metrics.geomean(times), "s"),
        "decided_frac": (decided, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }


LAYERS = ("term", "search", "spacing", "decide", "fnz", "lexfn", "oracle")


def per_layer(w: Workload, tracer: Tracer, traced: list[Record],
              untraced: list[Record]) -> dict:
    tot = tracer.totals()
    layer_s = layer_self_times(tracer.spans, tracer.folded)
    inclusive: dict[str, float] = {}
    for s in tracer.spans:
        inclusive[s.name] = inclusive.get(s.name, 0.0) + s.end - s.start
    root_s = sum(s.end - s.start for s in tracer.spans if s.parent is None)
    # decide.self_s: the deciders' own time, outside every child layer
    run_self_s = sum(t for s, t in zip(tracer.spans, self_times(tracer.spans))
                     if s.name == "decide.run")
    nodes = sum(r.nodes for r in traced)
    cands = tot["search.candidates"]
    calls = tot["spacing.calls"]
    out = {
        "search.nodes": (nodes, "count"),
        "search.candidates": (cands, "count"),
        "search.self_s": (layer_s["search"], "s"),
        "search.nodes_per_s": (nodes / layer_s["search"]
                               if layer_s["search"] > 0 else 0.0, "1/s"),
        "search.candidate_yield": (cands / nodes if nodes else 0.0, "ratio"),
        "spacing.calls": (calls, "count"),
        "spacing.distinct": (tot["spacing.distinct"], "count"),
        "spacing.distinct_frac": (tot["spacing.distinct"] / calls
                                  if calls else 0.0, "ratio"),
        "spacing.refuted": (tot["spacing.refuted"], "count"),
        "spacing.found": (tot["spacing.found"], "count"),
        "spacing.capped": (tot["spacing.capped"], "count"),
        "spacing.self_s": (layer_s["spacing"], "s"),
        "term.calls": (tot["term.parse.calls"]
                       + tot["term.to_intensional.calls"]
                       + tot["term.delta_epsilon.calls"], "count"),
        "term.self_s": (layer_s["term"], "s"),
        "term.conjuncts": (tot["term.conjuncts"], "count"),
        "term.points": (tot["term.points"], "count"),
        "decide.realize.calls": (tot["decide.realize.calls"], "count"),
        "decide.realize_s": (inclusive.get("decide.realize", 0.0), "s"),
        "decide.verify.calls": (tot["decide.verify.calls"], "count"),
        "decide.verify_s": (inclusive.get("decide.verify", 0.0), "s"),
        "decide.self_s": (run_self_s, "s"),
        "decide.unknown": (sum(r.status == decide.UNKNOWN for r in traced),
                           "count"),
        "fnz.eval_word.calls": (tot["fnz.eval_word.calls"], "count"),
        "fnz.eval_word_s": (tracer.folded["fnz.eval_word"], "s"),
        "lexfn.eval_word.calls": (tot["lexfn.eval_word.calls"], "count"),
        "lexfn.eval_word_s": (tracer.folded["lexfn.eval_word"], "s"),
        "oracle.calls": (tot["oracle.search.calls"], "count"),
        "oracle.self_s": (layer_s["oracle"], "s"),
        "oracle.hits": (tot["oracle.hits"], "count"),
        "trace.overhead_s": (wall(w, traced) - wall(w, untraced), "s"),
    }
    for layer in LAYERS:
        out[f"{layer}.share"] = (layer_s[layer] / root_s if root_s else 0.0,
                                 "ratio")
    return out


# ------------------------------------------------------------------- set-up

def setup_only(w: Workload, seed: int) -> list:
    """Generate the workload's inputs and parse each one, as a check that
    they are well formed; the library still receives the text."""
    cases = w.cases(seed)
    for c in cases:
        term.parse(c.eq)
    return cases


def time_setup(name: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import lpregroup and set up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", name, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd)
        try:
            # a blocking wait: Popen.wait(timeout) polls in 50 ms steps
            with time_limit(SETUP_LIMIT_S):
                code = proc.wait()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        times.append(time.perf_counter() - t0)
        if code:
            raise subprocess.CalledProcessError(code, cmd)
    return times


# ------------------------------------------------------------------- output

def _git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "lpregroup").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def stamp(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "jobs": 1,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "platform": platform.platform(), "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def _row(r: Record, counts=None) -> dict:
    row = {"theory": r.case.theory, "eq": r.case.eq, "n": r.case.n,
           "status": r.status, "seconds": round(r.seconds, 6),
           "nodes": r.nodes, "candidates": r.candidates}
    if counts is not None:
        row["spacing.calls"] = counts.get("spacing.calls", 0)
        row["spacing.distinct"] = counts.get("spacing.distinct", 0)
    if r.failure:
        row["failure"] = r.failure
    return row


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    if args.setup_only:
        setup_only(w, args.seed)
        return 0

    setup = [] if args.trace else time_setup(w.name, args.seed)
    cases = setup_only(w, args.seed)
    tracer = None
    if args.trace:
        # untraced, then the same decisions traced (fixed rows: one pass
        # each); the difference is the tracing overhead
        untraced = measure(dataclasses.replace(w, passes=1), cases,
                           0 if w.fixed else args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = replay(w, untraced, tracer)
        finally:
            tracer.uninstall()
        records = untraced + traced
        shown = traced
    else:
        records = shown = measure(w, cases, args.seconds)
    mark_flips(records)
    if args.trace:
        result = per_layer(w, tracer, traced, untraced)
    else:
        result = end_to_end(w, records, setup)

    failed = [r for r in records if r.failure]
    info = {"stamp": stamp(args), "attempted": len(records),
            "failed": len(failed),
            "failed_frac": len(failed) / len(records),
            "tail": dict(zip(("seconds", "percentile", "samples"),
                             metrics.tail(case_times(w, shown)))),
            "setup_runs_s": setup,
            "pool_exhausted": not w.fixed and len(shown) == len(cases)}
    print("# " + json.dumps(info))
    if w.fixed:
        for k, r in enumerate(shown):
            counts = tracer.counts.get(k, {}) if tracer else None
            print("# row " + json.dumps(_row(r, counts)))
    for r in failed[:20]:
        print("# failed " + json.dumps(_row(r)))

    OUT.mkdir(parents=True, exist_ok=True)
    full = dict(info, metrics={k: v for k, (v, _) in result.items()},
                verdicts=[_row(r) for r in records])
    if tracer:
        full["spans"] = [[s.name, s.start, s.end, s.parent, s.decision,
                          s.folded_s] for s in tracer.spans]
    path = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(full))

    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in result.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
