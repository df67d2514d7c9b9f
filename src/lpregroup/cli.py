"""Command-line front end.

Four subcommands:

  decide     run a decision procedure and print a verdict envelope as JSON
  verify     re-check a stored witness file against an equation
  normalize  print an equation's intensional conjuncts, one per line
  oracle     brute-force counterexample search, witness or null as JSON

Exit codes follow the verdicts: 0 valid (or verified, or oracle came up
empty), 1 fails (or witness found), 2 budget exhausted, 3 for any parse
or configuration problem, 4 for an internal error (its traceback goes to
stderr; no verdict is reported).  Input errors are caught where the
input is read; an error raised anywhere else is internal.  A reader that
closes stdout early does not change the exit code.  decide defaults to
capped mode, which says unknown when its node budget runs out first;
--complete drops the budget (--budget still bounds the whole search).
In both modes valid and fails are proofs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback
from contextlib import contextmanager
from typing import Optional

from . import decide, oracle, term


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage, but 2 is taken by budget-exhausted
    # verdicts; route usage problems to exit 3 instead
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


@contextmanager
def _reading_input():
    """Report a bad input read inside the block as a usage error."""
    try:
        yield
    except (ValueError, OSError, KeyError) as e:
        raise _UsageError(str(e)) from e


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="lpregroup",
                description="decision procedures and counterexample "
                            "search for periodic l-pregroup equations")
    sub = p.add_subparsers(dest="cmd", required=True)

    d = sub.add_parser("decide", help="decide an equation")
    d.add_argument("equation")
    d.add_argument("--theory", required=True, choices=("dlp", "lpn", "fnz"))
    d.add_argument("--n", type=_int_at_least(1),
                   help="period (required for lpn and fnz)")
    d.add_argument("--complete", action="store_true",
                   help="drop the node budget (--budget still bounds "
                        "the whole search)")
    d.add_argument("--budget", type=_int_at_least(0),
                   help="node budget of the whole search: point table, "
                        "enumeration and embedding searches (default: "
                        "capped-mode preset)")
    d.set_defaults(fn=_cmd_decide)

    v = sub.add_parser("verify", help="re-check a witness file")
    v.add_argument("witness", help="witness JSON (or a whole decide "
                                   "envelope containing one)")
    v.add_argument("equation")
    v.set_defaults(fn=_cmd_verify)

    nm = sub.add_parser("normalize",
                        help="print the intensional conjuncts")
    nm.add_argument("equation")
    nm.set_defaults(fn=_cmd_normalize)

    o = sub.add_parser("oracle", help="brute-force counterexample search")
    o.add_argument("equation")
    o.add_argument("--theory", required=True, choices=("fnz", "lex"))
    o.add_argument("--n", type=_int_at_least(1), required=True)
    o.add_argument("--budget", type=_int_at_least(0),
                   default=oracle.DEFAULT_BUDGET,
                   help="assignments to try")
    o.add_argument("--seed", type=int, default=0,
                   help="RNG seed (default: 0)")
    o.set_defaults(fn=_cmd_oracle)
    return p


def _emit(text: str) -> None:
    """Write text to stdout.  If the reader has closed the pipe (`| head`),
    the rest of the output, the flush at exit included, goes to the null
    device, and the command's exit code stands."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _print_json(data) -> None:
    _emit(json.dumps(data, indent=2) + "\n")


def _cmd_decide(args) -> int:
    if args.complete and args.budget is None:
        print("warning: complete mode runs every search without a budget; "
              "pass --budget to bound it",
              file=sys.stderr)
    if args.theory == "dlp":
        if args.n is not None:
            raise _UsageError("--theory dlp computes its own period; "
                              "use --theory lpn --n N to decide at another")
    elif args.n is None:
        raise _UsageError(f"--theory {args.theory} requires --n")
    with _reading_input():
        eq = term.parse(args.equation)
    if args.theory == "dlp":
        # the envelope prints the period 2^s * s^4 in full, which Python
        # refuses past its int-to-str limit (absent before 3.10.7).  Its
        # digits are counted in floats up to size 4 * limit + 1, where 2^s
        # alone is past the limit; beyond, s * log10(2) could overflow.
        s = term.equation_size(eq)
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        t = min(s, 4 * limit + 1)
        digits = math.floor(t * math.log10(2) + 4 * math.log10(t)) + 1
        if 0 < limit < digits:
            raise _UsageError(
                f"--theory dlp: the period 2^s * s^4 at size s = {s} has "
                f"{'' if t == s else 'at least '}{digits} digits, more than "
                f"sys.get_int_max_str_digits() = {limit} lets the verdict "
                f"print")
        if s > decide.DLP_MAX_SIZE:
            raise _UsageError(f"--theory dlp: size s = {s} is past "
                              f"decide.DLP_MAX_SIZE = {decide.DLP_MAX_SIZE}")
        verdict = decide.decide_dlp(eq, complete=args.complete,
                                    budget=args.budget)
    else:
        proc = (decide.decide_fnz if args.theory == "fnz"
                else decide.decide_lpn)
        verdict = proc(eq, args.n, complete=args.complete,
                       budget=args.budget)
    _print_json({
        "theory": args.theory,
        "n": verdict.n,
        "equation": args.equation,
        "mode": verdict.mode,
        "verdict": verdict.status,
        "witness": verdict.witness.to_json() if verdict.witness else None,
        "stats": verdict.stats,
    })
    return verdict.exit_code


def _cmd_verify(args) -> int:
    with _reading_input():
        eq = term.parse(args.equation)
        with open(args.witness) as fh:
            data = json.load(fh)
        if isinstance(data, dict) and "witness" in data:  # an envelope
            data = data["witness"]
            if data is None:
                raise ValueError(f"{args.witness} holds no witness")
        w = decide.witness_from_json(data)
        conjuncts = term.conjuncts(eq)
        if not 0 <= w.conjunct < len(conjuncts):
            ok, reason = False, (f"conjunct {w.conjunct} out of range: the "
                                 f"equation has {len(conjuncts)} conjuncts")
        else:
            try:
                ok = decide.verify_witness(conjuncts, w)
                reason = None if ok else "some joinand is not below the point"
            except KeyError as e:
                ok, reason = False, f"malformed witness: {e}"
    out = {"equation": args.equation, "verified": ok}
    if reason:
        out["reason"] = reason
    _print_json(out)
    return 0 if ok else 1


def _cmd_normalize(args) -> int:
    with _reading_input():
        eq = term.parse(args.equation)
    _emit("".join(f"{conj}\n" for conj in term.to_intensional(eq)))
    return 0


def _cmd_oracle(args) -> int:
    with _reading_input():
        eq = term.parse(args.equation)
    search = (oracle.search_counterexample_fnz if args.theory == "fnz"
              else oracle.search_counterexample_lex)
    w = search(eq, args.n, budget=args.budget, seed=args.seed)
    _print_json({
        "theory": args.theory,
        "n": args.n,
        "equation": args.equation,
        "budget": args.budget,
        "seed": args.seed,
        "witness": w.to_json() if w else None,
    })
    return 1 if w else 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except SystemExit as e:  # argparse --help
        return int(e.code or 0)
    except Exception:
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
