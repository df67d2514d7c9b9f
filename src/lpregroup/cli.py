"""Command-line front end.

Four subcommands:

  decide     run a decision procedure and print a verdict envelope as JSON
  verify     re-check a stored witness file against an equation
  normalize  print an equation's intensional conjuncts, one per line
  oracle     brute-force counterexample search, witness or null as JSON

Exit codes follow the verdicts: 0 valid (or verified, or oracle came up
empty), 1 fails (or witness found), 2 budget exhausted, 3 for any parse
or configuration problem, 4 for an internal error (its traceback goes to
stderr; no verdict is reported).  decide defaults to capped mode, which
never claims validity unless the candidate stream was provably exhausted;
pass --complete for a proof-strength run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
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


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="lpregroup",
                description="decision procedures and counterexample "
                            "search for periodic l-pregroup equations")
    sub = p.add_subparsers(dest="cmd", required=True)

    d = sub.add_parser("decide", help="decide an equation")
    d.add_argument("equation")
    d.add_argument("--theory", required=True, choices=("dlp", "lpn", "fnz"))
    d.add_argument("--n", type=int,
                   help="period (required for lpn and fnz)")
    d.add_argument("--complete", action="store_true",
                   help="exhaust the search space; both answers are proofs")
    d.add_argument("--budget", type=int,
                   help="search node budget (default: capped-mode preset)")
    d.add_argument("--force", action="store_true",
                   help="dlp only: allow a complete run past the "
                        "practicality threshold")
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
    o.add_argument("--n", type=int, required=True)
    o.add_argument("--budget", type=int, default=oracle.DEFAULT_BUDGET,
                   help="assignments to try")
    o.add_argument("--seed", type=int,
                   help="RNG seed (default: LPG_SEED or 0)")
    o.set_defaults(fn=_cmd_oracle)
    return p


def _print_json(data) -> None:
    print(json.dumps(data, indent=2))


def _cmd_decide(args) -> int:
    if args.complete and (args.theory == "dlp" or (args.n or 0) > 3):
        print("warning: complete mode proves every refutation up to the "
              "re-spacing bound; wall-clock time grows steeply with the "
              "period", file=sys.stderr)
    if args.theory == "dlp":
        if args.n is not None:
            raise _UsageError("--theory dlp computes its own period; "
                              "use --theory lpn --n N to decide at another")
        verdict = decide.decide_dlp(
            args.equation, complete=args.complete, budget=args.budget,
            force=args.force)
    else:
        if args.n is None:
            raise _UsageError(f"--theory {args.theory} requires --n")
        proc = decide.decide_fnz if args.theory == "fnz" else decide.decide_lpn
        verdict = proc(args.equation, args.n, complete=args.complete,
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
    with open(args.witness) as fh:
        data = json.load(fh)
    if isinstance(data, dict) and isinstance(data.get("witness"), dict):
        data = data["witness"]
    w = decide.witness_from_json(data)
    try:
        ok = decide.verify_witness(args.equation, w)
        reason = None if ok else "some joinand is not below the point"
    except KeyError as e:
        ok, reason = False, f"malformed witness: {e}"
    out = {"equation": args.equation, "verified": ok}
    if reason:
        out["reason"] = reason
    _print_json(out)
    return 0 if ok else 1


def _cmd_normalize(args) -> int:
    eq = term.parse(args.equation)
    for conj in term.to_intensional(eq):
        print(conj)
    return 0


def _cmd_oracle(args) -> int:
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("LPG_SEED", "0"))
    search = (oracle.search_counterexample_fnz if args.theory == "fnz"
              else oracle.search_counterexample_lex)
    w = search(args.equation, args.n, budget=args.budget, seed=seed)
    _print_json({
        "theory": args.theory,
        "n": args.n,
        "equation": args.equation,
        "budget": args.budget,
        "seed": seed,
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
    except (ValueError, OSError, KeyError) as e:
        # covers equation parse errors, bad periods, the dlp practicality
        # refusal, unreadable or malformed witness files
        print(f"error: {e}", file=sys.stderr)
        return 3
    except Exception:
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
