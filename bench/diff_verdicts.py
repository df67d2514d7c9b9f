"""Compare the verdicts in two benchmark results, e.g. of two commits:

    python3 bench/diff_verdicts.py OLD.json NEW.json

The results are the files run.py writes to bench/out/.  An equation
answered "valid" in one and "fails" in the other is a flip; the script
lists every flip and exits 1 if there is one.  "unknown" flips nothing.
"""

import json
import sys


def _answers(verdicts) -> dict:
    out: dict = {}
    for v in verdicts:
        if v["status"] in ("valid", "fails"):
            out.setdefault((v["theory"], v["eq"], v["n"]), set()).add(
                v["status"])
    return out


def flips(old, new) -> list:
    """Equations answered both valid and fails across the two lists."""
    a, b = _answers(old), _answers(new)
    return sorted(k for k in a.keys() & b.keys() if len(a[k] | b[k]) > 1)


def main(argv) -> int:
    old, new = (json.loads(open(p).read())["verdicts"] for p in argv[1:3])
    found = flips(old, new)
    for theory, eq, n in found:
        print(f"flip: {theory} n={n} {eq}")
    print(f"{len(found)} flips")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
