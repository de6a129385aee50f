"""Seed scan of `cyclogaudin verify --suite all`.

    python3 tools/seed_scan.py [CHECKOUT] [--seeds 0-49] [--T 2 3 4] \
        [--output SCAN.json]

For each seed and each T this runs run_suite("all", ...) in this process
with the configuration `verify --suite all --seed S --T T` builds (every
other RunConfig field at its default), on the cyclogaudin of CHECKOUT
(default: the checkout that holds this script).  It writes one JSON
document: per run the seed, T, whether every case passed, every failing
case with its residual and tolerance, and the tightest margin
log10(tol / residual) over the cases with a nonzero residual, with that
case's name.  A summary line per failing run goes to stderr.  The
document names no checkout, so the scans of two checkouts compare with
cmp; tools/seed_scan.json is the committed scan of seeds 0-49 at
T = 2, 3, 4.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(spec: str) -> list:
    """'0-49' or '3' or '1,4,9' to a list of seeds."""
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout", nargs="?", default=os.path.dirname(HERE),
                    help="checkout to scan (default: this one)")
    ap.add_argument("--seeds", default="0-49",
                    help="seeds as 'A-B', 'A,B,C' or a mix (default 0-49)")
    ap.add_argument("--T", type=int, nargs="+", default=[2, 3, 4],
                    help="orders T (default 2 3 4)")
    ap.add_argument("--output", help="JSON path (default stdout)")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.join(os.path.abspath(args.checkout), "src"))
    from cyclogaudin.suites import RunConfig, run_suite

    runs = []
    for T in args.T:
        for seed in _seeds(args.seeds):
            rep = run_suite("all", RunConfig(seed=seed, T=T))
            failing = [{"name": c.name, "residual": c.residual, "tol": c.tol}
                       for c in sorted(rep.cases, key=lambda c: c.name)
                       if not c.ok]
            margins = [(math.log10(c.tol / c.residual), c.name)
                       for c in rep.cases if c.residual > 0]
            margin, case = min(margins) if margins else (None, None)
            runs.append({"seed": seed, "T": T, "pass": rep.ok,
                         "cases": len(rep.cases), "failing": failing,
                         "tightest_margin": margin, "tightest_case": case})
            if failing:
                names = ", ".join(c["name"] for c in failing)
                print(f"seed {seed} T {T}: fails {names}", file=sys.stderr)
    doc = {"command": "verify --suite all --seed S --T T",
           "runs": runs, "failed_runs": sum(not r["pass"] for r in runs)}
    text = json.dumps(doc, indent=1) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
