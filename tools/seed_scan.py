"""Seed scan of `cyclogaudin verify --suite all`.

    python3 tools/seed_scan.py [CHECKOUT] [--seeds 0-49] [--T 2 3 4 5] \
        [--output SCAN.json] [--compare OLD.json]

For each seed and each T this runs run_suite("all", ...) in this process
with the configuration `verify --suite all --seed S --T T` builds (every
other RunConfig field at its default), on the cyclogaudin of CHECKOUT
(default: the checkout that holds this script).  It writes one JSON
document: per run the seed, T, whether every case passed, every failing
case with its residual and tolerance, the tightest margin
log10(tol / residual) over the cases with a nonzero residual, with that
case's name, and residuals_sha256, the SHA-256 of
repr(sorted((name, residual))) over every case, so that a residual that
moves in a passing case moves the document too.  A summary line per
failing run goes to stderr.  The document names no checkout, so the
scans of two checkouts compare with cmp; tools/seed_scan.json is the
committed scan of seeds 0-49 at T = 2, 3, 4, 5.

With --compare OLD.json (read before --output is written, so the two may
name one file), the new scan is set against OLD run by run.  Each run
whose residuals moved gets a line: a verdict flip, the failing cases
added to or dropped from its set, the largest relative move
|new - old| / |old| of a residual that fails in both, and the move of the
tightest margin in decades (with the case, when the tightest case
changed).  A summary line gives the number of runs compared, the flips,
the set changes and the largest moves over all runs.  The exit status is
1 on a flip, a set change, or a run of the new scan that OLD lacks,
else 0; runs of OLD outside the new scan's seeds and T are not compared.
"""
from __future__ import annotations

import argparse
import hashlib
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
    ap.add_argument("--T", type=int, nargs="+", default=[2, 3, 4, 5],
                    help="orders T (default 2 3 4 5)")
    ap.add_argument("--output", help="JSON path (default stdout)")
    ap.add_argument("--compare", metavar="OLD",
                    help="set the scan against the scan OLD; exit 1 on a "
                         "verdict flip or a change of a failing set")
    args = ap.parse_args(argv)
    old = None
    if args.compare:
        with open(args.compare) as fh:
            old = json.load(fh)
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
            digest = hashlib.sha256(repr(sorted(
                (c.name, c.residual) for c in rep.cases)).encode()).hexdigest()
            runs.append({"seed": seed, "T": T, "pass": rep.ok,
                         "cases": len(rep.cases), "failing": failing,
                         "tightest_margin": margin, "tightest_case": case,
                         "residuals_sha256": digest})
            if failing:
                names = ", ".join(c["name"] for c in failing)
                print(f"seed {seed} T {T}: fails {names}", file=sys.stderr)
    doc = {"command": "verify --suite all --seed S --T T",
           "runs": runs, "failed_runs": sum(not r["pass"] for r in runs)}
    text = json.dumps(doc, indent=1) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    elif old is None:
        sys.stdout.write(text)
    return 0 if old is None else compare(old, doc)


def compare(old: dict, new: dict) -> int:
    """Print the moves of the scan new against the scan old, run by run,
    and a summary; 1 on a verdict flip, a change of a failing set or a run
    of new that old lacks, else 0 (runs of old that new did not make are
    not compared)."""
    def by_run(doc):
        return {(r["seed"], r["T"]): r for r in doc["runs"]}
    olds, news = by_run(old), by_run(new)
    unmatched = sorted(set(news) - set(olds))
    flips = changed = 0
    first = lambda t: t[0]   # a tie keeps the earlier, a move of 0 no name
    worst_res = (0.0, None)      # (relative move, "seed S T T case")
    worst_margin = (0.0, None)   # (move in decades, "seed S T T")
    for key in sorted(set(olds) & set(news)):
        a, b = olds[key], news[key]
        if a["residuals_sha256"] == b["residuals_sha256"]:
            continue
        run = f"seed {key[0]} T {key[1]}"
        notes = []
        if a["pass"] != b["pass"]:
            flips += 1
            notes.append(f"FLIP pass {a['pass']} -> {b['pass']}")
        fa = {c["name"]: c["residual"] for c in a["failing"]}
        fb = {c["name"]: c["residual"] for c in b["failing"]}
        if set(fa) != set(fb):
            changed += 1
            notes.append("FAILING SET +" + ",".join(sorted(set(fb) - set(fa)))
                         + " -" + ",".join(sorted(set(fa) - set(fb))))
        moves = [(abs(fb[n] - fa[n]) / abs(fa[n]), n) for n in fa
                 if n in fb and fa[n] != 0]
        if moves:
            move, name = max(moves)
            notes.append(f"failing residual {move:.2g} ({name})")
            worst_res = max(worst_res, (move, f"{run} {name}"), key=first)
        ma, mb = a["tightest_margin"], b["tightest_margin"]
        if ma is not None and mb is not None:
            move = abs(mb - ma)
            notes.append(f"tightest margin {move:.2g} decades"
                         + ("" if a["tightest_case"] == b["tightest_case"] else
                            f" ({a['tightest_case']} -> {b['tightest_case']})"))
            worst_margin = max(worst_margin, (move, run), key=first)
        print(f"{run}: " + "; ".join(notes))
    for key in unmatched:
        print(f"seed {key[0]} T {key[1]}: not in the old scan")
    print(f"{len(set(olds) & set(news))} runs compared, {flips} verdict "
          f"flips, {changed} failing-set changes, {len(unmatched)} unmatched; "
          f"largest failing-residual move {worst_res[0]:.2g}"
          + (f" ({worst_res[1]})" if worst_res[1] else "")
          + f", largest tightest-margin move {worst_margin[0]:.2g} decades"
          + (f" ({worst_margin[1]})" if worst_margin[1] else ""))
    return 1 if flips or changed or unmatched else 0


if __name__ == "__main__":
    sys.exit(main())
