"""Alternating paired benchmark runs of two checkouts.

    python3 tools/bench_pairs.py PARENT CHANGE --pairs commute_sweep=10 \
        --pairs simulate_csv=3 [--seed N] [--output BENCH.json]

For each workload W and each of its N pairs, this runs

    python3 perfbench/run.py --workload W --trace 0 [--seed N]

once in each checkout, alternating which side goes first from one pair
to the next, and keeps the result line of every run.  --seed is passed
on only when it is given, so that a claim can be rechecked on a seed
other than the benchmark's default.  Per end-to-end metric of the
change's BENCHMARK.json it reports each side's median and quartiles
(inclusive method), how many pairs the change won and tied,
and whether a gain claim holds: the change must win at least 9 in 10 of
the pairs (a tie counts for neither side) and its median must beat the
parent's by more than the distance between the parent's quartiles.  The
report also holds each checkout's commit (when it is a git checkout) and
the line count of its src/cyclogaudin/*.py.  Runs go one at a time, so
the two sides never share the machine.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time

SIDES = ("parent", "change")


def _run(checkout: str, workload: str, seed=None) -> dict:
    """One benchmark run in the checkout: its result line, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--trace", "0"]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited "
                           f"{proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(lines[-1])


def _commit(checkout: str):
    proc = subprocess.run(["git", "describe", "--always", "--dirty"],
                          cwd=checkout, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_lines(checkout: str) -> int:
    total = 0
    for path in sorted(glob.glob(os.path.join(checkout, "src", "cyclogaudin",
                                              "*.py"))):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def _spread(values: list) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def summarise(runs: list, metrics: list) -> dict:
    """Per metric: each side's values, median and quartiles, the change's
    wins and ties over the pairs, and whether a gain holds: at least 9 in
    10 pairs won, and the medians apart by more than the parent's quartile
    distance in the better direction."""
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        vals = {side: [r[side]["metrics"][name]["value"] for r in runs]
                for side in SIDES}
        wins = ties = 0
        for p, c in zip(vals["parent"], vals["change"]):
            if c == p:
                ties += 1
            elif (c < p) == lower:
                wins += 1
        stats = {side: _spread(vals[side]) for side in SIDES}
        gap = stats["parent"]["median"] - stats["change"]["median"]
        gap = gap if lower else -gap
        out[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            **{side: {**stats[side], "values": vals[side]} for side in SIDES},
            "change_over_parent": stats["change"]["median"]
            / stats["parent"]["median"],
            "change_wins": wins, "ties": ties, "pairs": len(runs),
            "gain_claim_holds": wins >= 0.9 * len(runs)
            and gap > stats["parent"]["q3"] - stats["parent"]["q1"],
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--pairs", action="append", required=True,
                    metavar="WORKLOAD=N", help="workload and pair count")
    ap.add_argument("--seed", type=int,
                    help="benchmark seed passed to perfbench/run.py "
                         "(default: the benchmark's own)")
    ap.add_argument("--output", help="JSON report path (default stdout)")
    args = ap.parse_args(argv)
    plan = []
    for spec in args.pairs:
        workload, _, n = spec.partition("=")
        if not n.isdigit() or int(n) < 1:
            ap.error(f"bad --pairs {spec!r}: expected WORKLOAD=N, N >= 1")
        plan.append((workload, int(n)))
    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}
    with open(os.path.join(checkouts["change"], "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    report = {
        "command": "python3 perfbench/run.py --workload W --trace 0"
                   + ("" if args.seed is None else f" --seed {args.seed}"),
        "protocol": "pairs alternate which side runs first; quartiles by "
                    "statistics.quantiles(n=4, method='inclusive')",
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "checkouts": {side: {"commit": _commit(path),
                             "src_lines": _src_lines(path)}
                      for side, path in checkouts.items()},
        "workloads": {},
    }
    for workload, n in plan:
        runs = []
        for i in range(n):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"first": order[0]}
            for side in order:
                t0 = time.time()
                pair[side] = _run(checkouts[side], workload, args.seed)
                print(f"{workload} pair {i + 1}/{n} {side}: "
                      f"{json.dumps(pair[side]['metrics'])} "
                      f"({time.time() - t0:.0f} s)", file=sys.stderr)
            runs.append(pair)
        report["workloads"][workload] = {
            "runs": runs, "metrics": summarise(runs, metrics),
            "all_correct": all(r[s]["correct"] for r in runs for s in SIDES),
            "failed": {s: sum(r[s]["failed"] for r in runs) for s in SIDES},
        }
    text = json.dumps(report, indent=1) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
