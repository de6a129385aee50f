"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at a tiny size through run.py with all its checks,
untraced and traced, and requires the printed metrics to be exactly the
ones BENCHMARK.json declares.  Then feeds the checks broken outputs (a
perturbed CSV row, a report with one case flipped to failing or missing,
a defect that does not converge) and requires each to be caught, and
runs the benchmark in a directory without the program's source, where it
must fail.  Exits 0 when everything holds.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import checks  # noqa: E402
import run  # noqa: E402

FAILURES = []


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        FAILURES.append(what)


def _bench(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def workloads_end_to_end(spec) -> None:
    e2e = {m["name"] for m in spec["end_to_end"]}
    layer = {m["name"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        for trace, names in ((0, e2e), (1, layer)):
            code, out, err = _bench(["--workload", w["name"], "--seed", "7",
                                     "--seconds", "0", "--trace", str(trace),
                                     "--tiny"])
            label = f"{w['name']} tiny, trace {trace}"
            if code != 0:
                expect(False, f"{label}: exit {code}\n{err[-2000:]}")
                continue
            res = json.loads(out.strip().splitlines()[-1])
            expect(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                   f"{label}: result keys")
            expect(res["correct"] is True, f"{label}: outputs pass every check")
            expect(res["attempted"] >= 1 and res["failed"] == 0,
                   f"{label}: {res['attempted']} attempted, {res['failed']} failed")
            expect(set(res["metrics"]) == names, f"{label}: metric names")
            if trace == 0:
                expect(all(m["value"] > 0 for m in res["metrics"].values()),
                       f"{label}: end-to-end metrics are nonzero")


def negative_cases() -> None:
    import workloads

    sim = workloads.SimulateCsv(7, tiny=True)
    for op, (model, T, schedule) in zip(sim.ops, sim.sims):
        code, text = op.collect(op.run())
        rows = 1 + workloads.schedule_steps(schedule)
        expect(not checks.check_csv(model, T, text, rows),
               f"{model} csv passes its checks")
        lines = text.splitlines()
        col = lines[0].split(",").index("q1" if model == "toda" else "x_re1")
        mid = len(lines) // 2
        cells = lines[mid].split(",")
        cells[col] = "%.16e" % (float(cells[col]) + 1e-6)
        lines[mid] = ",".join(cells)
        bad = "\n".join(lines) + "\n"
        expect(bool(checks.check_csv(model, T, bad, rows)),
               f"{model} csv with a perturbed row is caught")
        expect(bool(checks.check_csv(model, T, text, rows + 1)),
               f"{model} csv with a missing row is caught")
    lines = text.splitlines()
    expect(bool(checks.check_csv(model, T, "\n".join(lines[:-1])
                                 + "\n# diverged\n", rows)),
           "a diverged trajectory is caught")

    report_path = os.path.join(workloads.OUT_DIR, "verify-all.json")
    with open(report_path) as fh:
        text = fh.read()
    rep = json.loads(text)
    expect(not checks.check_report(text, 0, rep["seed"]),
           "the verify report passes its checks")
    expect(bool(checks.check_report(checks.flip_one_case(text), 0, rep["seed"])),
           "a report with one case flipped to failing is caught")
    short = dict(rep, cases=rep["cases"][1:])
    expect(bool(checks.check_report(json.dumps(short), 0, rep["seed"])),
           "a report with a missing case is caught")
    extra = dict(rep, metrics={})
    expect(bool(checks.check_report(json.dumps(extra), 0, rep["seed"])),
           "a report with an extra key fails the closed schema")
    expect(bool(checks.check_report(text, 1, rep["seed"])),
           "a nonzero exit code is caught")
    expect(bool(checks.check_commutativity("pair", 2e-11, 4e-12)),
           "a defect that shrinks by less than 12 is caught")
    expect(bool(checks.check_commutativity("pair", 2e-8, 1e-9)),
           "a defect above 1e-8 is caught")


def without_source(spec) -> None:
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(tmp, path),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        code, out, _ = _bench(["--workload", spec["workloads"][0]["name"],
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=tmp)
        expect(code != 0 and '"correct"' not in out,
               f"without src/ the benchmark exits {code} and prints no result")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json lists the workloads run.py runs")
    workloads_end_to_end(spec)
    negative_cases()
    without_source(spec)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
