"""cyclogaudin benchmark: one command, four workloads.

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Each workload runs in fresh single-threaded processes (see worker.py):
set-up is timed in SETUP_SAMPLES processes from process start to the end
of warm-up, then one more process measures whole rounds for S seconds.
Every time is scaled to a fixed machine speed (see calib.py).  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (setup_s, wall_s,
peak_rss_mb); with ``--trace 1`` they are the per-layer metrics of the
traced run.  Lines before it give the same figures and the
workload-specific rates (RK4 steps or residuals per second) by name and
unit.  ``--workload all`` (the default) runs the four workloads in turn.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import calib  # noqa: E402

WORKLOADS = ("commute_sweep", "simulate_csv", "verify_all", "algebra_battery")
# the acceptance battery's seed for its calibrated states; the two CLI
# workloads always pass the CLI seed 42 (see workloads.py)
DEFAULT_SEED = 2024
SETUP_SAMPLES = 5          # set-up-only processes timed to the end of warm-up
CHILD_TIMEOUT_S = 170.0    # a worker that outlives this is killed
PINNED = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class WorkerError(RuntimeError):
    pass


def _start(cmd):
    env = dict(os.environ, PYTHONHASHSEED="0", **PINNED)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    return proc, timer


def _finish(proc, timer) -> str:
    try:
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return rest


def _until_ready(cmd):
    """Start a worker; return it with its set-up time (process start to
    the READY line)."""
    t0 = perf_counter()
    proc, timer = _start(cmd)
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line.strip() != "READY":
        _finish(proc, timer)
        raise WorkerError(f"worker did not become ready (said {line!r})")
    return proc, timer, setup


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 tiny: bool = False) -> dict:
    cmd = [sys.executable, WORKER, "--workload", name, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    setups, raw_setups = [], []
    if not trace:
        for _ in range(SETUP_SAMPLES):
            ref = calib.reference_time()
            proc, timer, setup = _until_ready(cmd + ["--mode", "setup"])
            _finish(proc, timer)
            ref = 0.5 * (ref + calib.reference_time())
            setups.append(calib.scale(setup, ref))
            raw_setups.append(setup)
    proc, timer, _ = _until_ready(cmd + ["--mode", "run"])
    out = json.loads(_finish(proc, timer).strip().splitlines()[-1])
    metrics = out["metrics"]
    if not trace:
        metrics = {"setup_s": (statistics.median(setups), "s"), **metrics}
        out["extra"]["raw_setup_s"] = (statistics.median(raw_setups), "s")
    out["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    out["extra"] = {k: {"value": v, "unit": u} for k, (v, u) in out["extra"].items()}
    return out


def _print_figures(name: str, res: dict) -> None:
    for key, m in list(res["metrics"].items()) + list(res["extra"].items()):
        print(f"{name}  {key} = {m['value']:.6g} {m['unit']}")
    print(f"{name}  attempted = {res['attempted']}, failed = {res['failed']}, "
          f"correct = {res['correct']}")
    for problem in res.get("problems", []):
        print(f"{name}  PROBLEM: {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="input seed (default: the acceptance battery's)")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every workload (for the smoke test)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cyclogaudin", "__init__.py")):
        print("error: src/cyclogaudin not found next to perfbench/",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         args.trace, args.tiny)
            _print_figures(name, results[name])
    except (WorkerError, ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        res = results[names[0]]
        metrics = res["metrics"]
    else:
        metrics = {f"{n}.{k}": m for n, r in results.items()
                   for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
