"""Microseconds per flow-field kernel call, per RK4 step on a kernel
and per short endpoint run, for one or more checkouts.

    python3 tools/kernel_timing.py [CHECKOUT ...]

For Toda, DST (zeta1 = 0.9) and coupled (beta = 0.7, zeta1 = 0.9)
states drawn at seed 0, T = 2 and 3, and the flows (p, r) with
p = 1..3 and r the model's last pole (r = 0 for Toda, 1 otherwise), this
builds the checkout's models.FieldKernel and times CALLS = 5000 single
calls on the packed state after 200 warm-up calls, then STEPS = 2000
single dynamics.rk4_step(kernel, y, H) on the same state (H = 1e-3,
each from y, so every step does the same work) after 50 warm-up steps,
then ENDPOINTS = 200 single dynamics.endpoint runs of the 2-segment,
20-step schedule [((p, r), 10 H), ((1, r), 10 H)] from the state after 5
warm-up runs: the steps plus a trajectory's fixed costs (getting the two
kernels, packing, the finiteness checks, unpacking the end state).  Each
figure is the best single call, step or run, in us.  Every checkout
(default: the one that holds this script) runs in ROUNDS = 3 fresh
single-threaded processes, and the processes of the checkouts are
interleaved: round k runs each checkout once, the order reversed from
one round to the next, so that the sides share the machine's drift.  A
figure is the best over a checkout's processes.  It prints one row per
(model, T, p) and, per checkout, a call, a step and an endpoint column.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MODELS = ("toda", "dst", "coupled")
# the method behind the quoted figures
CALLS, STEPS, ENDPOINTS, ROUNDS = 5000, 2000, 200, 3
H = 1e-3


def _worker(checkout: str) -> dict:
    """Best single call, RK4 step and endpoint run per (model, T, p) of
    the checkout, in us (runs in the child process)."""
    sys.path.insert(0, os.path.join(checkout, "src"))
    from time import perf_counter_ns

    import numpy as np
    from cyclogaudin import dynamics, models
    from cyclogaudin.gaudin import FlowId

    rng = np.random.default_rng(0)
    best = {}
    for T in (2, 3):
        states = {"toda": models.random_toda(T, rng),
                  "dst": models.random_dst(T, rng, zeta1=0.9),
                  "coupled": models.random_coupled(T, rng, beta=0.7,
                                                   zeta1=0.9)}
        for name in MODELS:
            s = states[name]
            y = models.pack(s)
            for p in (1, 2, 3):
                kernel = models.FieldKernel(s, FlowId(p, len(s.POLES)))
                for _ in range(200):
                    kernel(y)
                dt = []
                for _ in range(CALLS):
                    t0 = perf_counter_ns()
                    kernel(y)
                    dt.append(perf_counter_ns() - t0)
                for _ in range(50):
                    dynamics.rk4_step(kernel, y, H)
                ds = []
                for _ in range(STEPS):
                    t0 = perf_counter_ns()
                    dynamics.rk4_step(kernel, y, H)
                    ds.append(perf_counter_ns() - t0)
                r = len(s.POLES)
                sched = dynamics.Schedule.from_pairs(
                    [(FlowId(p, r), 10 * H), (FlowId(1, r), 10 * H)], H)
                for _ in range(5):
                    dynamics.endpoint(s, sched)
                de = []
                for _ in range(ENDPOINTS):
                    t0 = perf_counter_ns()
                    dynamics.endpoint(s, sched)
                    de.append(perf_counter_ns() - t0)
                best[f"{name} {T} {p}"] = [min(dt) / 1e3, min(ds) / 1e3,
                                           min(de) / 1e3]
    return best


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkouts", nargs="*", default=[os.path.dirname(HERE)],
                    help="checkouts to time (default: this one)")
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        print(json.dumps(_worker(args.worker)))
        return 0
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    paths = [os.path.abspath(c) for c in args.checkouts]
    best = [{} for _ in paths]
    for k in range(ROUNDS):
        order = list(enumerate(paths))
        for i, path in (order if k % 2 == 0 else order[::-1]):
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--worker", path],
                env=env, capture_output=True, text=True, check=True).stdout
            for key, us in json.loads(out.strip().splitlines()[-1]).items():
                best[i][key] = [min(a, b) for a, b in
                                zip(us, best[i].get(key, us))]
    names = [os.path.basename(p) or p for p in paths]
    print("model    T p  " + "  ".join(
        f"{col + ' ' + n:>14}" for n in names
        for col in ("call", "step", "endpoint")))
    for key in best[0]:
        name, T, p = key.split()
        print(f"{name:<8} {T} {p}  "
              + "  ".join(f"{us:14.1f}" for b in best for us in b[key]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
