"""Microseconds per flow-field kernel call, per RK4 step on a kernel
and per short endpoint run, per call of the Laurent-layer routines, and
per call of the Lax-velocity and support-stack routes, for one or more
checkouts.

    python3 tools/kernel_timing.py [CHECKOUT ...]
        [--table kernel|laurent|routes] [--output FIGURES.json]

Kernel table: for Toda, DST (zeta1 = 0.9) and coupled (beta = 0.7,
zeta1 = 0.9) states drawn at seed 0, T = 2 and 3, and the flows (p, r)
with p = 1..3 and r the model's last pole (r = 0 for Toda, 1 otherwise),
this builds the checkout's models.FieldKernel and times CALLS = 5000
single calls on the packed state after 200 warm-up calls, then
STEPS = 2000 single dynamics.rk4_step(kernel, y, H) on the same state
(H = 1e-3, each from y, so every step does the same work) after 50
warm-up steps, then ENDPOINTS = 200 single dynamics.endpoint runs of the
2-segment, 20-step schedule [((p, r), 10 H), ((1, r), 10 H)] from the
state after 5 warm-up runs: the steps plus a trajectory's fixed costs
(getting the two kernels, packing, the finiteness checks, unpacking the
end state).  It prints one row per (model, T, p) and, per checkout, a
call, a step and an endpoint column.

Laurent table: for the same three models at T = 2..5 and 8 (states
drawn at seed 1; T = 8 shows how each routine scales with T), with L
the state's Lax matrix, P its pole configuration, r its last pole and
R0 = h_0^(1) + h_N^(2) + a grade-0 constant (Lax partners, a weight-0
function with poles on the slot orbits), it times LAURENT_CALLS = 100
single calls, after 5 warm-up calls, of gaudin.lax_rhs((3, r), L,
P), rmatrix.kernel_projection(localize(R0, zetas, 8), '+', root),
ratmat.split(R0, root, zetas), gaudin.hamiltonian((3, r), L, P),
rmatrix.sklyanin_residual(state, lam, mu) (|lam| = 0.55, |mu| = 1.7),
gaudin.lax_partner((3, r), L, P),
gaudin.hamiltonian_coefficient_gradients((3, r), L, P) and
R0.laurent_expand(zeta_1, 12) (at 0 on Toda, which has no zeta_1): the
routines under the algebra_battery workload, at the battery's deepest
flow, the two other reads of lambda^p L^p at a slot, and one expansion
to the order that split uses at every slot (its weight table cached by
the warm-up calls).  It prints one row per (model, T) and, per checkout,
one column per routine.

Routes table: for the same three models at T = 2..5 (states drawn at
seed 2), it times ROUTE_CALLS = 100 single calls, after 5 warm-up calls,
of dynamics.el_lax_agreement(state, (3, r)), which reads the Lax
velocity models.coefficient_velocity, and of SupportWriter(state).stack
on STACK_ROWS = 400 packed vectors near the state's (complex off Toda),
the stack that simulate and the suites write their rows with.  It prints
one row per (model, T) and, per checkout, an el_lax and a stack column.

Each figure is the best single call, step or run, in us.  Every checkout
(default: the one that holds this script) runs in ROUNDS = 3 fresh
single-threaded processes, and the processes of the checkouts are
interleaved: round k runs each checkout once, the order reversed from
one round to the next, so that the sides share the machine's drift.  A
figure is the best over a checkout's processes.  --output also writes
the figures as JSON, per table, checkout (by directory name) and row.
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
LAURENT_CALLS = 100
ROUTE_CALLS, STACK_ROWS = 100, 400
H = 1e-3
COLUMNS = {"kernel": ("call", "step", "endpoint"),
           "laurent": ("lax_rhs", "R_+", "split", "hamiltonian", "sklyanin",
                       "lax_partner", "gradients", "expand"),
           "routes": ("el_lax", "stack")}


def _best(fn, n: int, warm: int) -> float:
    """Best of n single calls of fn() after warm ones, in us."""
    from time import perf_counter_ns

    for _ in range(warm):
        fn()
    dt = []
    for _ in range(n):
        t0 = perf_counter_ns()
        fn()
        dt.append(perf_counter_ns() - t0)
    return min(dt) / 1e3


def _kernel_table() -> dict:
    """Best single call, RK4 step and endpoint run per (model, T, p)."""
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
            r = len(s.POLES)
            for p in (1, 2, 3):
                kernel = models.FieldKernel(s, FlowId(p, r))
                sched = dynamics.Schedule.from_pairs(
                    [(FlowId(p, r), 10 * H), (FlowId(1, r), 10 * H)], H)
                best[f"{name} {T} {p}"] = [
                    _best(lambda: kernel(y), CALLS, 200),
                    _best(lambda: dynamics.rk4_step(kernel, y, H), STEPS, 50),
                    _best(lambda: dynamics.endpoint(s, sched), ENDPOINTS, 5)]
    return best


def _laurent_table() -> dict:
    """Best single call of each Laurent-layer routine per (model, T)."""
    import numpy as np
    from cyclogaudin import algebra, gaudin, models, ratmat, rmatrix
    from cyclogaudin.gaudin import FlowId

    rng = np.random.default_rng(1)
    best = {}
    for T in (2, 3, 4, 5, 8):
        states = {"toda": models.random_toda(T, rng),
                  "dst": models.random_dst(T, rng, zeta1=0.9),
                  "coupled": models.random_coupled(T, rng, beta=0.7,
                                                   zeta1=0.9)}
        for name in MODELS:
            s = states[name]
            L, P = models.lax(s), models.config_of(s)
            f = FlowId(3, P.N)
            c = rng.normal(size=(T, T)) + 1j * rng.normal(size=(T, T))
            R0 = (gaudin.lax_partner(FlowId(1, 0), L, P)
                  + gaudin.lax_partner(FlowId(2, P.N), L, P)
                  + ratmat.RationalMatrix.constant(
                      algebra.grade_component(c, 0, T)))
            X = ratmat.localize(R0, P.zetas, 8)
            zr = P.zetas[0] if P.zetas else 0j
            lam = 0.55 * np.exp(2j * np.pi * rng.uniform())
            mu = 1.7 * np.exp(2j * np.pi * rng.uniform())
            calls = (lambda: gaudin.lax_rhs(f, L, P),
                     lambda: rmatrix.kernel_projection(X, "+", P.root),
                     lambda: ratmat.split(R0, P.root, P.zetas),
                     lambda: gaudin.hamiltonian(f, L, P),
                     lambda: rmatrix.sklyanin_residual(s, lam, mu),
                     lambda: gaudin.lax_partner(f, L, P),
                     lambda: gaudin.hamiltonian_coefficient_gradients(f, L, P),
                     lambda: R0.laurent_expand(zr, ratmat._SPLIT_TRUNC))
            best[f"{name} {T}"] = [_best(fn, LAURENT_CALLS, 5) for fn in calls]
    return best


def _routes_table() -> dict:
    """Best single el_lax_agreement and 400-row stack per (model, T)."""
    import numpy as np
    from cyclogaudin import dynamics, models
    from cyclogaudin.gaudin import FlowId

    rng = np.random.default_rng(2)
    best = {}
    for T in (2, 3, 4, 5):
        states = {"toda": models.random_toda(T, rng),
                  "dst": models.random_dst(T, rng, zeta1=0.9),
                  "coupled": models.random_coupled(T, rng, beta=0.7,
                                                   zeta1=0.9)}
        for name in MODELS:
            s = states[name]
            f, n = FlowId(3, len(s.POLES)), models.nvars(s)
            Y = models.pack(s) + 0.3 * rng.normal(size=(STACK_ROWS, n))
            if not s.REAL:
                Y = Y + 0.3j * rng.normal(size=Y.shape)
            writer = models.SupportWriter(s)
            best[f"{name} {T}"] = [
                _best(lambda: dynamics.el_lax_agreement(s, f), ROUTE_CALLS, 5),
                _best(lambda: writer.stack(Y), ROUTE_CALLS, 5)]
    return best


def _worker(checkout: str, table: str) -> dict:
    """The chosen tables of the checkout, in us (runs in the child
    process)."""
    sys.path.insert(0, os.path.join(checkout, "src"))
    tables = {"kernel": _kernel_table, "laurent": _laurent_table,
              "routes": _routes_table}
    return {name: fn() for name, fn in tables.items()
            if table in (name, "all")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkouts", nargs="*", default=[os.path.dirname(HERE)],
                    help="checkouts to time (default: this one)")
    ap.add_argument("--table", choices=("all", *COLUMNS), default="all",
                    help="tables to time (default: all three)")
    ap.add_argument("--output", help="also write the figures as JSON here")
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        print(json.dumps(_worker(args.worker, args.table)))
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
                [sys.executable, os.path.abspath(__file__), "--worker", path,
                 "--table", args.table],
                env=env, capture_output=True, text=True, check=True).stdout
            for table, rows in json.loads(out.strip().splitlines()[-1]).items():
                seen = best[i].setdefault(table, {})
                for key, us in rows.items():
                    seen[key] = [min(a, b) for a, b in zip(us, seen.get(key, us))]
    names = [os.path.basename(p) or p for p in paths]
    for table, rows in best[0].items():
        label = "model    T p  " if table == "kernel" else "model    T  "
        print(label + "  ".join(f"{col + ' ' + n:>14}" for n in names
                                for col in COLUMNS[table]))
        for key in rows:
            print(f"{key.split()[0]:<8} {' '.join(key.split()[1:])}  "
                  + "  ".join(f"{us:14.1f}" for b in best for us in b[table][key]))
        print()
    if args.output:
        with open(args.output, "w") as fh:
            json.dump({"columns": {t: COLUMNS[t] for t in best[0]},
                       "checkouts": dict(zip(names, best))}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
