"""Flow-field kernel evaluations and builds, and the H value calls and
lanes, per round of each benchmark workload.

    python3 tools/field_calls.py [CHECKOUT] [--workload W] [--seed N]
        [--compare OTHER]

For each workload of CHECKOUT/perfbench/workloads.py (default: all four,
in the checkout that holds this script), this builds the workload's
inputs, warms up, and runs one round of its operations in this process,
with models.FieldKernel.__call__, models.FieldKernel.step,
models.FieldKernel.__init__, models.hamiltonian_value and
models.FlowPlan.values wrapped from the outside to count them.  It
prints one line per workload, each counter named by the route it
counts:

    kernel_calls       field evaluations: one per FieldKernel.__call__
                       (flow_field and the fields that
                       hamiltonian_gradient reads its gradient off) and
                       four per FieldKernel.step (a whole RK4 step, the
                       trajectories and closure arcs)
    kernel_builds      FieldKernel constructions: the misses of the
                       models.field_kernel memo, keyed by (plan, state
                       class, T, sector signs), so a round after the
                       warm-up counts only the keys the warm-up did not
                       meet
    value_calls        one H value each, models.hamiltonian_value
    values_lane_calls  the H columns of simulate, FlowPlan.values, and
                       the lanes (stacked support vectors) those took

A call made inside a counted call (the one lane of FlowPlan.values that
hamiltonian_value reads its value off) is not counted again.  Each line
ends with the SHA-256 fingerprint of the round's outputs
(perfbench/worker.py), so that two checkouts can be compared for
bit-identical results.  The `perfbench/run.py --trace 1` counters wrap
models.flow_field by name and do not see the kernels that
dynamics.integrate and the simulate command call.

With --compare OTHER, each of CHECKOUT and OTHER is measured in its own
process, both sets of lines are printed, then each count that differs
(per workload, CHECKOUT -> OTHER) and whether the fingerprints are
identical; the exit status is 1 when any count or fingerprint differs
between them, 0 when all are equal.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout", nargs="?", default=os.path.dirname(HERE),
                    help="checkout to measure (default: this one)")
    ap.add_argument("--workload", action="append",
                    help="workload name (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=2024,
                    help="benchmark seed (default 2024, as perfbench/run.py)")
    ap.add_argument("--compare", metavar="OTHER",
                    help="also measure checkout OTHER; exit 1 on any "
                         "difference")
    args = ap.parse_args(argv)
    if args.compare:
        return _compare(args)
    # worker pins the BLAS threads and puts the checkout's src first
    sys.path.insert(0, os.path.join(os.path.abspath(args.checkout),
                                    "perfbench"))
    import worker
    from cyclogaudin import models
    from workloads import WORKLOADS

    counts = dict.fromkeys(("calls", "builds", "value_calls", "lane_calls",
                            "lanes"), 0)

    inside = [False]

    def count(owner, name, key, lanes=False, each=1):
        """Wrap owner.name so that each call from outside the counted
        routes adds each to counts[key] and, with lanes, the rows of its
        last argument (a stack) to counts["lanes"]."""
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            if inside[0]:
                return fn(*args, **kwargs)
            counts[key] += each
            if lanes:
                counts["lanes"] += len(args[-1])
            inside[0] = True
            try:
                return fn(*args, **kwargs)
            finally:
                inside[0] = False
        setattr(owner, name, counted)

    kernel = models.FieldKernel
    count(kernel, "__call__", "calls")
    count(kernel, "step", "calls", each=4)   # a whole RK4 step
    count(kernel, "__init__", "builds")
    count(models, "hamiltonian_value", "value_calls")
    count(models.FlowPlan, "values", "lane_calls", lanes=True)
    for name in args.workload or sorted(WORKLOADS):
        wl = WORKLOADS[name](args.seed)
        wl.warm_up()
        counts.update(dict.fromkeys(counts, 0))
        outputs = []
        for op in wl.ops:
            try:
                outputs.append(op.collect(op.run()))
            except Exception as exc:  # counted as in the benchmark
                outputs.append(None)
                print(f"{name}: operation {op.name} failed: {exc!r}",
                      file=sys.stderr)
        print(f"{name}: kernel_calls {counts['calls']} kernel_builds "
              f"{counts['builds']} value_calls "
              f"{counts['value_calls']} values_lane_calls "
              f"{counts['lane_calls']} lanes {counts['lanes']} "
              f"failed {outputs.count(None)} outputs "
              f"{worker.fingerprint(outputs)}")
    return 0


def _compare(args) -> int:
    """Measure args.checkout and args.compare in one process each, print
    their lines, the counts that differ and whether the fingerprints are
    identical, and return 1 when any line differs."""
    opts = ["--seed", str(args.seed)]
    for name in args.workload or ():
        opts += ["--workload", name]
    lines = []
    for checkout in (args.checkout, args.compare):
        proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                               checkout, *opts], capture_output=True,
                              text=True, check=True)
        lines.append(proc.stdout.splitlines())
        print(f"{checkout}:")
        print("\n".join(f"  {line}" for line in lines[-1]))
    same_outputs = True
    for mine, other in zip(*lines):
        a, b = ({k: v for k, v in zip(w[::2], w[1::2])} for w in
                (line.partition(": ")[2].split() for line in (mine, other)))
        same_outputs &= a.pop("outputs") == b.pop("outputs")
        moved = [f"{k} {a[k]} -> {b.get(k)}" for k in a if a[k] != b.get(k)]
        if moved:
            print(f"{mine.partition(':')[0]}: {', '.join(moved)}")
    print("identical fingerprints" if same_outputs
          else "DIFFERENT fingerprints")
    same = lines[0] == lines[1]
    print("identical counts and fingerprints" if same else "DIFFERENT")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
