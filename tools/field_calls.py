"""Flow-field kernel evaluations and builds, and the H value calls and
lanes, per round of each benchmark workload.

    python3 tools/field_calls.py [CHECKOUT] [--workload W] [--seed N]
        [--compare OTHER]

For each workload of CHECKOUT/perfbench/workloads.py (default: all four,
in the checkout that holds this script), this builds the workload's
inputs, warms up, and runs one round of its operations in this process,
with models.FieldKernel.__call__, models.FieldKernel.__init__,
models.FieldKernel.value and models.FieldKernel.values (where the
checkout has it) wrapped from the outside to count them.  It prints one
line per workload, each counter named by the route it counts:

    kernel_calls       field evaluations, FieldKernel.__call__ (the RK4
                       stages, flow_field, closure arcs and the fields
                       that hamiltonian_gradient reads its gradient off)
    kernel_builds      FieldKernel constructions
    value_calls        one H value each, FieldKernel.value
    values_lane_calls  the H columns of simulate, FieldKernel.values, and
                       the lanes (stacked support vectors) those took

and the SHA-256 fingerprint of the round's outputs (perfbench/worker.py),
so that two checkouts can be compared for bit-identical results.  In
checkouts where hamiltonian_gradient ran the plan itself (FieldKernel
had a sectors method), a gradient is counted by neither kernel_calls
nor value_calls.  The `perfbench/run.py --trace 1` counters wrap
models.flow_field by name and do not see the kernels that
dynamics.integrate and the simulate command call.

With --compare OTHER, each of CHECKOUT and OTHER is measured in its own
process, both sets of lines are printed, and the exit status is 1 when
any count or fingerprint differs between them, 0 when all are equal.
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
    call, init = models.FieldKernel.__call__, models.FieldKernel.__init__
    value = models.FieldKernel.value
    values = getattr(models.FieldKernel, "values", None)

    def counted_call(self, *args, **kwargs):   # an RK4 stage is (y, c, k)
        counts["calls"] += 1
        return call(self, *args, **kwargs)

    def counted_init(self, template, f):
        counts["builds"] += 1
        init(self, template, f)

    def counted_value(self, z):
        counts["value_calls"] += 1
        return value(self, z)

    def counted_values(self, Z):
        counts["lane_calls"] += 1
        counts["lanes"] += len(Z)
        return values(self, Z)

    models.FieldKernel.__call__ = counted_call
    models.FieldKernel.__init__ = counted_init
    models.FieldKernel.value = counted_value
    if values is not None:
        models.FieldKernel.values = counted_values
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
    their lines and return 1 when any line differs."""
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
    same = lines[0] == lines[1]
    print("identical counts and fingerprints" if same else "DIFFERENT")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
