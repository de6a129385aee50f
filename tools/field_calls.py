"""Flow-field kernel evaluations and builds, and the flow-plan calls and
lanes of the H value and gradient routes, per round of each benchmark
workload.

    python3 tools/field_calls.py [CHECKOUT] [--workload W] [--seed N]

For each workload of CHECKOUT/perfbench/workloads.py (default: all four,
in the checkout that holds this script), this builds the workload's
inputs, warms up, and runs one round of its operations in this process,
with models.FieldKernel.__call__, models.FieldKernel.__init__,
models.FlowPlan.__call__ and models.FlowPlan.lanes (where the checkout
has it) wrapped from the outside to count them.  It prints one line per
workload, each counter named by the route it counts:

    kernel_calls          field evaluations, FieldKernel.__call__ (the
                          RK4 stages, flow_field, closure arcs)
    kernel_builds         FieldKernel constructions
    value_grad_plan_calls FlowPlan.__call__: one H value (FieldKernel.value)
                          or reduced gradient (FieldKernel.sectors) each
    values_lane_calls     FlowPlan.lanes: the H columns of simulate
                          (FieldKernel.values), and the lanes (stacked
                          support vectors) those took

and the SHA-256 fingerprint of the round's outputs (perfbench/worker.py),
so that two checkouts can be compared for bit-identical results.  The
kernel's call runs its plan product itself and is not counted by
value_grad_plan_calls; in checkouts older than the one-frame kernel
(c212b16 and before) it called FlowPlan.__call__, so that counter there
reads the kernel calls plus the value and gradient calls.  The
`perfbench/run.py --trace 1` counters wrap models.flow_field by name and
do not see the kernels that dynamics.integrate and the simulate command
call.
"""
from __future__ import annotations

import argparse
import os
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
    args = ap.parse_args(argv)
    # worker pins the BLAS threads and puts the checkout's src first
    sys.path.insert(0, os.path.join(os.path.abspath(args.checkout),
                                    "perfbench"))
    import worker
    from cyclogaudin import models
    from workloads import WORKLOADS

    counts = dict.fromkeys(("calls", "builds", "plan_calls", "lane_calls",
                            "lanes"), 0)
    call, init = models.FieldKernel.__call__, models.FieldKernel.__init__
    plan_call = models.FlowPlan.__call__
    lanes = getattr(models.FlowPlan, "lanes", None)

    def counted_call(self, y):
        counts["calls"] += 1
        return call(self, y)

    def counted_init(self, template, f):
        counts["builds"] += 1
        init(self, template, f)

    def counted_plan_call(self, z):
        counts["plan_calls"] += 1
        return plan_call(self, z)

    def counted_lanes(self, Z):
        counts["lane_calls"] += 1
        counts["lanes"] += len(Z)
        return lanes(self, Z)

    models.FieldKernel.__call__ = counted_call
    models.FieldKernel.__init__ = counted_init
    models.FlowPlan.__call__ = counted_plan_call
    if lanes is not None:
        models.FlowPlan.lanes = counted_lanes
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
              f"{counts['builds']} value_grad_plan_calls "
              f"{counts['plan_calls']} values_lane_calls "
              f"{counts['lane_calls']} lanes {counts['lanes']} "
              f"failed {outputs.count(None)} outputs "
              f"{worker.fingerprint(outputs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
