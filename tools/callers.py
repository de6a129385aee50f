"""The functions of src/cyclogaudin that no run of the program enters.

    python3 tools/callers.py [CHECKOUT] [--command "ARGS"]...

Under sys.settrace this runs, in this process, what the program is used
for, and counts a function as entered on its call event:

  * for each workload of CHECKOUT/perfbench/workloads.py, its inputs, its
    warm-up, one round of its operations and the checks of that round, as
    tools/field_calls.py runs them;
  * the CLI commands `verify --suite all`, `simulate` for each of the three
    models (the schedules of the simulate_csv workload) and `closure`,
    each writing its output to a temporary file.

With --command (repeatable) only the given CLI commands run, e.g.
--command "verify --suite algebra --T 2"; an --output is added to each.

Every function, method and nested function defined in
CHECKOUT/src/cyclogaudin/*.py (lambdas and comprehensions aside) that no
run entered is printed on one line as module.qualified_name, marked
"[spans]" when perfbench/spans.py pins it by name (its TARGETS), followed
by a count.  A function served from a functools.cache memo is entered
only on its misses.  The exit status is 0.
"""
from __future__ import annotations

import argparse
import glob
import inspect
import os
import shlex
import sys
import tempfile
import types

HERE = os.path.dirname(os.path.abspath(__file__))

def defined(src: str) -> dict:
    """(file, first line, qualified name) -> printed name of every named
    function in the package's modules, read off their compiled code."""
    out = {}
    for path in sorted(glob.glob(os.path.join(src, "cyclogaudin", "*.py"))):
        path = os.path.realpath(path)
        module = os.path.splitext(os.path.basename(path))[0]
        with open(path) as fh:
            stack = [compile(fh.read(), path, "exec")]
        while stack:
            for c in stack.pop().co_consts:
                if isinstance(c, types.CodeType):
                    stack.append(c)
                    # a class body runs once, at import, in no new locals
                    if (c.co_flags & inspect.CO_NEWLOCALS
                            and not c.co_name.startswith("<")):
                        name = c.co_qualname.replace(".<locals>", "")
                        out[path, c.co_firstlineno, c.co_qualname] = \
                            f"{module}.{name}"
    return out


def traced(runs) -> set:
    """The code objects whose call event fired while each run (a callable)
    ran under sys.settrace; the trace function in place before is restored."""
    codes = set()

    def tracer(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    before = sys.gettrace()
    sys.settrace(tracer)
    try:
        for run in runs:
            run()
    finally:
        sys.settrace(before)
    return codes


def _cli_runs(commands, outdir):
    from cyclogaudin import cli

    def run(argv, k):
        def go():
            out = os.path.join(outdir, f"out{k}")
            code = cli.main(argv + ["--output", out])
            if code:
                print(f"{shlex.join(argv)}: exit {code}", file=sys.stderr)
        return go
    return [run(argv, k) for k, argv in enumerate(commands)]


def _workload_runs(seed: int):
    from workloads import WORKLOADS

    def run(name):
        def go():
            wl = WORKLOADS[name](seed)
            wl.warm_up()
            outputs = []
            for op in wl.ops:
                try:
                    outputs.append(op.collect(op.run()))
                except Exception as exc:  # counted as in the benchmark
                    outputs.append(None)
                    print(f"{name}: operation {op.name} failed: {exc!r}",
                          file=sys.stderr)
            wl.check(outputs)
        return go
    return [run(name) for name in sorted(WORKLOADS)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout", nargs="?", default=os.path.dirname(HERE),
                    help="checkout to trace (default: this one)")
    ap.add_argument("--command", action="append", metavar="ARGS",
                    help="run only this CLI command (repeatable)")
    args = ap.parse_args(argv)
    root = os.path.abspath(args.checkout)
    src = os.path.join(root, "src")
    # the perfbench worker pins the BLAS threads and puts src first
    sys.path.insert(0, os.path.join(root, "perfbench"))
    import worker  # noqa: F401
    from spans import TARGETS
    from workloads import SIMULATIONS

    if args.command:
        commands = [shlex.split(c) for c in args.command]
        runs = []
    else:
        commands = [["verify", "--suite", "all", "--seed", "42", "--T", "3"]]
        commands += [["simulate", "--model", model, "--T", str(T),
                      "--seed", "42", "--schedule", sched]
                     for model, T, sched in SIMULATIONS]
        commands.append(["closure", "--model", "coupled", "--T", "3",
                         "--seed", "42"])
        runs = _workload_runs(2024)
    with tempfile.TemporaryDirectory() as outdir:
        codes = traced(runs + _cli_runs(commands, outdir))
    entered = {(os.path.realpath(c.co_filename), c.co_firstlineno,
                c.co_qualname) for c in codes}
    pinned = {f"{layer}.{name}" for layer, names in TARGETS.items()
              for name in names}
    missed = sorted(name for key, name in defined(src).items()
                    if key not in entered)
    for name in missed:
        print(f"{name} [spans]" if name in pinned else name)
    print(f"{len(missed)} functions not entered, "
          f"{sum(name in pinned for name in missed)} of them pinned by "
          "perfbench/spans.py")
    return 0


if __name__ == "__main__":
    sys.exit(main())
