"""Run one workload in this (fresh, single-threaded) process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                --trace 0|1 --mode setup|run [--tiny]

The process builds the workload's inputs, warms up, and prints ``READY``;
the parent times process start to that line as one set-up sample.  With
``--mode setup`` it stops there.  With ``--mode run`` it repeats whole
rounds for S seconds (times scaled to the reference speed of calib.py),
checks the first round's outputs, requires every later round to
reproduce them exactly, and prints one JSON line.  With
``--trace 1`` it first times untraced rounds for half the time, then
installs the span recorder for the rest and reports per-layer metrics.
"""
from __future__ import annotations

import os
import sys

# BLAS pools are pinned before NumPy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [SRC, HERE]

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import cyclogaudin  # noqa: E402

if not os.path.abspath(cyclogaudin.__file__).startswith(SRC + os.sep):
    raise ImportError(f"cyclogaudin imported from {cyclogaudin.__file__}, "
                      f"not from {SRC}")

import calib  # noqa: E402
import spans  # noqa: E402
from workloads import OUT_DIR, WORKLOADS  # noqa: E402


def _feed(h, obj) -> None:
    """Hash a nested output exactly (bit patterns of every number)."""
    if isinstance(obj, np.ndarray):
        h.update(str(obj.dtype).encode() + str(obj.shape).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        for k in sorted(obj, key=repr):
            h.update(repr(k).encode())
            _feed(h, obj[k])
    elif isinstance(obj, (list, tuple)):
        h.update(b"[%d" % len(obj))
        for item in obj:
            _feed(h, item)
    else:
        h.update(repr(obj).encode())


class SpeedProbe:
    """Samples the machine-speed reference every PERIOD_S, from a timer
    signal, so that samples also fall inside long operations.  The time
    spent sampling is recorded so that it can be taken out of the
    operations it interrupted."""

    PERIOD_S = 0.25

    def __init__(self):
        self.samples = [calib.reference_time()]
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        t = perf_counter()
        self.samples.append(calib.reference_time())
        self.spent += perf_counter() - t

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def scale(self, measured: float, first: int) -> float:
        """`measured` at nominal speed, using the samples taken since
        index `first` (or the last one before it if none were)."""
        during = self.samples[first:] or self.samples[-1:]
        return calib.scale(measured, sum(during) / len(during))


def fingerprint(outputs) -> str:
    h = hashlib.sha256()
    _feed(h, outputs)
    return h.hexdigest()


class Runner:
    def __init__(self, wl):
        self.wl = wl
        self.rounds = []   # per round: (scaled s, {model: scaled s}, raw s)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._reference = None
        self._reported = set()
        self.probe = SpeedProbe()

    def round(self, rec=None) -> float:
        """Run every operation once; return the round's scaled time."""
        outputs, raw, norm, per_model = [], 0.0, 0.0, {}
        base = len(self.rounds) * len(self.wl.ops)
        probe = self.probe
        for i, op in enumerate(self.wl.ops):
            if rec is not None:
                rec.current_run = base + i
            n0, spent0 = len(probe.samples), probe.spent
            t = perf_counter()
            try:
                raw_out = op.run()
            except Exception:  # a failed operation is counted, not fatal
                dt = perf_counter() - t - (probe.spent - spent0)
                self.failed += 1
                outputs.append(None)
                if op.name not in self._reported:
                    self._reported.add(op.name)
                    print(f"operation {op.name} failed:", file=sys.stderr)
                    traceback.print_exc()
            else:
                dt = perf_counter() - t - (probe.spent - spent0)
                outputs.append(op.collect(raw_out))
            scaled = probe.scale(dt, n0)
            raw += dt
            norm += scaled
            per_model[op.model] = per_model.get(op.model, 0.0) + scaled
        self.attempted += len(self.wl.ops)
        self.rounds.append((norm, per_model, raw))
        if self._reference is None:
            self._reference = fingerprint(outputs)
            self.problems += self.wl.check(outputs)
        elif fingerprint(outputs) != self._reference:
            self.problems.append(f"round {len(self.rounds)} did not reproduce "
                                 "the first round's outputs")
        return norm

    def repeat(self, until: float, rec=None) -> list:
        """Whole rounds until the clock passes `until` (at least one)."""
        times = [self.round(rec)]
        while perf_counter() < until:
            times.append(self.round(rec))
        return times

def end_to_end(runner, times) -> tuple:
    wl = runner.wl
    wall = statistics.median(times)
    metrics = {"wall_s": (wall, "s"),
               "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                               / 1024.0, "MB")}
    extra = {"raw_wall_s": (statistics.median(r[2] for r in runner.rounds), "s"),
             "rounds": (len(times), "count"),
             "ops_per_round": (len(wl.ops), "count")}
    steps = sum(op.steps for op in wl.ops)
    if steps:
        extra["rk4_steps_per_s"] = (steps / wall, "steps/s")
        for model in ("toda", "dst", "coupled"):
            m_steps = sum(op.steps for op in wl.ops if op.model == model)
            m_wall = statistics.median(r[1].get(model, 0.0) for r in runner.rounds)
            if m_steps and m_wall > 0:
                extra[f"{model}.rk4_steps_per_s"] = (m_steps / m_wall, "steps/s")
    residuals = sum(op.residuals for op in wl.ops)
    if residuals and not steps:
        extra["residuals_per_s"] = (residuals / wall, "residuals/s")
    if hasattr(wl, "resolved"):
        extra["pairs_resolved_above_roundoff"] = (wl.resolved, "count")
    return metrics, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed, args.tiny)
    wl.warm_up()
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    runner = Runner(wl)
    runner.probe.start()
    t0 = perf_counter()
    if not args.trace:
        times = runner.repeat(t0 + args.seconds)
        metrics, extra = end_to_end(runner, times)
    else:
        untraced = runner.repeat(t0 + args.seconds / 2)
        rec = spans.Recorder()
        rec.install()
        try:
            traced = runner.repeat(t0 + args.seconds, rec)
        finally:
            rec.uninstall()
        derived = rec.derive(len(traced), statistics.median(untraced),
                             statistics.median(traced))
        units = spans.metric_units()
        metrics = {k: (derived[k], units[k]) for k in units}
        os.makedirs(OUT_DIR, exist_ok=True)
        rec.save(os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.npz"))
        extra = {"spans_per_round": (len(rec.start) // len(traced), "count"),
                 "traced_rounds": (len(traced), "count")}
    runner.probe.stop()
    print(json.dumps({"correct": not runner.problems,
                      "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": metrics, "extra": extra,
                      "problems": runner.problems[:50]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
