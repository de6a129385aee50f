"""Command-line entry point: verification suites, trajectory simulation,
closure-relation probes.

Exit codes: 0 pass, 1 verification failure, 2 usage/config error,
3 runtime divergence (with NumPy's overflow warnings silenced).
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from functools import cache

import numpy as np

from . import dynamics as dyn
from . import models as mdl
from .errors import ConfigError, CycloGaudinError, DivergenceError
from .gaudin import FlowId
from .suites import (MODELS, SUITES, RunConfig, _rngs, _seeded_state,
                     run_suite)

EXIT_PASS, EXIT_FAIL, EXIT_CONFIG, EXIT_DIVERGED = 0, 1, 2, 3


@cache   # one parser per process: parse_args leaves it as it was
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cyclogaudin",
                                 description="cyclotomic Gaudin hierarchy "
                                 "verification and simulation")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--model", choices=MODELS)
        p.add_argument("--T", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--beta", type=float)
        p.add_argument("--zeta1", type=str,
                       help="complex pole location, e.g. '0.9' or '0.7+0.4j'")
        p.add_argument("--depth", type=int)
        p.add_argument("--h", type=float)
        p.add_argument("--output", help="output file (default stdout)")

    pv = sub.add_parser("verify", help="run a named verification suite")
    pv.add_argument("--suite", choices=SUITES, default="all")
    common(pv)

    ps = sub.add_parser("simulate", help="integrate a multi-time schedule")
    ps.add_argument("--schedule", required=True,
                    help="comma-separated p:r:duration triples")
    common(ps)

    pc = sub.add_parser("closure", help="closure-relation residual for a flow pair")
    pc.add_argument("--flow-a", default="1:0", help="p:r")
    pc.add_argument("--flow-b", default="1:1", help="p:r")
    common(pc)
    return ap


def _load_config(args) -> RunConfig:
    values = {}
    if args.config:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
        known = {f.name for f in fields(RunConfig)}
        for key, val in raw.items():
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}")
            values[key] = val
    for key in ("model", "T", "seed", "beta", "zeta1", "depth", "h"):
        v = getattr(args, key, None)
        if v is not None:
            values[key] = v
    if "zeta1" in values:
        try:
            values["zeta1"] = complex(str(values["zeta1"]).replace(" ", ""))
        except ValueError:
            raise ConfigError(f"cannot parse zeta1 {values['zeta1']!r}")
    return RunConfig(**values)


def _emit(text: str, path) -> None:
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_verify(args) -> int:
    cfg = _load_config(args)
    rep = run_suite(args.suite, cfg)
    _emit(json.dumps(rep.to_dict(), indent=1) + "\n", args.output)
    return EXIT_PASS if rep.ok else EXIT_FAIL


def _suffixes(state) -> tuple:
    """Column suffixes of one value: one cell if real, else re and im."""
    return ("",) if state.REAL else ("_re", "_im")


def _coord_header(state) -> list:
    return [f"{blk}{sfx}{i}" for blk in state.BLOCKS
            for i in range(1, state.T + 1) for sfx in _suffixes(state)]


def _cells(state, rows) -> list:
    """The cells of rows of coordinates or H values, as _suffixes names
    them: per row, a list of one float per real value, else of re and im."""
    rows = np.asarray(rows, complex)
    return (rows.real if state.REAL else rows.view(float)).tolist()


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    cfg.validate()
    sched = dyn.Schedule.parse(args.schedule, cfg.h)
    s0 = _seeded_state(cfg, _rngs(cfg, 1)[0])
    ham_flows = mdl.admissible_flows(s0, cfg.depth)
    header = ["sample", "seg", "flow_p", "flow_r", "t_local"]
    header += _coord_header(s0)
    header += [f"H_{f.p}_{f.r}{sfx}" for f in ham_flows for sfx in _suffixes(s0)]
    header.append("drift_max")
    lines = [",".join(header)]
    diverged = False
    try:
        traj = dyn.integrate(s0, sched)
    except DivergenceError as exc:
        traj = exc.last_good
        diverged = True
    vecs = [sample.vec for sample in traj.samples]
    hvals = list(zip(*mdl.stacked_hamiltonians(s0, vecs, ham_flows)))
    coords = _cells(s0, vecs)
    hcells = _cells(s0, hvals)
    fmt = ",".join(["%d"] * 4 + ["%.16e"] * (len(coords[0]) + len(hcells[0])
                                             + 2))
    base = hvals[0]
    for idx, sample in enumerate(traj.samples):
        f_seg = sched.segments[sample.seg].flow
        drift = max(abs(h - h0) / (1 + abs(h0))
                    for h, h0 in zip(hvals[idx], base))
        lines.append(fmt % (idx, sample.seg, f_seg.p, f_seg.r,
                            sample.t_local, *coords[idx], *hcells[idx], drift))
    text = "\n".join(lines) + "\n"
    if diverged:
        text += "# diverged\n"
    _emit(text, args.output)
    return EXIT_DIVERGED if diverged else EXIT_PASS


def _parse_flow(text: str) -> FlowId:
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"flow spec {text!r} must be p:r")
    try:
        return FlowId(int(parts[0]), int(parts[1]))
    except (ValueError, CycloGaudinError) as exc:
        raise ConfigError(f"bad flow spec {text!r}: {exc}")


def cmd_closure(args) -> int:
    cfg = _load_config(args)
    cfg.validate()
    fA, fB = _parse_flow(args.flow_a), _parse_flow(args.flow_b)
    s0 = _seeded_state(cfg, _rngs(cfg, 1)[0])
    r1 = dyn.closure_residual(s0, fA, fB, h=cfg.h, delta=dyn.CLOSURE_DELTA)
    r2 = dyn.closure_residual(s0, fA, fB, h=cfg.h / 2,
                              delta=dyn.CLOSURE_DELTA / 2)
    ratio = r1 / r2 if r2 > 0 else None   # null: RFC 8259 has no Infinity
    out = {"model": cfg.model, "seed": int(cfg.seed),
           "config_digest": cfg.digest(),
           "flow_a": str(fA), "flow_b": str(fB),
           "residual": r1, "residual_refined": r2, "ratio": ratio,
           "h": cfg.h, "delta": dyn.CLOSURE_DELTA}
    _emit(json.dumps(out, indent=1, allow_nan=False) + "\n", args.output)
    return EXIT_PASS


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if args.command == "verify":
                return cmd_verify(args)
            if args.command == "simulate":
                return cmd_simulate(args)
            return cmd_closure(args)
    except DivergenceError as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except CycloGaudinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
