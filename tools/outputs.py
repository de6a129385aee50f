"""Golden-output manifest of the CLI: the outputs every byte-identity
claim is checked on.

    python3 tools/outputs.py [CHECKOUT] [--entry NAME] [--compare OLD]
        [--write]

This runs each entry of ENTRIES through cyclogaudin.cli.main in this
process, on the cyclogaudin of CHECKOUT (default: the checkout that holds
this script), with its output file in a temporary directory:

    verify-sS-TN       verify --suite all --seed S --T N, at seeds 42, 0
                       and 1 and T = 2, 3, 4
    simulate-MODEL     the three simulate CSVs of the simulate_csv
                       benchmark workload (seed 42)
    closure-...        closure, coupled T = 3 seed 42 (flows 1:0 x 1:1)
                       and DST T = 2 seed 0 (flows 2:1 x 1:1)
    refuse-beta0       verify at beta = 0, a usage error (exit 2)
    diverge-dst-s731   simulate --model dst --T 3 --seed 731 --schedule
                       3:1:1, a diverging run (exit 3)

Per entry it records the argv, the exit code, the stderr lines (the
NumPy warnings the command raises, formatted as the interpreter prints
them, then what it wrote) and the SHA-256 of the output file, or null if
the command wrote none.  The checkout path in stderr reads <checkout> and
the temporary directory reads <out>, in stderr and argv alike, so the
manifests of two checkouts compare entry by entry; tools/outputs.json is
the committed manifest.  --entry NAME (repeatable) runs only those
entries.

Without --compare or --write the manifest is printed.  --write writes it
to CHECKOUT/tools/outputs.json.  --compare OLD sets it against the
manifest file OLD: one line per entry whose exit code, stderr or output
moved, or which OLD lacks, then a summary line; the exit status is 1 when
any entry moved, else 0.  The seed scan has its own tool
(tools/seed_scan.py).
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))

ENTRIES = {}   # name -> argv, with the output file as <out>/NAME.ext
for _seed in (42, 0, 1):
    for _T in (2, 3, 4):
        ENTRIES[f"verify-s{_seed}-T{_T}"] = [
            "verify", "--suite", "all", "--seed", str(_seed), "--T", str(_T),
            "--output", f"<out>/verify-s{_seed}-T{_T}.json"]
for _model, _T, _schedule in (
        ("toda", 5, "1:0:0.05,2:0:0.05,3:0:0.05"),
        ("dst", 3, "1:1:0.04,2:1:0.03,3:1:0.03,2:0:0.01"),
        ("coupled", 3, "1:0:0.03,1:1:0.03,2:1:0.02,3:0:0.02")):
    ENTRIES[f"simulate-{_model}"] = [
        "simulate", "--model", _model, "--T", str(_T), "--seed", "42",
        "--schedule", _schedule, "--output", f"<out>/simulate-{_model}.csv"]
ENTRIES["closure-coupled-T3-s42"] = [
    "closure", "--model", "coupled", "--T", "3", "--seed", "42",
    "--output", "<out>/closure-coupled-T3-s42.json"]
ENTRIES["closure-dst-T2-s0"] = [
    "closure", "--model", "dst", "--T", "2", "--seed", "0", "--flow-a",
    "2:1", "--flow-b", "1:1", "--output", "<out>/closure-dst-T2-s0.json"]
ENTRIES["refuse-beta0"] = ["verify", "--beta", "0",
                           "--output", "<out>/refuse-beta0.json"]
ENTRIES["diverge-dst-s731"] = [
    "simulate", "--model", "dst", "--T", "3", "--seed", "731", "--schedule",
    "3:1:1", "--output", "<out>/diverge-dst-s731.csv"]


def collect(checkout: str, names) -> list:
    """The manifest entries of names, run through the checkout's cli.main."""
    checkout = os.path.abspath(checkout)
    src = os.path.join(checkout, "src")
    sys.path.insert(0, src)
    from cyclogaudin import cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"cyclogaudin was imported from {cli.__file__}, "
                         f"not from {src}")
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            argv = ENTRIES[name]
            err = io.StringIO()
            # record the warnings as a process of its own would print them:
            # once per source line, from a fresh registry
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("default")
                code = cli.main([a.replace("<out>", tmp) for a in argv])
            text = "".join(warnings.formatwarning(w.message, w.category,
                                                  w.filename, w.lineno)
                           for w in caught) + err.getvalue()
            text = text.replace(checkout, "<checkout>").replace(tmp, "<out>")
            path = argv[-1].replace("<out>", tmp)
            digest = None
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                os.remove(path)
            out.append({"name": name, "argv": argv, "exit": code,
                        "stderr": text.splitlines(), "sha256": digest})
    return out


def compare(old: list, new: list) -> int:
    """Print each entry of new that moved from old, and a summary line;
    return 1 when any moved, else 0."""
    by_name = {e["name"]: e for e in old}
    moved = 0
    for entry in new:
        before = by_name.get(entry["name"])
        if before is None:
            print(f"{entry['name']}: not in the old manifest")
            moved += 1
            continue
        what = [k for k in ("argv", "exit", "stderr", "sha256")
                if entry[k] != before[k]]
        if what:
            print(f"{entry['name']}: {', '.join(what)} moved")
            moved += 1
    print(f"{len(new)} entries compared, {moved} moved")
    return 1 if moved else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout", nargs="?", default=os.path.dirname(HERE),
                    help="checkout to run (default: this one)")
    ap.add_argument("--entry", action="append", choices=sorted(ENTRIES),
                    help="entry name (repeatable; default: all)")
    ap.add_argument("--compare", metavar="OLD",
                    help="manifest file to compare with; exit 1 on any move")
    ap.add_argument("--write", action="store_true",
                    help="write CHECKOUT/tools/outputs.json")
    args = ap.parse_args(argv)
    entries = collect(args.checkout, args.entry or ENTRIES)
    code = 0
    if args.compare:
        with open(args.compare) as fh:
            code = compare(json.load(fh)["entries"], entries)
    text = json.dumps({"entries": entries}, indent=1) + "\n"
    if args.write:
        with open(os.path.join(args.checkout, "tools", "outputs.json"),
                  "w") as fh:
            fh.write(text)
    elif not args.compare:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
