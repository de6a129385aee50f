"""The comparison tools under tools/."""
import copy
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools"))
import outputs  # noqa: E402
import seed_scan  # noqa: E402


def _scan():
    """Two runs of a scan: one passing, one failing in a single case."""
    return {"runs": [
        {"seed": 0, "T": 2, "pass": True, "failing": [],
         "tightest_margin": 1.5, "tightest_case": "a",
         "residuals_sha256": "0"},
        {"seed": 1, "T": 2, "pass": False,
         "failing": [{"name": "b", "residual": 2e-9, "tol": 1e-9}],
         "tightest_margin": -0.3, "tightest_case": "b",
         "residuals_sha256": "1"}]}


def test_seed_scan_compare_when_only_a_passing_residual_moved(capsys):
    # the hash moves while the failing residuals and the tightest margins
    # stay: moves of exactly 0 must not be compared by their names
    old = _scan()
    for moved in (0, 1):
        new = copy.deepcopy(old)
        new["runs"][moved]["residuals_sha256"] = "moved"
        assert seed_scan.compare(old, new) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == ("2 runs compared, 0 verdict flips, 0 failing-set "
                           "changes, 0 unmatched; largest failing-residual "
                           "move 0, largest tightest-margin move 0 decades")


def test_seed_scan_compare_reports_moves_flips_and_set_changes(capsys):
    old = _scan()
    new = copy.deepcopy(old)
    new["runs"][1]["failing"][0]["residual"] = 3e-9
    new["runs"][1]["tightest_margin"] = -0.5
    new["runs"][1]["residuals_sha256"] = "moved"
    assert seed_scan.compare(old, new) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ("seed 1 T 2: failing residual 0.5 (b); tightest "
                      "margin 0.2 decades")
    assert out[-1].endswith("largest failing-residual move 0.5 (seed 1 T 2 "
                            "b), largest tightest-margin move 0.2 decades "
                            "(seed 1 T 2)")
    flipped = copy.deepcopy(old)
    flipped["runs"][0]["pass"] = False
    flipped["runs"][0]["failing"] = [{"name": "a", "residual": 1.0,
                                      "tol": 0.5}]
    flipped["runs"][0]["residuals_sha256"] = "moved"
    assert seed_scan.compare(old, flipped) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("seed 0 T 2: FLIP pass True -> False; "
                             "FAILING SET +a -")


def test_callers_lists_what_one_command_does_not_enter():
    # one CLI command under the trace: the verify route and the algebra
    # suite are entered, the simulate command is not
    tool = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "tools", "callers.py")
    proc = subprocess.run([sys.executable, tool, "--command",
                           "verify --suite algebra --T 2"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stderr == ""
    missed = proc.stdout.splitlines()
    assert "cli.cmd_simulate [spans]" in missed
    assert not {"cli.cmd_verify [spans]", "suites.algebra_suite [spans]",
                "algebra.grade_component [spans]"} & set(missed)
    assert missed[-1].endswith("pinned by perfbench/spans.py")


def test_field_calls_compare_of_a_checkout_with_itself():
    # the byte-identity check behind every no-change claim: one checkout
    # against itself reads identical counts and fingerprints, exit 0
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    tool = os.path.join(root, "tools", "field_calls.py")
    proc = subprocess.run([sys.executable, tool, root, "--workload",
                           "simulate_csv", "--compare", root],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert lines[-1] == "identical counts and fingerprints"
    assert sum(line.startswith("  simulate_csv: kernel_calls ")
               for line in lines) == 2


def test_outputs_compare_of_the_checkout_with_its_manifest(capsys):
    # the golden-output gate: seed 42 at T = 3, the simulate CSVs, both
    # closure reports and both exit paths, run through cli.main in this
    # process and compared with the committed manifest
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    names = ["verify-s42-T3", "simulate-toda", "simulate-dst",
             "simulate-coupled", "closure-coupled-T3-s42",
             "closure-dst-T2-s0", "refuse-beta0", "diverge-dst-s731"]
    code = outputs.main([root, "--compare",
                         os.path.join(root, "tools", "outputs.json"),
                         *(a for name in names for a in ("--entry", name))])
    out = capsys.readouterr().out.splitlines()
    assert code == 0 and out == [f"{len(names)} entries compared, 0 moved"]
    with open(os.path.join(root, "tools", "outputs.json")) as fh:
        manifest = {e["name"]: e for e in json.load(fh)["entries"]}
    assert set(manifest) == set(outputs.ENTRIES)
    assert manifest["refuse-beta0"]["exit"] == 2
    assert manifest["refuse-beta0"]["sha256"] is None
    assert manifest["diverge-dst-s731"]["exit"] == 3


def test_outputs_compare_reports_each_moved_entry(capsys):
    old = [{"name": n, "argv": [n], "exit": 0, "stderr": [], "sha256": n}
           for n in ("a", "b", "c")]
    new = copy.deepcopy(old)
    assert outputs.compare(old, new) == 0
    assert capsys.readouterr().out == "3 entries compared, 0 moved\n"
    new[0]["stderr"] = ["warning"]
    new[2]["exit"], new[2]["sha256"] = 1, "moved"
    new.append({**new[1], "name": "d"})
    assert outputs.compare(old, new) == 1
    assert capsys.readouterr().out.splitlines() == [
        "a: stderr moved", "c: exit, sha256 moved",
        "d: not in the old manifest", "4 entries compared, 3 moved"]
