"""Command-line contract: exit codes, JSON report schema, CSV trajectory
format, configuration handling."""
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import cyclogaudin
from cyclogaudin.cli import main

REPORT_SCHEMA = {
    "type": "object",
    "required": ["suite", "seed", "config_digest", "cases", "pass"],
    "additionalProperties": False,
    "properties": {
        "suite": {"type": "string"},
        "seed": {"type": "integer"},
        "config_digest": {"type": "string", "pattern": "^[0-9a-f]{16}$"},
        "pass": {"type": "boolean"},
        "cases": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "residual", "tol", "pass"],
                "additionalProperties": False,
                "properties": {
                    "name": {"type": "string"},
                    "residual": {"type": "number"},
                    "tol": {"type": "number"},
                    "pass": {"type": "boolean"},
                },
            },
        },
    },
}


def _run(argv, out):
    return main(argv + ["--output", str(out)])


def test_verify_reports_pass_and_validates_schema(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    out = tmp_path / "rep.json"
    code = _run(["verify", "--suite", "algebra", "--T", "3", "--seed", "7"],
                out)
    assert code == 0
    rep = json.loads(out.read_text())
    jsonschema.validate(rep, REPORT_SCHEMA)
    assert rep["suite"] == "algebra" and rep["seed"] == 7 and rep["pass"]
    names = [c["name"] for c in rep["cases"]]
    assert names == sorted(names)


def test_verify_failure_exit_code(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"tol_scale": 1e-30}))
    out = tmp_path / "rep.json"
    code = main(["verify", "--suite", "ratmat", "--T", "2",
                 "--config", str(cfgfile), "--output", str(out)])
    assert code == 1
    assert json.loads(out.read_text())["pass"] is False


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "models", "--T", "0"],
    ["verify", "--suite", "models", "--T", "1"],
    ["simulate", "--schedule", "1;0;1", "--model", "toda", "--T", "3"],
    ["simulate", "--schedule", "1:0:1", "--model", "toda", "--T", "3",
     "--zeta1", "bogus"],
    ["closure", "--flow-a", "0:0", "--model", "coupled", "--T", "2"],
    ["simulate", "--schedule", "7:0:0,1:0:0.002", "--model", "toda", "--T", "3"],
    ["simulate", "--schedule", "1:1:0,1:0:0.01", "--model", "toda", "--T", "3"],
    ["closure", "--flow-b", "1:1", "--model", "toda", "--T", "2"],
])
def test_config_errors_exit_2(tmp_path, argv):
    assert main(argv + ["--output", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "toda", "--T", "2", "--schedule", "1:0:1e308"],
    ["closure", "--model", "toda", "--T", "2", "--h", "1e-320"],
    ["verify", "--suite", "dynamics", "--model", "toda", "--T", "2",
     "--h", "1e-320"],
])
def test_unrepresentable_step_count_exits_2(tmp_path, capsys, monkeypatch,
                                            argv):
    # |duration|/h overflows to inf: a usage error reported on one line,
    # raised before any RK4 step runs
    from cyclogaudin import dynamics as dyn

    def no_step(*args):
        raise AssertionError("an RK4 step ran")
    monkeypatch.setattr(dyn, "rk4_step", no_step)
    assert main(argv + ["--output", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "is not finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "toda", "--T", "2", "--schedule", "1:0:1e9"],
    ["simulate", "--model", "dst", "--T", "2", "--schedule",
     "1:1:0.01,2:1:100.001"],
    ["closure", "--model", "coupled", "--T", "2", "--h", "1e-300"],
    ["verify", "--suite", "dynamics", "--model", "toda", "--T", "2",
     "--h", "1e-300"],
])
def test_step_count_above_the_cap_exits_2(tmp_path, capsys, monkeypatch,
                                          argv):
    # a finite |duration|/h above MAX_SEGMENT_STEPS: a usage error on one
    # line, raised before any RK4 step runs
    from cyclogaudin import dynamics as dyn

    def no_step(*args):
        raise AssertionError("an RK4 step ran")
    monkeypatch.setattr(dyn, "rk4_step", no_step)
    assert main(argv + ["--output", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"exceed the cap of {dyn.MAX_SEGMENT_STEPS} per segment" in err
    assert not (tmp_path / "o").exists()


def _lone_call(argv):
    """(exit code, stdout, stderr) of main(argv) in a fresh process."""
    src = os.path.dirname(os.path.dirname(cyclogaudin.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    run = subprocess.run(
        [sys.executable, "-c", "import sys; from cyclogaudin.cli import main;"
         " sys.exit(main(sys.argv[1:]))", *argv],
        capture_output=True, text=True, env=env, timeout=300)
    return run.returncode, run.stdout, run.stderr


def test_main_calls_in_one_process_match_lone_calls(capsys, monkeypatch):
    # main parses with one parser per process: a usage error, then verify,
    # then simulate, in that order, each give what a lone call gives
    monkeypatch.setenv("COLUMNS", "80")   # argparse wraps usage to it
    calls = [["simulate", "--model", "toda", "--T", "2"],   # no --schedule
             ["verify", "--suite", "algebra", "--T", "2", "--seed", "7"],
             ["simulate", "--schedule", "1:0:0.01", "--model", "toda",
              "--T", "2", "--seed", "3", "--h", "5e-3"]]
    got = []
    for argv in calls:
        code = main(argv)
        got.append((code, *capsys.readouterr()))
    assert [g[0] for g in got] == [2, 0, 0]
    assert "required: --schedule" in got[0][2]
    assert got == [_lone_call(argv) for argv in calls]


def test_unknown_config_key_rejected(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"modell": "toda"}))
    assert main(["verify", "--suite", "algebra",
                 "--config", str(cfgfile)]) == 2


def test_flags_override_config_file(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"seed": 5, "T": 2}))
    out = tmp_path / "rep.json"
    code = main(["verify", "--suite", "algebra", "--config", str(cfgfile),
                 "--seed", "9", "--output", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["seed"] == 9


def test_simulate_csv_contract(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["simulate", "--schedule", "1:0:0.05", "--model", "toda",
            "--T", "3", "--seed", "3", "--h", "1e-3"]
    assert _run(argv, out1) == 0
    assert _run(argv, out2) == 0
    raw = out1.read_bytes()
    # bit-exact reproducibility, LF endings
    assert raw == out2.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    header = lines[0].split(",")
    assert header[:5] == ["sample", "seg", "flow_p", "flow_r", "t_local"]
    assert "q1" in header and "p3" in header and "H_1_0" in header
    assert header[-1] == "drift_max"
    assert len(lines) == 1 + 51          # initial sample + 50 steps
    row = lines[1].split(",")
    assert len(row) == len(header)
    # 17 significant digits on every numeric cell
    assert "e" in row[5] and len(row[5].split("e")[0].lstrip("-").replace(
        ".", "")) == 17
    # the Hamiltonian drift column stays at integrator roundoff
    drift = max(float(l.split(",")[-1]) for l in lines[1:])
    assert drift <= 1e-12


_DST_COLUMNS = ["x_re1", "x_im1", "x_re2", "x_im2",
                "X_re1", "X_im1", "X_re2", "X_im2"]
_TODA_COLUMNS = ["q_re1", "q_im1", "q_re2", "q_im2",
                 "p_re1", "p_im1", "p_re2", "p_im2"]
_H_COLUMNS = ["H_1_0_re", "H_1_0_im", "H_1_1_re", "H_1_1_im",
              "H_2_0_re", "H_2_0_im", "H_2_1_re", "H_2_1_im",
              "H_3_0_re", "H_3_0_im", "H_3_1_re", "H_3_1_im"]


@pytest.mark.parametrize("model, coords", [
    ("dst", _DST_COLUMNS),
    ("coupled", _TODA_COLUMNS + _DST_COLUMNS),
], ids=["dst", "coupled"])
def test_simulate_complex_model_headers(tmp_path, model, coords):
    out = tmp_path / "c.csv"
    code = _run(["simulate", "--schedule", "1:1:0.01", "--model", model,
                 "--T", "2", "--seed", "4"], out)
    assert code == 0
    header = out.read_text().splitlines()[0].split(",")
    assert header == (["sample", "seg", "flow_p", "flow_r", "t_local"]
                      + coords + _H_COLUMNS + ["drift_max"])


@pytest.mark.parametrize("model, T, schedule", [
    ("toda", 3, "1:0:0.01,2:0:0.01"),
    ("dst", 2, "1:1:0.01,2:0:0.005"),
    ("coupled", 2, "1:0:0.01,2:1:0.01"),
])
def test_simulate_hamiltonian_cells_match_per_row_values(tmp_path, model, T,
                                                         schedule):
    # every H cell is "%.16e" of hamiltonian_value at the state rebuilt
    # from its row's coordinate cells, which %.16e keeps lossless
    from cyclogaudin import models as mdl
    from cyclogaudin.suites import RunConfig, _rngs, _seeded_state
    out = tmp_path / "h.csv"
    assert _run(["simulate", "--schedule", schedule, "--model", model,
                 "--T", str(T), "--seed", "5"], out) == 0
    cfg = RunConfig(model=model, T=T, seed=5)
    s0 = _seeded_state(cfg, _rngs(cfg, 1)[0])
    flows = mdl.admissible_flows(s0, cfg.depth)
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    first_h = header.index(f"H_{flows[0].p}_{flows[0].r}"
                           + ("" if s0.REAL else "_re"))
    assert len(lines) > 10
    for line in lines[1:]:
        cells = line.split(",")
        vals = [float(c) for c in cells[5:first_h]]
        vec = (np.array(vals) if s0.REAL
               else np.array(vals[0::2]) + 1j * np.array(vals[1::2]))
        state = mdl.unpack(s0, vec)
        expect = []
        for f in flows:
            h = mdl.hamiltonian_value(state, f)
            expect += [h.real] if s0.REAL else [h.real, h.imag]
        assert cells[first_h:-1] == ["%.16e" % v for v in expect]


def test_simulate_divergence_exit_3(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    out = tmp_path / "d.csv"
    # a deliberately explosive coupled run: huge step, strong coupling
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["simulate", "--schedule", "3:1:200", "--model",
                     "coupled", "--T", "2", "--seed", "1", "--beta", "1.0",
                     "--h", "1.0", "--output", str(out)])
    assert code == 3
    assert out.read_text().rstrip().endswith("# diverged")


def test_run_suite_rejects_unknown_name():
    from cyclogaudin.errors import ConfigError
    from cyclogaudin.suites import RunConfig, run_suite
    with pytest.raises(ConfigError):
        run_suite("bogus", RunConfig())


def test_closure_command_json(tmp_path):
    out = tmp_path / "cl.json"
    code = _run(["closure", "--flow-a", "1:0", "--flow-b", "1:1",
                 "--model", "coupled", "--T", "2", "--seed", "6",
                 "--beta", "0.5", "--zeta1", "0.9"], out)
    assert code == 0
    rep = json.loads(out.read_text())
    assert {"model", "seed", "config_digest", "flow_a", "flow_b", "residual",
            "residual_refined", "ratio", "h", "delta"} <= set(rep)
    assert rep["residual"] <= 1e-6
    assert rep["ratio"] >= 3.0 or rep["residual_refined"] < 1e-12
    # DST (1, 0) is structurally zero, so both residuals are exactly 0 and
    # the ratio is null: the report parses as strict JSON (no Infinity)
    code = _run(["closure", "--flow-a", "1:0", "--flow-b", "1:1",
                 "--model", "dst", "--T", "3", "--seed", "42"], out)
    assert code == 0

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    rep = json.loads(out.read_text(), parse_constant=reject)
    assert rep["residual"] == rep["residual_refined"] == 0.0
    assert rep["ratio"] is None
