"""Command-line contract: exit codes, JSON report schema, CSV trajectory
format, configuration handling."""
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import cyclogaudin
from cyclogaudin import cli
from cyclogaudin import dynamics as dyn
from cyclogaudin.cli import main
from cyclogaudin.errors import (AdmissibilityError, ConfigError,
                                CycloGaudinError, DivergenceError,
                                StructuralError)

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


def test_verify_failure_exit_code(tmp_path, monkeypatch):
    # one case over its tolerance fails the whole report: exit 1
    from cyclogaudin import suites

    ratmat_suite = suites._SUITE_FUNCS["ratmat"]

    def failing(cfg):
        rep = ratmat_suite(cfg)
        rep.add("forced_failure", 1.0, 0.5)
        return rep
    monkeypatch.setitem(suites._SUITE_FUNCS, "ratmat", failing)
    out = tmp_path / "rep.json"
    code = main(["verify", "--suite", "ratmat", "--T", "2",
                 "--output", str(out)])
    assert code == 1
    rep = json.loads(out.read_text())
    assert rep["pass"] is False
    assert [c["name"] for c in rep["cases"] if not c["pass"]] == [
        "forced_failure"]


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


@pytest.mark.parametrize("argv, patch, family, code, prefix", [
    (["verify", "--suite", "models", "--T", "1"], None, ConfigError, 2,
     "error: "),
    (["simulate", "--schedule", "1:1:0.01", "--model", "toda", "--T", "3"],
     None, AdmissibilityError, 2, "error: "),
    (["verify", "--suite", "algebra", "--T", "2"],
     (cli, "cmd_verify", StructuralError("forced")), StructuralError, 2,
     "error: "),
    (["closure", "--model", "coupled", "--T", "2"],
     (dyn, "closure_residual", DivergenceError("forced", None)),
     DivergenceError, 3, "diverged: "),
], ids=["config", "admissibility", "other", "divergence"])
def test_main_maps_each_exception_family_to_its_exit(tmp_path, capsys,
                                                     monkeypatch, argv, patch,
                                                     family, code, prefix):
    # every CycloGaudinError but a divergence is a usage error (exit 2) and
    # a divergence exits 3, each on one stderr line; the command is checked
    # to raise the family named
    if patch is not None:
        owner, name, exc = patch

        def raises(*args, **kwargs):
            raise exc
        monkeypatch.setattr(owner, name, raises)
    command, raised = getattr(cli, f"cmd_{argv[0]}"), []

    def recorded(args):
        try:
            return command(args)
        except CycloGaudinError as exc:
            raised.append(type(exc))
            raise
    monkeypatch.setattr(cli, f"cmd_{argv[0]}", recorded)
    out = tmp_path / "o"
    assert main(argv + ["--output", str(out)]) == code
    assert raised == [family]
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1
    assert not out.exists()


def test_unknown_config_key_rejected(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"modell": "toda"}))
    assert main(["verify", "--suite", "algebra",
                 "--config", str(cfgfile)]) == 2


@pytest.mark.parametrize("command", [
    ["verify", "--suite", "models"],
    ["simulate", "--schedule", "1:0:0.01"],
    ["closure"],
])
def test_config_file_with_tol_scale_exits_2(tmp_path, capsys, monkeypatch,
                                            command):
    # every tolerance is the one its suite states: a config file that
    # holds tol_scale is refused as an unknown key, on one line and before
    # any suite or RK4 step runs
    from cyclogaudin import dynamics as dyn
    from cyclogaudin import suites

    def no_run(*args):
        raise AssertionError("a suite or an RK4 step ran")
    monkeypatch.setattr(dyn, "rk4_step", no_run)
    for name in suites._SUITE_FUNCS:
        monkeypatch.setitem(suites._SUITE_FUNCS, name, no_run)
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"tol_scale": 1.0}))
    out = tmp_path / "o"
    assert main(command + ["--config", str(cfgfile), "--output", str(out)]) == 2
    assert capsys.readouterr().err == "error: unknown config key 'tol_scale'\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["verify", "--suite", "models"],
    ["simulate", "--schedule", "1:0:0.01"],
    ["closure"],
])
@pytest.mark.parametrize("values", [
    {"depth": 2.5}, {"depth": 2.0}, {"depth": True}, {"seed": "abc"},
    {"seed": 1.5}, {"beta": "x"}, {"beta": None}, {"h": "0.001"},
    {"h": True}, {"T": True},
])
def test_config_values_of_the_wrong_type_exit_2(tmp_path, capsys, monkeypatch,
                                                command, values):
    # a value of the wrong type in the config file is a usage error on one
    # line, raised before any RK4 step runs: no traceback, no exit 1, and
    # no silent cast (seed 1.5 is not seed 1, depth true is not depth 1)
    from cyclogaudin import dynamics as dyn

    def no_step(*args):
        raise AssertionError("an RK4 step ran")
    monkeypatch.setattr(dyn, "rk4_step", no_step)
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(values))
    out = tmp_path / "o"
    assert main(command + ["--config", str(cfgfile), "--output", str(out)]) == 2
    (name, value), = values.items()
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} must be ") and err.count("\n") == 1
    assert repr(value) in err and not out.exists()


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


def test_simulate_divergence_exit_3(tmp_path, capsys, recwarn):
    out = tmp_path / "d.csv"
    # a deliberately explosive coupled run: huge step, strong coupling.
    # The overflow on the way is the exit code, not NumPy warnings
    code = main(["simulate", "--schedule", "3:1:200", "--model",
                 "coupled", "--T", "2", "--seed", "1", "--beta", "1.0",
                 "--h", "1.0", "--output", str(out)])
    assert code == 3
    assert out.read_text().rstrip().endswith("# diverged")
    assert capsys.readouterr().err == ""
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("argv", [
    ["verify", "--beta", "0"],
    ["verify", "--model", "toda", "--beta", "0"],
    ["verify", "--suite", "models", "--model", "coupled", "--beta", "0"],
    ["verify", "--suite", "dynamics", "--model", "coupled", "--beta", "-0.0"],
])
def test_verify_rejects_coupled_beta_zero_before_any_suite(tmp_path, capsys,
                                                           monkeypatch, argv):
    # a run that would take the coupled model to beta = 0, where its
    # bracket degenerates, is a usage error on one line before any suite
    from cyclogaudin import suites

    called = []
    for name in suites._SUITE_FUNCS:
        monkeypatch.setitem(suites._SUITE_FUNCS, name,
                            lambda cfg, name=name: called.append(name))
    out = tmp_path / "o"
    assert main(argv + ["--T", "2", "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "beta = 0" in err
    assert called == [] and not out.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "models", "--model", "toda"],
    ["verify", "--suite", "gaudin", "--model", "coupled"],
    ["simulate", "--schedule", "1:0:0.01"],
    ["simulate", "--model", "coupled", "--schedule", "1:1:0.01"],
    ["closure", "--model", "coupled"],
    ["closure", "--model", "toda", "--flow-b", "2:0"],
])
def test_beta_zero_runs_that_skip_the_coupled_bracket_pass(tmp_path, argv):
    assert main(argv + ["--T", "2", "--beta", "0",
                        "--output", str(tmp_path / "o")]) == 0


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


def test_closure_h_sets_only_the_arc_step_count(tmp_path):
    # each arc takes max(1, round(delta/h)) RK4 steps: at delta = 1e-4
    # every h above 2 delta/3 runs one step of length delta, so --h 1e-3
    # and 4e-4 print the same report values, while 2e-5 runs five steps
    out = tmp_path / "cl.json"
    reads = []
    for h in ("1e-3", "4e-4", "2e-5"):
        assert _run(["closure", "--model", "coupled", "--T", "2",
                     "--h", h], out) == 0
        rep = json.loads(out.read_text())
        reads.append([rep[k] for k in ("residual", "residual_refined",
                                       "ratio")])
    assert reads[0] == reads[1]
    assert all(a != b for a, b in zip(reads[1], reads[2]))
