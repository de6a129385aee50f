"""Verification suites: a case must never pass on samples it did not
evaluate, unexpected failures must surface instead of turning into a
reported residual, and a case must fail when the fact it checks breaks."""
import pytest

from cyclogaudin import dynamics as dyn
from cyclogaudin import gaudin
from cyclogaudin import models as mdl
from cyclogaudin import suites
from cyclogaudin.errors import (CycloGaudinError, DivergenceError,
                                PoleProximityError, StructuralError)
from cyclogaudin.ratmat import RationalMatrix, orbit_family
from cyclogaudin.suites import RunConfig


def _raise(exc):
    def fn(*args, **kwargs):
        raise exc
    return fn


def test_cybe_case_propagates_unexpected_errors(monkeypatch):
    monkeypatch.setattr(suites, "cybe_residual", _raise(RuntimeError("broken")))
    with pytest.raises(RuntimeError):
        suites.rmatrix_suite(RunConfig(T=3, seed=42))


def test_cybe_case_fails_when_too_few_samples_evaluate(monkeypatch):
    monkeypatch.setattr(suites, "cybe_residual",
                        _raise(PoleProximityError("every draw collides")))
    with pytest.raises(StructuralError):
        suites.rmatrix_suite(RunConfig(T=3, seed=42))


def test_rhs_structure_propagates_unexpected_errors(monkeypatch):
    monkeypatch.setattr(suites, "lax_rhs", _raise(RuntimeError("broken")))
    with pytest.raises(RuntimeError):
        suites.gaudin_suite(RunConfig(T=3, seed=42))


def test_rhs_structure_reports_a_structural_failure(monkeypatch):
    monkeypatch.setattr(suites, "lax_rhs",
                        _raise(StructuralError("commutator does not close")))
    rep = suites.gaudin_suite(RunConfig(T=3, seed=42))
    (case,) = [c for c in rep.cases if c.name == "rhs_structure"]
    assert not case.ok and not rep.ok


def _weight_one_partner(f, L, P):
    """gaudin.lax_partner with its orbit built at weight 1 instead of 0."""
    point = P.slot_point(f.r)
    prin = gaudin._times_monomial(L.power_series(point, f.p, -1), point,
                                  f.p).principal()
    poles = ([(0j, prin)] if f.r == 0 else
             orbit_family(point, prin, P.root, 1))
    return RationalMatrix(L.dim, [], poles, validate=False).trim()


def test_partner_equivariance_fails_on_a_weight_one_partner(monkeypatch):
    # lax_rhs forms [L, h] at the orbit representatives only, which holds
    # because h has weight 0: partner_equivariance certifies that, and a
    # partner built at weight 1 fails it by orders of magnitude (252
    # against 1e-11 here).  rhs_structure never saw the weight: it reads
    # 0.0 under the mutation, as it did when lax_rhs formed every pole
    monkeypatch.setattr(gaudin, "lax_partner", _weight_one_partner)
    monkeypatch.setattr(suites, "lax_partner", _weight_one_partner)
    rep = suites.gaudin_suite(RunConfig(T=3, seed=42))
    cases = {c.name: c for c in rep.cases}
    equivariance = cases["partner_equivariance"]
    assert equivariance.residual > 1e12 * equivariance.tol
    assert cases["rhs_structure"].residual == 0.0
    assert [c.name for c in rep.cases if not c.ok] == ["partner_equivariance"]


@pytest.mark.parametrize("sign, models", [
    ("SECTOR_SIGN_PQ", ("toda", "coupled")),
    ("SECTOR_SIGN_XX", ("dst", "coupled")),
])
def test_canonical_pattern_fails_on_a_flipped_sector_sign(monkeypatch, sign,
                                                          models):
    # canonical_pattern holds every sector of the model to the paper's
    # convention, so flipping one sector sign fails each model that has it
    monkeypatch.setattr(mdl, sign, -getattr(mdl, sign))
    for model in models:
        rep = suites.dynamics_suite(RunConfig(model=model, T=3, seed=42))
        (case,) = [c for c in rep.cases if c.name == "canonical_pattern"]
        assert not case.ok, model


def test_no_suite_or_cli_command_builds_a_jet(tmp_path, monkeypatch):
    # the dual-number layer is a reference only: every suite, simulate and
    # closure run without building a single jets.Jet
    from cyclogaudin import cli, jets

    monkeypatch.setattr(jets.Jet, "__init__", _raise(AssertionError("Jet")))
    for T in (2, 3):
        assert suites.run_suite("all", RunConfig(T=T, seed=42)).ok
    out = str(tmp_path / "o")
    for argv in (["simulate", "--model", "coupled", "--T", "3",
                  "--schedule", "1:0:0.01,2:1:0.01"],
                 ["closure", "--model", "coupled", "--T", "3"]):
        assert cli.main(argv + ["--output", out]) == 0


@pytest.mark.parametrize("model", ["toda", "dst", "coupled"])
def test_energy_drift_matches_per_sample_hamiltonian_values(model):
    # the case reads H at every 50th sample through FlowPlan.values on one
    # stack: bit for bit hamiltonian_value on each unpacked sample
    cfg = RunConfig(model=model, T=3, seed=42)
    (case,) = [c for c in suites.dynamics_suite(cfg).cases
               if c.name == "energy_drift"]
    s = suites._seeded_state(cfg, suites._rngs(cfg, 2)[0])
    fA, fB = mdl.admissible_flows(s, 2)[:2]
    traj = dyn.integrate(s, dyn.Schedule.from_pairs([(fA, 0.4), (fB, 0.4)],
                                                    cfg.h))
    f = next(f for f in (fA, fB) if not mdl.FieldKernel(s, f).zero)
    e0 = mdl.hamiltonian_value(traj.state(0), f)
    drift = max(abs(mdl.hamiltonian_value(traj.state(i), f) - e0)
                for i in range(0, len(traj), 50))
    assert drift > 0 and case.residual == drift / (1 + abs(e0))


@pytest.mark.parametrize("cfg, digest", [
    (RunConfig(), "6fd56b3b8aebea8a"),
    (RunConfig(model="coupled", T=5, zeta1=0.7 + 0.4j, beta=0.25,
               seed=2 ** 64 - 1, depth=2, h=5e-4), "d55c6af4da46193c"),
])
def test_config_digest_is_pinned(cfg, digest):
    # the digest that every report and closure output carries: the seven
    # fields as one sorted-key JSON blob, zeta1 as [re, im], seed an int
    assert cfg.digest() == digest


def test_zeta1_out_of_double_range_raises_a_package_error():
    # library callers get a CycloGaudinError, not Python's OverflowError,
    # when a valid zeta1 puts the expansion weights out of double range
    with pytest.raises(DivergenceError, match="^complex exponentiation$") as exc:
        suites.run_suite("all", RunConfig(T=3, zeta1=1e40))
    assert isinstance(exc.value, CycloGaudinError)
    assert exc.value.last_good is None
