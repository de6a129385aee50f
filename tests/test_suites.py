"""Verification suites: a case must never pass on samples it did not
evaluate, unexpected failures must surface instead of turning into a
reported residual, and a case must fail when the fact it checks breaks."""
import pytest

from cyclogaudin import models as mdl
from cyclogaudin import suites
from cyclogaudin.errors import PoleProximityError, StructuralError
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
