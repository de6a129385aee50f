"""End-to-end acceptance checks for the cyclotomic Gaudin hierarchy.

Each test certifies one advertised guarantee of the package at its stated
tolerance: the classical Yang-Baxter equation and the partial-fraction
averaging identity behind the r-matrix kernel, the quadratic Sklyanin
bracket of Lax entries, the kernel-projection/split agreement, the
closed-form first Hamiltonians and flow fields, the residue theorem for
the Hamiltonian family, involutivity, conservation and flow
commutativity under RK4 integration, the Lagrangian closure relation,
the Toda and DST gauge maps, the beta -> 0 reduction of the coupled
model, and the command-line contract.

Dynamical checks run at fixed calibrated amplitudes: the higher flows
are polynomial of high degree in the complex sector, so state norms are
chosen per flow such that an RK4 step of h = 1e-3 resolves the motion to
well below the certified tolerances while the defect being measured
stays above integrator roundoff where a convergence ratio is asserted.
"""
import json
import time

import numpy as np
import pytest

from cyclogaudin import dynamics as dyn
from cyclogaudin import models as mdl
from cyclogaudin.algebra import grade_component, primitive_root, sigma_pow
from cyclogaudin.cli import main
from cyclogaudin.errors import PoleProximityError
from cyclogaudin.gaudin import (FlowId, GaudinCoefficients, PoleConfig,
                                assemble_lax, hamiltonian,
                                hamiltonian_at_infinity, lax_partner)
from cyclogaudin.ratmat import RationalMatrix, localize, split
from cyclogaudin.rmatrix import (averaging_residual, cybe_residual,
                                 kernel_projection, sklyanin_residual)
from conftest import mis_scaled_closure

H_STEP = 1e-3
PROBES = [0.41 + 0.23j, -0.36 + 0.49j, 1.31 + 0.52j,
          -1.22 - 0.35j, 0.15 - 0.62j]


def _cmat(rng, T, scale=1.0):
    return scale * (rng.normal(size=(T, T)) + 1j * rng.normal(size=(T, T)))


def _point(rng, lo=0.4, hi=1.6):
    return complex(rng.uniform(lo, hi) * np.exp(2j * np.pi * rng.uniform()))


# ---------------------------------------------------------------------------
# r-matrix kernel identities
# ---------------------------------------------------------------------------

def test_classical_yang_baxter_equation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    for T in (1, 2, 3, 4):
        root = primitive_root(T)
        done = 0
        while done < 100:
            lam, mu, nu = (_point(rng) for _ in range(3))
            try:
                res = cybe_residual(lam, mu, nu, root)
            except PoleProximityError:
                continue
            assert res <= 1e-12
            done += 1
    assert time.perf_counter() - t0 < 10.0


def test_averaging_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    done = 0
    while done < 1000:
        T = int(rng.integers(1, 7))
        root = primitive_root(T)
        z1, z2 = _point(rng), _point(rng)
        if min(abs(z1 - root.power(k) * z2) for k in range(T)) < 0.2:
            continue
        l = int(rng.integers(-T, 2 * T))
        assert averaging_residual(z1, z2, l, root) <= 1e-12
        done += 1
    assert time.perf_counter() - t0 < 1.0


def test_sklyanin_bracket_of_lax_entries():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    for T in (2, 3):
        makers = [lambda: mdl.random_toda(T, rng),
                  lambda: mdl.random_dst(T, rng, zeta1=0.9),
                  lambda: mdl.random_coupled(T, rng, beta=0.5, zeta1=0.9)]
        for make in makers:
            for _ in range(20):
                s = make()
                lam = complex(rng.uniform(0.45, 0.62)
                              * np.exp(2j * np.pi * rng.uniform()))
                mu = complex(rng.uniform(1.55, 1.8)
                             * np.exp(2j * np.pi * rng.uniform()))
                assert sklyanin_residual(s, lam, mu) <= 1e-9
    assert time.perf_counter() - t0 < 30.0


# ---------------------------------------------------------------------------
# kernel projection vs partial-fraction split
# ---------------------------------------------------------------------------

def _random_weight_zero(rng, T, N):
    """A weight-0 equivariant rational function with poles on the slot
    orbits: hierarchy Lax partners plus a graded constant."""
    zetas = tuple((0.8 + 0.55 * r) * np.exp(2j * np.pi * rng.uniform())
                  for r in range(N))
    P = PoleConfig(T, zetas)
    C = GaudinCoefficients(grade_component(_cmat(rng, T, 0.5), 0, T),
                           grade_component(_cmat(rng, T, 0.5), -1, T),
                           [_cmat(rng, T, 0.5) for _ in range(N)],
                           grade_component(_cmat(rng, T, 0.5), 1, T), T)
    L = assemble_lax(C, P)
    R0 = lax_partner(FlowId(1, 0), L, P) \
        + lax_partner(FlowId(2, N), L, P) \
        + RationalMatrix.constant(grade_component(_cmat(rng, T, 0.5), 0, T))
    return R0, P


def test_kernel_projection_matches_split():
    rng = np.random.default_rng(404)
    for i in range(50):
        T = (2, 3)[i % 2]
        N = (i // 2) % 3
        R0, P = _random_weight_zero(rng, T, N)
        X = localize(R0, P.zetas, 8)
        reg, sing = split(R0, P.root, P.zetas, weight=0)
        Rp = kernel_projection(X, "+", P.root)
        Rm = kernel_projection(X, "-", P.root)
        worst = max(np.max(np.abs(np.asarray(a.coeff(n))
                                  - np.asarray(b.coeff(n))))
                    for a, b in zip(Rp.series, reg.series)
                    for n in range(max(a.low, b.low),
                                   min(a.trunc, b.trunc) + 1))
        assert worst <= 1e-10
        for _ in range(2):
            lam = _point(rng)
            if min(abs(lam - P.root.power(k) * z)
                   for z in (0,) + P.zetas for k in range(T)) < 0.15:
                continue
            assert np.max(np.abs(Rm.eval(lam) + sing.eval(lam))) <= 1e-10


# ---------------------------------------------------------------------------
# closed-form first Hamiltonians and flow fields
# ---------------------------------------------------------------------------

def _closed_form_h10(C, P):
    A00, A01, Ainf = C.A0_0, C.A0_1, C.Ainf
    tr = np.trace
    return 0.5 * tr(A00 @ A00) \
        - sum(tr(A01 @ Ar) / z for Ar, z in zip(C.A_list, P.zetas)) \
        + tr(A01 @ Ainf)


def _closed_form_h1r(C, P, r):
    T, root = C.T, P.root
    tr = np.trace
    Ar, zr = C.A_list[r - 1], P.zetas[r - 1]
    val = tr(C.A0_0 @ Ar) + tr(C.A0_1 @ Ar) / zr + tr(Ar @ C.Ainf) * zr
    val += sum(tr(Ar @ sigma_pow(Ar, k, root)) for k in range(T)) / (2 * T)
    for s, (As, zs) in enumerate(zip(C.A_list, P.zetas), start=1):
        if s == r:
            continue
        val += sum(tr(Ar @ sigma_pow(As, k, root))
                   * zr / (zr - root.power(k) * zs) for k in range(T)) / T
    return val


def test_first_hamiltonians_match_closed_forms():
    rng = np.random.default_rng(505)
    for T in (2, 3):
        for N in (1, 2):
            for _ in range(5):
                zetas = tuple((0.8 + 0.5 * r)
                              * np.exp(2j * np.pi * rng.uniform())
                              for r in range(N))
                P = PoleConfig(T, zetas)
                C = GaudinCoefficients(
                    grade_component(_cmat(rng, T), 0, T),
                    grade_component(_cmat(rng, T), -1, T),
                    [_cmat(rng, T) for _ in range(N)],
                    grade_component(_cmat(rng, T), 1, T), T)
                L = assemble_lax(C, P)
                assert abs(hamiltonian(FlowId(1, 0), L, P)
                           - _closed_form_h10(C, P)) <= 1e-11
                for r in range(1, N + 1):
                    assert abs(hamiltonian(FlowId(1, r), L, P)
                               - _closed_form_h1r(C, P, r)) <= 1e-11


def test_first_flow_fields_match_closed_forms():
    rng = np.random.default_rng(606)
    s = mdl.random_toda(4, rng)
    np.testing.assert_allclose(mdl.flow_field(s, FlowId(1, 0)),
                               mdl.printed_flow_field(s, FlowId(1, 0)),
                               atol=1e-11)
    s = mdl.random_coupled(2, rng, beta=0.5, zeta1=0.9)
    for r in (0, 1):
        np.testing.assert_allclose(mdl.flow_field(s, FlowId(1, r)),
                                   mdl.printed_flow_field(s, FlowId(1, r)),
                                   atol=1e-11)
    # the DST fields agree after projecting out the scaling-gauge
    # direction (x, -X), along which the Lax matrix is constant
    s = mdl.random_dst(3, rng, zeta1=1.05)
    g = np.concatenate([s.x, -s.X])
    for r in (0, 1):
        diff = (mdl.flow_field(s, FlowId(1, r))
                - mdl.printed_flow_field(s, FlowId(1, r)))
        alpha = np.vdot(g, diff) / np.vdot(g, g)
        assert np.max(np.abs(diff - alpha * g)) <= 1e-11


# ---------------------------------------------------------------------------
# residue theorem for the Hamiltonian family
# ---------------------------------------------------------------------------

def test_hamiltonian_residues_sum_to_zero():
    rng = np.random.default_rng(707)
    states = [mdl.random_toda(3, rng),
              mdl.random_dst(2, rng, zeta1=0.9),
              mdl.random_coupled(2, rng, beta=0.5, zeta1=0.9)]
    for s in states:
        L, P = mdl.lax(s), mdl.config_of(s)
        for p in range(1, 7):
            finite = [hamiltonian(FlowId(p, r), L, P)
                      for r in range(P.N + 1)]
            total = sum(finite) + hamiltonian_at_infinity(p, L, P)
            assert abs(total) <= 1e-10
    s = states[0]
    L, P = mdl.lax(s), mdl.config_of(s)
    for p in range(1, 7):
        assert abs(hamiltonian_at_infinity(p, L, P)
                   + hamiltonian(FlowId(p, 0), L, P)) <= 1e-10


# ---------------------------------------------------------------------------
# involutivity
# ---------------------------------------------------------------------------

def test_hamiltonians_in_involution():
    rng = np.random.default_rng(808)
    states = [mdl.random_toda(T, rng) for T in (2, 3, 4, 5)]
    states += [mdl.random_dst(T, rng, zeta1=0.9) for T in (2, 3)]
    states += [mdl.random_coupled(T, rng, beta=0.5, zeta1=0.9)
               for T in (2, 3)]
    for s in states:
        flows = mdl.admissible_flows(s, 6)
        grid = dyn.involutivity_matrix(s, flows)
        assert np.max(grid) <= 1e-9


# ---------------------------------------------------------------------------
# calibrated states for the integrated-dynamics checks
# ---------------------------------------------------------------------------

def _toda_state(scale):
    rng = np.random.default_rng(2024)
    return mdl.random_toda(3, rng, scale=scale)


def _dst_state():
    rng = np.random.default_rng(2024)
    s = mdl.random_dst(2, rng, zeta1=0.9)
    return mdl.DSTState(0.6 * s.x, 0.6 * s.X, 0.7 * s.c, s.zeta1)


def _coupled_state(eps):
    rng = np.random.default_rng(2024)
    base = mdl.random_toda(2, rng, scale=0.35)
    c = 0.3 * rng.uniform(-1, 1, 2) + 0j
    u = rng.normal(size=2) + 1j * rng.normal(size=2)
    w = rng.normal(size=2) + 1j * rng.normal(size=2)
    u /= np.linalg.norm(u)
    w /= np.linalg.norm(w)
    return mdl.CoupledState(base.q.astype(complex), base.p.astype(complex),
                            eps * u, eps * w, c, 0.9, 0.1)


# complex-sector amplitude per coupled flow (conservation runs) and per
# unordered coupled flow pair (commutativity runs)
COUPLED_FLOW_EPS = {(1, 0): 0.3, (1, 1): 0.3, (2, 0): 0.3,
                    (2, 1): 0.05, (3, 0): 0.01, (3, 1): 3e-5}
COUPLED_PAIR_EPS = {
    ((1, 0), (1, 1)): 0.3, ((1, 0), (2, 0)): 0.3, ((1, 0), (2, 1)): 0.3,
    ((1, 0), (3, 0)): 4.082e-2, ((1, 0), (3, 1)): 1.259e-4,
    ((1, 1), (2, 0)): 0.3, ((1, 1), (2, 1)): 0.3,
    ((1, 1), (3, 0)): 1.931e-2, ((1, 1), (3, 1)): 7.44e-6,
    ((2, 0), (2, 1)): 0.3, ((2, 0), (3, 0)): 3.485e-2,
    ((2, 0), (3, 1)): 1.075e-4, ((2, 1), (3, 0)): 2.915e-3,
    ((2, 1), (3, 1)): 7.20e-5, ((3, 0), (3, 1)): 3.94e-6,
}


# ---------------------------------------------------------------------------
# conservation under integration
# ---------------------------------------------------------------------------

def _assert_drift(state, f):
    traj = dyn.integrate(state, dyn.Schedule.from_pairs([(f, 1.0)], H_STEP))
    drift = dyn.conservation_drift(traj, PROBES, 4)
    spectral = max(v for k, v in drift.items() if isinstance(k, tuple))
    kinematic = max(v for k, v in drift.items() if isinstance(k, str))
    assert spectral <= 1e-8, f"{f}: spectral drift {spectral:.3e}"
    assert kinematic <= 1e-12, f"{f}: invariant drift {kinematic:.3e}"


def test_spectral_invariants_conserved_toda():
    s = _toda_state(0.6)
    for p in (1, 2, 3):
        _assert_drift(s, FlowId(p, 0))


def test_spectral_invariants_conserved_dst():
    s = _dst_state()
    for f in mdl.admissible_flows(s, 3):
        _assert_drift(s, f)


def test_spectral_invariants_conserved_coupled():
    for (p, r), eps in COUPLED_FLOW_EPS.items():
        _assert_drift(_coupled_state(eps), FlowId(p, r))


# ---------------------------------------------------------------------------
# pairwise flow commutativity
# ---------------------------------------------------------------------------

def _assert_commutes(state, fA, fB):
    d1 = dyn.commutativity_defect(state, fA, fB, tau=1.0, h=H_STEP)
    assert d1 <= 1e-8, f"{fA}x{fB}: defect {d1:.3e}"
    d2 = dyn.commutativity_defect(state, fA, fB, tau=1.0, h=H_STEP / 2)
    # fourth-order shrink, asserted only above integrator roundoff
    if d2 >= 1e-12:
        assert d1 / d2 >= 12.0, f"{fA}x{fB}: ratio {d1 / d2:.1f}"
    return d1


def test_flows_commute_toda():
    s = _toda_state(1.2)
    flows = mdl.admissible_flows(s, 3)
    for i, fA in enumerate(flows):
        for fB in flows[i + 1:]:
            _assert_commutes(s, fA, fB)


def test_flows_commute_dst():
    s = _dst_state()
    flows = mdl.admissible_flows(s, 3)
    zero = {f for f in flows if mdl.FieldKernel(s, f).zero}
    assert zero == {FlowId(p, 0) for p in (1, 2, 3)}
    for i, fA in enumerate(flows):
        for fB in flows[i + 1:]:
            d1 = _assert_commutes(s, fA, fB)
            # a structurally zero flow leaves the state as it is
            if fA in zero or fB in zero:
                assert d1 == 0.0, f"{fA}x{fB}: defect {d1:.3e}"


def test_flows_commute_coupled():
    for (a, b), eps in COUPLED_PAIR_EPS.items():
        _assert_commutes(_coupled_state(eps), FlowId(*a), FlowId(*b))


# ---------------------------------------------------------------------------
# Lagrangian closure relation
# ---------------------------------------------------------------------------

def test_closure_relation():
    rng = np.random.default_rng(2024)
    s_dst = mdl.random_dst(2, rng, zeta1=0.9)
    rng = np.random.default_rng(2024)
    s_cpl = mdl.random_coupled(2, rng, beta=0.5, zeta1=0.9)
    cases = [(s_dst, FlowId(1, 1), FlowId(2, 1)),
             (s_cpl, FlowId(1, 0), FlowId(1, 1)),
             (s_cpl, FlowId(1, 1), FlowId(2, 1)),
             (s_cpl, FlowId(1, 0), FlowId(2, 0))]
    for s, fA, fB in cases:
        r1 = dyn.closure_residual(s, fA, fB, h=H_STEP, delta=1e-4)
        assert r1 <= 1e-6
        r2 = dyn.closure_residual(s, fA, fB, h=H_STEP, delta=5e-5)
        assert r1 / r2 >= 3.0
        wrong = mis_scaled_closure(s, fA, fB, h=H_STEP, delta=1e-4)
        assert wrong > 1e-3


# ---------------------------------------------------------------------------
# gauge maps
# ---------------------------------------------------------------------------

def test_gauge_transformation_residuals():
    rng = np.random.default_rng(909)
    for T in (2, 3, 4):
        for _ in range(20):
            lam = _point(rng, 0.5, 1.5)
            assert mdl.toda_gauge_residual(mdl.random_toda(T, rng),
                                           lam) <= 1e-11
            assert mdl.dst_gauge_residual(mdl.random_dst(T, rng, zeta1=0.9),
                                          lam) <= 1e-11


# ---------------------------------------------------------------------------
# beta -> 0 limit of the coupled model
# ---------------------------------------------------------------------------

def test_coupled_reduces_to_toda_at_beta_zero():
    rng = np.random.default_rng(111)
    q, p = rng.normal(size=3), rng.normal(size=3)
    s0 = mdl.CoupledState(q.astype(complex), p.astype(complex),
                          0.5 * (rng.normal(size=3) + 1j * rng.normal(size=3)),
                          0.5 * (rng.normal(size=3) + 1j * rng.normal(size=3)),
                          0.5 * rng.normal(size=3) + 0j, 0.9, 0.0)
    st = mdl.TodaState(q, p)
    Lc, Lt = mdl.lax(s0), mdl.lax(st)
    for _ in range(5):
        lam = _point(rng, 0.4, 0.7)
        assert np.max(np.abs(Lc.eval(lam) - Lt.eval(lam))) <= 1e-12
    Cc, Ct = mdl.coefficients(s0), mdl.coefficients(st)
    for a, b in ((Cc.A0_0, Ct.A0_0), (Cc.A0_1, Ct.A0_1),
                 (Cc.Ainf, Ct.Ainf)):
        assert np.max(np.abs(np.asarray(a) - np.asarray(b))) <= 1e-12
    for Ar in Cc.A_list:
        assert np.max(np.abs(np.asarray(Ar))) <= 1e-12
    T = 3
    for pw in (1, 2, 3):
        vc = mdl.flow_field(s0, FlowId(pw, 0))
        vt = mdl.flow_field(st, FlowId(pw, 0))
        assert np.max(np.abs(vc[:2 * T] - vt)) <= 1e-12


# ---------------------------------------------------------------------------
# command-line contract
# ---------------------------------------------------------------------------

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


_MODEL_CASES = {
    "toda": ["printed_flow_agreement", "hamiltonian_residue_sum", "sklyanin",
             "gauge_map", "orbit_dressing", "closure_(1,0)x(2,0)"],
    "dst": ["printed_flow_agreement", "hamiltonian_residue_sum", "sklyanin",
            "gauge_map", "orbit_dressing", "orbit_trace",
            "closure_(1,0)x(1,1)"],
    "coupled": ["printed_flow_agreement", "hamiltonian_residue_sum",
                "sklyanin", "beta_zero_reduction", "closure_(1,0)x(1,1)"],
}
_DYNAMICS_CASES = ["determinism", "energy_drift", "spectral_drift",
                   "invariant_drift", "commutativity", "involutivity",
                   "el_lax", "canonical_pattern", "bracket_antisymmetry"]
ALL_SUITE_CASES = frozenset(
    [f"algebra.{c}" for c in ("sigma_order", "grade_completeness",
                              "grade_eigenvalue", "sigma_homomorphism")]
    + [f"ratmat.{c}" for c in ("pointwise_add", "pointwise_mul",
                               "expansion_consistency", "residue_theorem",
                               "split_reconstruction", "split_equivariance")]
    + [f"rmatrix.{c}" for c in ("cybe", "averaging", "casimir_ad_invariance",
                                "projection_plus_vs_split",
                                "projection_minus_vs_split")]
    + [f"gaudin.{c}" for c in ("lax_equivariance", "hamiltonian_residue_sum",
                               "partner_equivariance", "rhs_structure",
                               "gradient_directional")]
    + [f"models.{m}.{c}" for m, cs in _MODEL_CASES.items() for c in cs]
    + [f"dynamics.{m}.{c}" for m in _MODEL_CASES for c in _DYNAMICS_CASES])


def test_cli_verify_all_suites(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    out = tmp_path / "report.json"
    t0 = time.perf_counter()
    code = main(["verify", "--suite", "all", "--seed", "42", "--T", "3",
                 "--output", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert elapsed < 120.0
    rep = json.loads(out.read_text())
    jsonschema.validate(rep, REPORT_SCHEMA)
    assert rep["pass"] is True
    # the case names are part of the CLI contract: 65, each reported once
    names = [c["name"] for c in rep["cases"]]
    assert len(names) == len(ALL_SUITE_CASES) == 65
    assert set(names) == ALL_SUITE_CASES
    # JSON round-trip is lossless
    assert json.loads(json.dumps(rep)) == rep


def test_cli_csv_round_trip(tmp_path):
    out = tmp_path / "traj.csv"
    code = main(["simulate", "--schedule", "1:0:0.05", "--model", "toda",
                 "--T", "3", "--seed", "42", "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == len(header)
        # every floating-point cell survives parse/format round-trip
        for cell in cells[4:]:
            assert "%.16e" % float(cell) == cell
