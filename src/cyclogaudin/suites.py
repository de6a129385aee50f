"""Seeded verification suites surfaced by the command line.

Every suite draws from a splittable seeded PRNG, computes named residuals,
and returns a VerificationReport; the CLI serialises it as JSON.  The
suites are smoke-depth by design (seconds, not minutes); the exhaustive
certification lives in the test suite.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from numbers import Integral, Real

import numpy as np

from . import models as mdl
from . import dynamics as dyn
from .algebra import grade_component, primitive_root, sigma_pow
from .dynamics import Schedule, VerificationReport
from .errors import ConfigError, PoleProximityError, StructuralError
from .gaudin import (FlowId, GaudinCoefficients, PoleConfig, assemble_lax,
                     dress, hamiltonian, hamiltonian_at_infinity,
                     hamiltonian_coefficient_gradients, lax_partner, lax_rhs)
from .ratmat import (RationalMatrix, check_equivariance, localize,
                     residue_at_infinity, split)
from .rmatrix import (averaging_residual, casimir, cybe_residual,
                      kernel_projection, sklyanin_residual)

SUITES = ("algebra", "ratmat", "rmatrix", "gaudin", "models", "dynamics", "all")
MODELS = ("toda", "dst", "coupled")


@dataclass
class RunConfig:
    """Validated run parameters shared by all CLI commands."""

    model: str = "toda"
    T: int = 3
    zeta1: complex = 0.9
    beta: float = 0.5
    seed: int = 0
    depth: int = 3
    h: float = 1e-3

    def validate(self, need_model: bool = True) -> None:
        if self.model not in MODELS:
            raise ConfigError(f"unknown model {self.model!r}")
        # a bool is an int to Python, and a JSON config file may hold any
        # type: only integers and real numbers get past
        for names, kind, what in ((("T", "depth", "seed"), Integral,
                                   "an integer"),
                                  (("beta", "h"), Real,
                                   "a real number")):
            for name in names:
                v = getattr(self, name)
                if isinstance(v, bool) or not isinstance(v, kind):
                    raise ConfigError(f"{name} must be {what}, got {v!r}")
        if self.T < 1:
            raise ConfigError(f"T must be a positive integer, got {self.T}")
        if need_model and self.T < 2:
            raise ConfigError("model suites need T >= 2")
        if not (1 <= self.depth <= 3):
            raise ConfigError(f"depth must be in 1..3, got {self.depth}")
        for name, v in (("h", self.h), ("beta", self.beta)):
            if not np.isfinite(v):
                raise ConfigError(f"{name} must be finite")
        if self.h <= 0:
            raise ConfigError("h must be positive")
        if not np.isfinite(complex(self.zeta1)) or abs(complex(self.zeta1)) < 1e-6:
            raise ConfigError("zeta1 must be finite and nonzero")
        if not (0 <= int(self.seed) < 2 ** 64):
            raise ConfigError("seed must be a 64-bit unsigned integer")

    def digest(self) -> str:
        z = complex(self.zeta1)
        blob = json.dumps({**asdict(self), "zeta1": [z.real, z.imag],
                           "seed": int(self.seed)}, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _rngs(cfg: RunConfig, n: int):
    return [np.random.default_rng(s)
            for s in np.random.SeedSequence(int(cfg.seed)).spawn(n)]


def _cmat(rng, T, scale=1.0):
    return scale * (rng.normal(size=(T, T)) + 1j * rng.normal(size=(T, T)))


def _worst_of(n: int, draw, name: str) -> float:
    """Max residual over n evaluated draws; draw() returns a residual, or
    None for a rejected draw.  Fewer than n evaluations within 10 n draws
    raise StructuralError, so a case never passes on missing samples."""
    worst, n_ok = 0.0, 0
    for _ in range(10 * n):
        r = draw()
        if r is not None:
            worst = max(worst, r)
            n_ok += 1
            if n_ok == n:
                return worst
    raise StructuralError(f"{name}: only {n_ok} of {n} samples evaluated "
                          f"in {10 * n} draws")


def _report(cfg: RunConfig, name: str) -> VerificationReport:
    return VerificationReport(name, int(cfg.seed), cfg.digest())


def _seeded_state(cfg: RunConfig, rng):
    if cfg.model == "toda":
        return mdl.random_toda(cfg.T, rng)
    if cfg.model == "dst":
        return mdl.random_dst(cfg.T, rng, zeta1=cfg.zeta1)
    return mdl.random_coupled(cfg.T, rng, beta=cfg.beta, zeta1=cfg.zeta1)


# ---------------------------------------------------------------------------

def algebra_suite(cfg: RunConfig) -> VerificationReport:
    rep = _report(cfg, "algebra")
    (rng,) = _rngs(cfg, 1)
    T = cfg.T
    root = primitive_root(T)
    X = _cmat(rng, T)
    rep.add("sigma_order",
            np.max(np.abs(sigma_pow(X, T, root) - X)), 1e-12)
    total = sum(grade_component(X, n, T) for n in range(T))
    rep.add("grade_completeness", np.max(np.abs(total - X)), 1e-12)
    worst = 0.0
    for n in range(T):
        Xn = grade_component(X, n, T)
        worst = max(worst, float(np.max(np.abs(
            sigma_pow(Xn, 1, root) - root.power(n) * Xn))))
    rep.add("grade_eigenvalue", worst, 1e-12)
    a, b = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    rep.add("sigma_homomorphism",
            np.max(np.abs(sigma_pow(sigma_pow(X, a, root), b, root)
                          - sigma_pow(X, a + b, root))), 1e-12)
    return rep


def _random_rational(rng, dim, zetas) -> RationalMatrix:
    poly = [_cmat(rng, dim, 0.5) for _ in range(rng.integers(1, 3))]
    poles = [(0j, [_cmat(rng, dim, 0.5) for _ in range(rng.integers(1, 3))])]
    for z in zetas:
        poles.append((complex(z), [_cmat(rng, dim, 0.5)
                                   for _ in range(rng.integers(1, 3))]))
    return RationalMatrix(dim, poly, poles)


def ratmat_suite(cfg: RunConfig) -> VerificationReport:
    rep = _report(cfg, "ratmat")
    (rng,) = _rngs(cfg, 1)
    T = cfg.T
    root = primitive_root(T)
    zetas = [complex(cfg.zeta1), -1.7 + 0.4j]
    R1 = _random_rational(rng, T, zetas)
    R2 = _random_rational(rng, T, zetas)
    probes = [0.31 + 0.57j, -1.2 - 0.33j, 2.4 + 0.1j]
    worst_add = worst_mul = 0.0
    for lam in probes:
        worst_add = max(worst_add, float(np.max(np.abs(
            (R1 + R2).eval(lam) - (R1.eval(lam) + R2.eval(lam))))))
        worst_mul = max(worst_mul, float(np.max(np.abs(
            R1.mul(R2).eval(lam) - R1.eval(lam) @ R2.eval(lam)))))
    rep.add("pointwise_add", worst_add, 1e-10)
    rep.add("pointwise_mul", worst_mul, 1e-9)
    s = R1.laurent_expand(zetas[0], 8)
    u = 0.05 + 0.03j
    rep.add("expansion_consistency",
            np.max(np.abs(s.eval_sum(u) - R1.eval(zetas[0] + u))), 1e-8)
    acc = R1.residue(0j) + sum(R1.residue(z) for z in zetas)
    acc = acc + residue_at_infinity(R1)
    rep.add("residue_theorem", np.max(np.abs(acc)), 1e-10)
    # equivariant weight-1 family: split must reconstruct it locally
    C = mdl.coefficients(mdl.random_toda(T, rng))
    L = assemble_lax(C, PoleConfig(T, ()))
    reg, sing = split(L, root, (), weight=1)
    u = 0.04 - 0.02j
    worst = float(np.max(np.abs(reg.series[0].eval_sum(u) + sing.eval(u)
                                - L.eval(u))))
    rep.add("split_reconstruction", worst, 1e-10)
    rep.add("split_equivariance", check_equivariance(sing, 1, root), 1e-10)
    return rep


def rmatrix_suite(cfg: RunConfig) -> VerificationReport:
    rep = _report(cfg, "rmatrix")
    rng_c, rng_a, rng_p = _rngs(cfg, 3)
    T = cfg.T
    root = primitive_root(T)

    def draw_point(rng):
        return complex(rng.uniform(0.5, 1.5)
                       * np.exp(2j * np.pi * rng.uniform()))

    def cybe_draw():
        lam, mu, nu = (draw_point(rng_c) for _ in range(3))
        try:
            return cybe_residual(lam, mu, nu, root)
        except PoleProximityError:
            return None

    def averaging_draw():
        z1, z2 = draw_point(rng_a), draw_point(rng_a)
        if min(abs(z1 - w) for w in root.orbit(z2)) < 0.25:
            return None
        return averaging_residual(z1, z2, int(rng_a.integers(0, 2 * T)), root)

    rep.add("cybe", _worst_of(25, cybe_draw, "cybe"), 1e-12)
    rep.add("averaging", _worst_of(200, averaging_draw, "averaging"), 1e-12)
    C = casimir(T)
    X = _cmat(rng_p, T)
    eye = np.eye(T)
    ad = np.kron(X, eye) + np.kron(eye, X)
    rep.add("casimir_ad_invariance", np.max(np.abs(ad @ C - C @ ad)), 1e-12)
    # kernel projections against the direct split (weight-0 inputs)
    zetas = (complex(cfg.zeta1),)
    P = PoleConfig(T, zetas)
    C = _random_coefficients(rng_p, T)
    L = assemble_lax(C, P)
    R0 = lax_partner(FlowId(1, 0), L, P) + lax_partner(FlowId(2, 1), L, P) \
        + RationalMatrix.constant(grade_component(_cmat(rng_p, T), 0, T))
    X_loc = localize(R0, zetas, 8)
    reg, sing = split(R0, root, zetas, weight=0)
    Rp = kernel_projection(X_loc, "+", root)
    Rm = kernel_projection(X_loc, "-", root)
    worst_p = max(np.max(np.abs(np.asarray(a.coeff(n)) - np.asarray(b.coeff(n))))
                  for a, b in zip(Rp.series, reg.series)
                  for n in range(max(a.low, b.low), min(a.trunc, b.trunc) + 1))
    rep.add("projection_plus_vs_split", worst_p, 1e-10)
    worst_m = 0.0
    for lam in (0.45 + 0.2j, -1.35 + 0.28j):
        worst_m = max(worst_m, float(np.max(np.abs(
            Rm.eval(lam) + sing.eval(lam)))))
    rep.add("projection_minus_vs_split", worst_m, 1e-10)
    return rep


def _random_coefficients(rng, T) -> GaudinCoefficients:
    A00 = grade_component(_cmat(rng, T), 0, T)
    A01 = grade_component(_cmat(rng, T), -1, T)
    Ar = _cmat(rng, T)
    Ainf = grade_component(_cmat(rng, T), 1, T)
    return GaudinCoefficients(A00, A01, [Ar], Ainf, T)


def _residue_sum(L: RationalMatrix, P: PoleConfig, depth: int) -> float:
    """Worst residue sum |H_p at infinity + sum_r H_{p,r}| over p <= depth."""
    worst = 0.0
    for p in range(1, depth + 1):
        tot = hamiltonian_at_infinity(p, L, P)
        for r in range(P.N + 1):
            tot = tot + hamiltonian(FlowId(p, r), L, P)
        worst = max(worst, abs(tot))
    return worst


def gaudin_suite(cfg: RunConfig) -> VerificationReport:
    rep = _report(cfg, "gaudin")
    (rng,) = _rngs(cfg, 1)
    T = cfg.T
    P = PoleConfig(T, (complex(cfg.zeta1),))
    C = _random_coefficients(rng, T)
    L = assemble_lax(C, P)
    rep.add("lax_equivariance", check_equivariance(L, 1, P.root), 1e-11)
    rep.add("hamiltonian_residue_sum", _residue_sum(L, P, cfg.depth), 1e-10)
    h = lax_partner(FlowId(cfg.depth, 1), L, P)
    rep.add("partner_equivariance", check_equivariance(h, 0, P.root), 1e-11)
    try:
        lax_rhs(FlowId(1, 1), L, P)
        rep.add("rhs_structure", 0.0, 1e-12)
    except StructuralError:
        rep.add("rhs_structure", 1.0, 1e-12)
    # directional derivative of H against the adjoint gradients
    f = FlowId(min(2, cfg.depth), 1)
    M00, M01, Ms, Minf = hamiltonian_coefficient_gradients(f, L, P)
    d00 = grade_component(_cmat(rng, T), 0, T)
    d01 = grade_component(_cmat(rng, T), -1, T)
    dr = _cmat(rng, T)
    dinf = grade_component(_cmat(rng, T), 1, T)
    eps = 1e-6
    vals = []
    for sgn in (1.0, -1.0):
        Cs = GaudinCoefficients(C.A0_0 + sgn * eps * d00, C.A0_1 + sgn * eps * d01,
                                [C.A_list[0] + sgn * eps * dr],
                                C.Ainf + sgn * eps * dinf, T)
        vals.append(hamiltonian(f, assemble_lax(Cs, P), P))
    fd = (vals[0] - vals[1]) / (2 * eps)
    exact = (np.trace(M00 @ d00) + np.trace(M01 @ d01)
             + np.trace(Ms[0] @ dr) + np.trace(Minf @ dinf))
    rep.add("gradient_directional", abs(fd - exact) / (1 + abs(exact)), 1e-7)
    return rep


def models_suite(cfg: RunConfig) -> VerificationReport:
    rep = _report(cfg, "models")
    rng_s, rng_p, rng_g = _rngs(cfg, 3)
    T = cfg.T
    s = _seeded_state(cfg, rng_s)
    fA, fB = mdl.admissible_flows(s, 2)[:2]
    # printed first-flow equations (DST compared modulo the scaling gauge)
    worst = 0.0
    for f in mdl.admissible_flows(s, 1):
        va = mdl.flow_field(s, f)
        vp = mdl.printed_flow_field(s, f)
        diff = va - vp
        if cfg.model == "dst":
            g = np.concatenate([s.x, -s.X])
            diff = diff - (np.vdot(g, diff) / np.vdot(g, g)) * g
        worst = max(worst, float(np.max(np.abs(diff))))
    rep.add("printed_flow_agreement", worst, 1e-11)
    # residue theorem over the Hamiltonians of the model Lax
    L, P = mdl.lax(s), mdl.config_of(s)
    rep.add("hamiltonian_residue_sum", _residue_sum(L, P, cfg.depth), 1e-10)
    # quadratic r-matrix bracket of the Lax matrix
    worst = 0.0
    for _ in range(5):
        lam = complex(rng_p.uniform(0.45, 0.62) * np.exp(2j * np.pi * rng_p.uniform()))
        mu = complex(rng_p.uniform(1.55, 1.8) * np.exp(2j * np.pi * rng_p.uniform()))
        worst = max(worst, sklyanin_residual(s, lam, mu))
    rep.add("sklyanin", worst, 1e-9)
    # the paper's identities of each realisation
    if cfg.model == "toda":
        rep.add("gauge_map", mdl.toda_gauge_residual(s, 0.85 * np.exp(0.67j)), 1e-11)
        u = rng_g.uniform(0.6, 1.5, T)
        v = rng_g.normal(size=T)
        C1 = mdl.coefficients(mdl.toda_from_orbit(u, v))
        C2 = dress(mdl.toda_orbit_data(u, v))
        worst = max(np.max(np.abs(C1.A0_0 - C2.A0_0)),
                    np.max(np.abs(C1.A0_1 - C2.A0_1)))
        rep.add("orbit_dressing", worst, 1e-12)
    elif cfg.model == "dst":
        rep.add("gauge_map", mdl.dst_gauge_residual(s, 0.55 * np.exp(1.1j)), 1e-11)
        sM = _cmat(rng_g, T) + 2 * np.eye(T)
        cvec = rng_g.normal(size=T)
        C1 = mdl.coefficients(mdl.dst_from_orbit(sM, cvec, cfg.zeta1))
        C2 = dress(mdl.dst_orbit_data(sM, cvec, cfg.zeta1))
        rep.add("orbit_dressing",
                np.max(np.abs(C1.A_list[0] - C2.A_list[0])), 1e-12)
        rep.add("orbit_trace", abs(np.trace(C1.A_list[0]) - 1.0), 1e-12)
    else:
        toda = mdl.random_toda(T, rng_g)
        s0 = mdl.CoupledState(toda.q, toda.p, s.x, s.X, s.c, s.zeta1, 0.0)
        lam = 0.62 * np.exp(0.9j)
        worst = float(np.max(np.abs(mdl.lax(s0).eval(lam)
                                    - mdl.lax(toda).eval(lam))))
        worst = max(worst, abs(mdl.lagrangian_coeff(s0, fA)
                               - mdl.lagrangian_coeff(toda, fA)))
        v = mdl.flow_field(s0, fA)[:2 * T]
        worst = max(worst, float(np.max(np.abs(v - mdl.flow_field(toda, fA)))))
        rep.add("beta_zero_reduction", worst, 1e-12)
    rep.add(f"closure_{fA}x{fB}",
            dyn.closure_residual(s, fA, fB, h=cfg.h), 1e-6)
    return rep


# The paper's convention for the canonical brackets, written out here so
# that canonical_pattern stays independent of models.SECTOR_SIGN_*:
# {P_i, Q_j} = sign delta_ij / weight per (Q, P) sector.
_BRACKET_SIGNS = {("q", "p"): 1.0, ("x", "X"): -1.0}


def dynamics_suite(cfg: RunConfig) -> VerificationReport:
    rep = _report(cfg, "dynamics")
    (rng_s,) = _rngs(cfg, 1)
    s = _seeded_state(cfg, rng_s)
    fA, fB = mdl.admissible_flows(s, 2)[:2]
    tau = 0.4
    sched = Schedule.from_pairs([(fA, tau), (fB, tau)], cfg.h)
    t1 = dyn.integrate(s, sched)
    t2 = dyn.integrate(s, sched)
    rep.add("determinism", float(np.max(np.abs(
        t1.samples[-1].vec - t2.samples[-1].vec))), 0.0)
    # energy of the first flow that is not structurally zero, at every 50th
    # sample, read as simulate reads its H columns
    h_own = next(f for f in (fA, fB) if not mdl.field_kernel(s, f).zero)
    (energies,) = mdl.stacked_hamiltonians(
        s, [x.vec for x in t1.samples[::50]], [h_own])
    drift = max(abs(e - energies[0]) for e in energies)
    rep.add("energy_drift", drift / (1 + abs(energies[0])), 1e-9)
    probes = [0.41 + 0.23j, -0.36 + 0.49j]
    table = dyn.conservation_drift(
        dyn.integrate(s, Schedule.from_pairs([(fB, tau)], cfg.h)), probes, 3)
    rep.add("spectral_drift",
            max(v for k, v in table.items() if isinstance(k, tuple)), 1e-8)
    rep.add("invariant_drift",
            max(v for k, v in table.items() if not isinstance(k, tuple)), 1e-10)
    rep.add("commutativity",
            dyn.commutativity_defect(s, fA, fB, tau=tau, h=2 * cfg.h), 1e-8)
    flows = mdl.admissible_flows(s, cfg.depth)
    rep.add("involutivity", dyn.involutivity_matrix(s, flows).max(), 1e-9)
    rep.add("el_lax", max(dyn.el_lax_agreement(s, f) for f in flows), 1e-10)
    # canonical bracket pattern on coordinate observables, sector by sector:
    # the gradient of a coordinate is its unit vector e
    res = 0.0
    e, T = np.eye(mdl.nvars(s), dtype=complex), cfg.T
    for Q, P, _, weight in s.SECTORS:
        w = 1.0 if weight is None else getattr(s, weight)
        P0, Q0 = s.BLOCKS.index(P) * T, s.BLOCKS.index(Q) * T
        for j, want in ((0, _BRACKET_SIGNS[Q, P] / w), (1 % T, 0.0)):
            res = max(res, abs(dyn.bracket_of_gradients(s, e[P0], e[Q0 + j])
                               - want))
    rep.add("canonical_pattern", res, 1e-12)
    rep.add("bracket_antisymmetry", abs(dyn.bracket_of_gradients(
        s, g := mdl.hamiltonian_gradient(s, fB), g)), 1e-13)
    return rep


_SUITE_FUNCS = {"algebra": algebra_suite, "ratmat": ratmat_suite,
                "rmatrix": rmatrix_suite, "gaudin": gaudin_suite,
                "models": models_suite, "dynamics": dynamics_suite}


def run_suite(name: str, cfg: RunConfig) -> VerificationReport:
    if name not in SUITES:
        raise ConfigError(f"unknown suite {name!r}; choose from {SUITES}")
    cfg.validate(need_model=name in ("models", "dynamics", "all"))
    if cfg.beta == 0 and (name == "all" or cfg.model == "coupled"
                          and name in ("models", "dynamics")):
        raise ConfigError("the (x, X) bracket sector of the coupled model "
                          "degenerates at beta = 0")
    if name != "all":
        return _SUITE_FUNCS[name](cfg)
    rep = _report(cfg, "all")
    runs = [(sub, sub, cfg) for sub in ("algebra", "ratmat", "rmatrix",
                                        "gaudin")]
    runs += [(f"{sub}.{model}", sub, replace(cfg, model=model))
             for model in MODELS for sub in ("models", "dynamics")]
    for prefix, sub, sub_cfg in runs:
        for case in _SUITE_FUNCS[sub](sub_cfg).cases:
            rep.add(f"{prefix}.{case.name}", case.residual, case.tol)
    return rep
