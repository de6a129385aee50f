"""Correctness checks computed apart from the program.

Each function takes program outputs (or states) and returns a list of
problems; an empty list means the check passed.  The quantities are
rebuilt here with NumPy from closed formulas (the symmetric periodic
Flaschka matrix, the Toda energy, the kinematic invariants, the r-kernel)
or read off properties the method must have (fourth-order convergence of
the commutativity defect, a closed report schema, every case present).
"""
from __future__ import annotations

import json

import numpy as np

# tolerances of the acceptance battery for the same quantities
DEFECT_TOL = 1e-8          # commutativity defect at h
ROUNDOFF = 1e-12           # below this the h/2 defect is integrator roundoff
FOURTH_ORDER_RATIO = 12.0  # d(h) / d(h/2) for a fourth-order method
SPECTRUM_TOL = 1e-8        # relative drift of the Flaschka spectrum
ENERGY_TOL = 1e-12         # relative mismatch of the CSV's H_1_0
INVARIANT_TOL = 1e-10      # drift of sum p_i and sum x_i X_i
HAMILTONIAN_TOL = 1e-8     # relative drift of each CSV Hamiltonian column
KERNEL_TOL = 1e-12         # r-kernel against its closed formula
CONTROL_MARGIN = 1e3       # a control must exceed its check's tolerance this much

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
# every case `verify --suite all` must report (65 at any T >= 2)
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


# ---------------------------------------------------------------------------
# closed formulas
# ---------------------------------------------------------------------------

def flaschka_spectrum(q, p, sign: float = 1.0) -> np.ndarray:
    """Eigenvalues of the symmetric periodic Flaschka matrix at mu = 1:
    diag(p) plus exp((q_i - q_{i+1}) / 2) on the cyclic off-diagonals.
    sign = -1 flips the exponent (a matrix that is not isospectral)."""
    q = np.asarray(q, float)
    T = q.size
    r = np.exp(sign * (q - np.roll(q, -1)) / 2.0)
    L = np.diag(np.asarray(p, float))
    for i in range(T):
        L[i, (i + 1) % T] += r[i]
        L[(i + 1) % T, i] += r[i]
    return np.linalg.eigvalsh(L)


def toda_energy(q, p, sign: float = 1.0) -> float:
    """H_1_0 = 1/2 sum p^2 + sum exp(q_i - q_{i+1}) (sign flips the exponent)."""
    q, p = np.asarray(q, float), np.asarray(p, float)
    return float(0.5 * np.dot(p, p) + np.sum(np.exp(sign * (q - np.roll(q, -1)))))


def r_kernel_closed(lam: complex, mu: complex, T: int) -> np.ndarray:
    """r_12(lam, mu) = (1/T) sum_k sum_ij w^(k(j-i)) / (mu - w^(-k) lam)
    E_ij (x) E_ji with w = exp(2 pi i / T), as a (T^2, T^2) array."""
    k = np.arange(T)[:, None, None]
    i = np.arange(T)[None, :, None]
    j = np.arange(T)[None, None, :]
    w = np.exp(2j * np.pi / T)
    c = np.sum(w ** (k * (j - i)) / (mu - w ** (-k) * lam), axis=0) / T
    R = np.zeros((T * T, T * T), complex)
    ii, jj = np.meshgrid(np.arange(T), np.arange(T), indexing="ij")
    R[ii * T + jj, jj * T + ii] = c
    return R


def averaging_sides(z1: complex, z2: complex, l: int, T: int):
    """Both sides of z1^(T-1-[l]) z2^[l] / (z1^T - z2^T)
    = (1/T) sum_k w^(-kl) / (z1 - w^k z2)."""
    w = np.exp(2j * np.pi / T)
    lm = l % T
    lhs = z1 ** (T - 1 - lm) * z2 ** lm / (z1 ** T - z2 ** T)
    k = np.arange(T)
    rhs = np.sum(w ** (-k * l) / (z1 - w ** k * z2)) / T
    return complex(lhs), complex(rhs)


def toda_gauge_residual(q, p, L_eval, lam: complex, sign: float = 1.0) -> float:
    """|L(lam) - lam^-1 Q Lt(lam^T) Q^-1| with the symmetric periodic Lax
    form Lt and Q = diag(exp(-sign q_i / 2) lam^-i); sign = -1 is the
    wrong gauge."""
    q, p = np.asarray(q, float), np.asarray(p, float)
    T = q.size
    mu = lam ** T
    ra = np.exp((q - np.roll(q, -1)) / 2.0).astype(complex)
    Lt = np.diag(p.astype(complex))
    for i in range(T - 1):
        Lt[i, i + 1] += ra[i]
        Lt[i + 1, i] += ra[i]
    Lt[0, T - 1] += ra[T - 1] / mu
    Lt[T - 1, 0] += ra[T - 1] * mu
    d = np.exp(-sign * q / 2.0) * lam ** (-np.arange(1, T + 1, dtype=float))
    rhs = (d[:, None] * Lt / d[None, :]) / lam
    return float(np.max(np.abs(L_eval - rhs)))


# ---------------------------------------------------------------------------
# trajectory checks
# ---------------------------------------------------------------------------

def spectrum_drift(qs, ps, sign: float = 1.0) -> float:
    """Max relative drift of the Flaschka spectrum over rows of (q, p)."""
    eig = np.array([flaschka_spectrum(q, p, sign) for q, p in zip(qs, ps)])
    return float(np.max(np.abs(eig - eig[0])) / (1.0 + np.max(np.abs(eig[0]))))


def invariant_drift(values) -> float:
    values = np.asarray(values)
    return float(np.max(np.abs(values - values[0])))


def check_commutativity(label: str, d1: float, d2: float) -> list:
    """Fourth-order RK4 defects: d(h) <= tol, and where d(h/2) is above
    roundoff it must shrink by at least 12."""
    out = []
    if not d1 <= DEFECT_TOL:
        out.append(f"{label}: defect {d1:.3e} > {DEFECT_TOL:g}")
    if d2 >= ROUNDOFF and not d1 / d2 >= FOURTH_ORDER_RATIO:
        out.append(f"{label}: refinement ratio {d1 / d2:.2f} < 12")
    return out


def check_control(label: str, value: float, tol: float) -> list:
    """A falsifiability control (the identity deliberately broken) must
    come out far above the tolerance its check uses."""
    if not value > CONTROL_MARGIN * tol:
        return [f"control {label} came out {value:.3e}, not above "
                f"{CONTROL_MARGIN:g} x {tol:g}"]
    return []


def check_small(label: str, value: float, tol: float) -> list:
    if not value <= tol:
        return [f"{label}: {value:.3e} > {tol:g}"]
    return []


# ---------------------------------------------------------------------------
# CLI outputs
# ---------------------------------------------------------------------------

def parse_csv(text: str):
    """Header list and float table of a `simulate` CSV."""
    lines = text.splitlines()
    if lines and lines[-1].startswith("#"):
        raise ValueError(f"trajectory ended with {lines[-1]!r}")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    for r in rows:
        if len(r) != len(header):
            raise ValueError("row width differs from header")
        for cell in r[4:]:
            if "%.16e" % float(cell) != cell:
                raise ValueError(f"cell {cell!r} is not a lossless %.16e")
    return header, np.array([[float(c) for c in r] for r in rows])


def _complex_cols(header, table, block: str, T: int):
    re = [header.index(f"{block}_re{i}") for i in range(1, T + 1)]
    im = [header.index(f"{block}_im{i}") for i in range(1, T + 1)]
    return table[:, re] + 1j * table[:, im]


def check_csv(model: str, T: int, text: str, expected_rows: int) -> list:
    """Independent checks of one `simulate` trajectory CSV."""
    try:
        header, tab = parse_csv(text)
    except (ValueError, IndexError) as exc:
        return [f"{model} csv unreadable: {exc}"]
    out = []
    if tab.shape[0] != expected_rows:
        out.append(f"{model} csv has {tab.shape[0]} rows, schedule gives "
                   f"{expected_rows}")
    hcols = [i for i, h in enumerate(header) if h.startswith("H_")]
    for i in hcols:
        col = tab[:, i]
        out += check_small(f"{model} {header[i]} drift",
                           invariant_drift(col) / (1.0 + abs(col[0])),
                           HAMILTONIAN_TOL)
    if model == "toda":
        q = tab[:, [header.index(f"q{i}") for i in range(1, T + 1)]]
        p = tab[:, [header.index(f"p{i}") for i in range(1, T + 1)]]
        energy = np.array([toda_energy(a, b) for a, b in zip(q, p)])
        h10 = tab[:, header.index("H_1_0")]
        out += check_small("toda H_1_0 against 1/2 sum p^2 + sum e^(q_i-q_i+1)",
                           float(np.max(np.abs(h10 - energy)
                                         / (1.0 + np.abs(energy)))), ENERGY_TOL)
        wrong = np.array([toda_energy(a, b, -1.0) for a, b in zip(q, p)])
        out += check_control("toda H_1_0 with flipped exponent",
                             float(np.max(np.abs(h10 - wrong))), ENERGY_TOL)
        out += check_small("toda Flaschka spectrum drift", spectrum_drift(q, p),
                           SPECTRUM_TOL)
        out += check_small("toda sum p", invariant_drift(p.sum(axis=1)),
                           INVARIANT_TOL)
        return out
    if model == "coupled":
        p = _complex_cols(header, tab, "p", T)
        out += check_small("coupled sum p", invariant_drift(p.sum(axis=1)),
                           INVARIANT_TOL)
    x = _complex_cols(header, tab, "x", T)
    X = _complex_cols(header, tab, "X", T)
    out += check_small(f"{model} sum x_i X_i",
                       invariant_drift(np.sum(x * X, axis=1)), INVARIANT_TOL)
    return out


def check_report(text: str, code: int, seed: int) -> list:
    """`verify --suite all` contract: exit 0, closed schema, all 65 cases
    present and passing."""
    import jsonschema

    out = []
    if code != 0:
        out.append(f"verify exited {code}")
    try:
        rep = json.loads(text)
        jsonschema.validate(rep, REPORT_SCHEMA)
    except (ValueError, jsonschema.ValidationError) as exc:
        return out + [f"report invalid: {str(exc).splitlines()[0]}"]
    if rep["seed"] != seed or rep["suite"] != "all":
        out.append("report names the wrong suite or seed")
    names = [c["name"] for c in rep["cases"]]
    missing = sorted(ALL_SUITE_CASES - set(names))
    extra = sorted(set(names) - ALL_SUITE_CASES)
    if missing or extra or len(names) != len(ALL_SUITE_CASES):
        out.append(f"report cases differ: missing {missing}, extra {extra}")
    for c in rep["cases"]:
        if not (c["pass"] and c["residual"] <= c["tol"]):
            out.append(f"case {c['name']} fails: {c['residual']:.3e} > {c['tol']:g}")
    if rep["pass"] is not True:
        out.append("report pass flag is false")
    return out


def flip_one_case(text: str) -> str:
    """The report with its first case turned failing (a negative control)."""
    rep = json.loads(text)
    case = rep["cases"][0]
    case["residual"] = 10.0 * case["tol"] + 1.0
    case["pass"] = False
    return json.dumps(rep, indent=1)
