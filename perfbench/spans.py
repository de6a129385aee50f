"""Span recorder for the traced benchmark run.

The recorder wraps public functions of each cyclogaudin layer from the
outside: a wrapped function records one span (name, start, end, parent
span, run id) per call.  A name that other modules imported with
``from ... import`` is replaced in every module namespace (and in the
module-level dicts that hold it, such as the suite table), so the wrapper
sees calls made through any of those bindings.  Spans stay in memory, in
flat arrays, until the run ends; ``derive`` turns them into the per-layer
metrics and ``save`` writes them out.

Nothing here edits the package's source; ``uninstall`` restores every
binding it replaced.
"""
from __future__ import annotations

import functools
import importlib
import json
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("algebra", "jets", "ratmat", "rmatrix", "gaudin", "models",
          "dynamics", "suites", "cli")

# (layer, qualified name within the module); "Class.method" patches the
# class attribute.  These are the layer boundaries the per-layer metrics
# are read from.
TARGETS = {
    "algebra": ["sigma_pow", "grade_component", "grading_residual"],
    "jets": ["value_of", "matrix_value",
             "JetMatrix.__add__", "JetMatrix.__sub__", "JetMatrix.__rsub__",
             "JetMatrix.__neg__", "JetMatrix.__mul__", "JetMatrix.__truediv__",
             "JetMatrix.__matmul__", "JetMatrix.__rmatmul__",
             "JetMatrix.phase_mul", "JetMatrix.trace", "JetMatrix.entry"],
    "ratmat": ["RationalMatrix.laurent_expand", "RationalMatrix.mul",
               "RationalMatrix.eval", "RationalMatrix._validate",
               "RationalMatrix.residue", "LaurentSeries.mul", "split",
               "localize", "pi_project", "check_equivariance",
               "residue_at_infinity"],
    "rmatrix": ["r_kernel", "cybe_residual", "averaging_residual",
                "kernel_projection", "sklyanin_residual", "casimir"],
    "gaudin": ["assemble_lax", "hamiltonian", "hamiltonian_at_infinity",
               "lax_partner", "lax_rhs", "hamiltonian_coefficient_gradients",
               "dress"],
    "models": ["flow_field", "lax", "coefficients", "coefficient_jets",
               "jet_context", "hamiltonian_value", "hamiltonian_gradient",
               "coefficient_velocity", "printed_flow_field",
               "lagrangian_coeff", "invariants", "toda_gauge_residual",
               "dst_gauge_residual"],
    "dynamics": ["rk4_step", "integrate", "endpoint", "commutativity_defect",
                 "conservation_drift", "spectral_probe", "closure_residual",
                 "involutivity_matrix", "bracket_of_gradients",
                 "poisson_bracket", "observable_gradient", "jet_coords",
                 "el_lax_agreement"],
    "suites": ["algebra_suite", "ratmat_suite", "rmatrix_suite",
               "gaudin_suite", "models_suite", "dynamics_suite", "run_suite"],
    "cli": ["main", "cmd_verify", "cmd_simulate", "cmd_closure"],
}

# span name of a wrapped target; the private validator reads as "validate"
_RENAMES = {"ratmat.RationalMatrix._validate": "ratmat.RationalMatrix.validate"}

FLOW_FIELD = "models.flow_field"
_MODEL_TAG = {"TodaState": "toda", "DSTState": "dst", "CoupledState": "coupled"}

# functions whose calls and median microseconds per call are reported
TIMED = [
    "models.flow_field", "gaudin.hamiltonian_coefficient_gradients",
    "ratmat.RationalMatrix.laurent_expand", "ratmat.LaurentSeries.mul",
    "gaudin.assemble_lax", "models.lax", "dynamics.rk4_step",
    "dynamics.integrate", "gaudin.hamiltonian", "models.hamiltonian_value",
    "models.jet_context", "dynamics.bracket_of_gradients",
    "dynamics.involutivity_matrix", "dynamics.el_lax_agreement",
    "rmatrix.cybe_residual", "rmatrix.kernel_projection",
    "rmatrix.sklyanin_residual", "ratmat.split", "ratmat.RationalMatrix.mul",
    "ratmat.RationalMatrix.eval", "gaudin.lax_rhs", "gaudin.lax_partner",
    "models.hamiltonian_gradient", "dynamics.conservation_drift",
    "dynamics.closure_residual",
]
COUNTED = ["algebra.sigma_pow", "ratmat.RationalMatrix.validate"]
SUITES = ["algebra", "ratmat", "rmatrix", "gaudin", "models", "dynamics"]
FLOW_TAGS = [f"{m}.p{p}" for m in ("toda", "dst", "coupled") for p in (1, 2, 3)]


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in TIMED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.us"] = "us"
    for tag in FLOW_TAGS:
        units[f"{FLOW_FIELD}.{tag}.us"] = "us"
    for name in COUNTED:
        units[f"{name}.calls"] = "count"
    units["jets.JetMatrix.calls"] = "count"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    for suite in SUITES:
        units[f"suites.{suite}_suite.s"] = "s"
    units.update({
        "ratmat.laurent_expand.per_flow_field": "ratio",
        "ratmat.series_mul.per_flow_field": "ratio",
        "ratmat.validate.per_flow_field": "ratio",
        "models.flow_field.per_rk4_step": "ratio",
        "models.flow_field.nonzero_share": "ratio",
        "models.jet_context.per_bracket": "ratio",
        "trace.overhead": "ratio",
    })
    return units


class Recorder:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.current_run = 0
        self.nonzero_flow_fields = 0
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.run_id.append(self.current_run)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        nid = self._intern(name)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = rec._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                rec._close(idx)
        return wrapper

    def _wrap_flow_field(self, fn):
        """flow_field spans are named per model and power, and count the
        calls that return a nonzero vector."""
        ids = {}
        rec = self

        @functools.wraps(fn)
        def wrapper(state, f, *args, **kwargs):
            key = (type(state).__name__, f.p)
            nid = ids.get(key)
            if nid is None:
                tag = _MODEL_TAG.get(key[0], key[0])
                nid = ids[key] = rec._intern(f"{FLOW_FIELD}.{tag}.p{f.p}")
            idx = rec._open(nid)
            try:
                out = fn(state, f, *args, **kwargs)
            finally:
                rec._close(idx)
            if np.any(out):
                rec.nonzero_flow_fields += 1
            return out
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target and rebind it wherever the package holds it."""
        mods = {layer: importlib.import_module(f"cyclogaudin.{layer}")
                for layer in LAYERS}
        replace = {}
        for layer, quals in TARGETS.items():
            mod = mods[layer]
            for qual in quals:
                full = _RENAMES.get(f"{layer}.{qual}", f"{layer}.{qual}")
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[attr]
                    wrapped = self._wrap(orig, full)
                    # aliases such as __radd__ = __add__ share the function
                    for key, val in list(cls.__dict__.items()):
                        if val is orig:
                            name = full if key == attr else \
                                f"{layer}.{cls_name}.{key}"
                            new = wrapped if key == attr else self._wrap(orig, name)
                            self._patches.append((cls, key, val))
                            setattr(cls, key, new)
                    continue
                orig = getattr(mod, qual)
                if full == FLOW_FIELD:
                    replace[id(orig)] = (orig, self._wrap_flow_field(orig))
                else:
                    replace[id(orig)] = (orig, self._wrap(orig, full))
        for mod in mods.values():
            ns = vars(mod)
            for key, val in list(ns.items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patches.append((ns, key, val))
                    ns[key] = hit[1]
                elif isinstance(val, dict) and not key.startswith("__"):
                    for k, v in list(val.items()):
                        hit = replace.get(id(v))
                        if hit is not None and hit[0] is v:
                            self._patches.append((val, k, v))
                            val[k] = hit[1]

    def uninstall(self) -> None:
        for target, key, val in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = val
            else:
                setattr(target, key, val)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.name_id, np.int32).copy(),
                np.frombuffer(self.parent, np.int32).copy(),
                np.frombuffer(self.run_id, np.int32).copy(),
                np.frombuffer(self.start, np.float64).copy(),
                np.frombuffer(self.end, np.float64).copy())

    def save(self, path) -> None:
        """Write every span (name id, parent, run id, start, end) and the
        name table to one .npz file."""
        name_id, parent, run_id, start, end = self.arrays()
        np.savez(path, name_id=name_id, parent=parent, run_id=run_id,
                 start=start, end=end,
                 names=np.array(json.dumps(self.names)))

    def derive(self, rounds: int, untraced_s: float, traced_s: float) -> dict:
        """Per-layer metrics per round of the workload."""
        name_id, parent, _, start, end = self.arrays()
        dur = end - start
        n = len(dur)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=n)
        self_time = dur - child_time

        def mask(prefix):
            if not n:
                return np.zeros(0, bool)
            sel = np.array([nm == prefix or nm.startswith(prefix + ".")
                            for nm in self.names], dtype=bool)
            return sel[name_id]

        def under(anc_mask):
            """Spans with an ancestor in anc_mask."""
            out = np.zeros(n, bool)
            up = parent.copy()
            while np.any(up >= 0):
                live = up >= 0
                out[live] |= anc_mask[up[live]]
                up[live] = parent[up[live]]
            return out

        def calls(sel):
            return int(np.count_nonzero(sel))

        def per_round(count):
            if count % rounds:
                raise RuntimeError("traced rounds did not repeat the same calls")
            return count // rounds

        def med_us(sel):
            return float(np.median(dur[sel]) * 1e6) if np.any(sel) else 0.0

        out = {}
        masks = {}
        for name in TIMED:
            sel = masks[name] = mask(name)
            out[f"{name}.calls"] = per_round(calls(sel))
            out[f"{name}.us"] = med_us(sel)
        for tag in FLOW_TAGS:
            out[f"{FLOW_FIELD}.{tag}.us"] = med_us(mask(f"{FLOW_FIELD}.{tag}"))
        for name in COUNTED:
            out[f"{name}.calls"] = per_round(calls(mask(name)))
        out["jets.JetMatrix.calls"] = per_round(calls(mask("jets.JetMatrix")))
        layer_of = np.array([nm.split(".")[0] for nm in self.names] + [""],
                            dtype=object)
        span_layer = layer_of[name_id] if n else np.array([], dtype=object)
        for layer in LAYERS:
            sel = span_layer == layer
            out[f"{layer}.self_s"] = float(np.sum(self_time[sel])) / rounds
        for suite in SUITES:
            sel = mask(f"suites.{suite}_suite")
            out[f"suites.{suite}_suite.s"] = float(np.sum(dur[sel])) / rounds

        ff = masks[FLOW_FIELD]
        n_ff = calls(ff)

        def ratio(num, den):
            return num / den if den else 0.0

        in_ff = under(ff)
        out["ratmat.laurent_expand.per_flow_field"] = ratio(
            calls(masks["ratmat.RationalMatrix.laurent_expand"] & in_ff), n_ff)
        out["ratmat.series_mul.per_flow_field"] = ratio(
            calls(masks["ratmat.LaurentSeries.mul"] & in_ff), n_ff)
        out["ratmat.validate.per_flow_field"] = ratio(
            calls(mask("ratmat.RationalMatrix.validate") & in_ff), n_ff)
        rk4 = masks["dynamics.rk4_step"]
        out["models.flow_field.per_rk4_step"] = ratio(
            calls(ff & under(rk4)), calls(rk4))
        out["models.flow_field.nonzero_share"] = ratio(
            self.nonzero_flow_fields, n_ff)
        bracket = masks["dynamics.bracket_of_gradients"]
        out["models.jet_context.per_bracket"] = ratio(
            calls(masks["models.jet_context"] & under(bracket)), calls(bracket))
        out["trace.overhead"] = traced_s / untraced_s
        return out
