"""Spans and counts around the calls into quivercy's public functions.

The traced run installs wrappers from outside the program: each wrapped
function is replaced on its defining module or class and on every
quivercy module that bound the same object with `from .x import name`.
A call records a span (function, parent span, start, end) into flat
arrays kept in memory; `report()` turns them into per-function calls,
self time and total time when the run ends.  Self time is a span's
duration minus the durations of its child spans; total time counts only
the outermost span of a function, so recursion is not counted twice.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

# module -> wrapped functions; `Class.method` names a method, and
# `Mat.mul` is the `*` operator.
WRAPPED = {
    "algebra": ["build_algebra", "Algebra.check_associativity", "Algebra.mul_elt",
                "opposite", "tensor_product", "enveloping"],
    "linalg": ["Mat.rref", "Mat.apply", "Mat.mul", "Mat.kernel_basis", "span_basis"],
    "module": ["hom", "is_isomorphic", "kernel", "quotient", "top_of", "decompose"],
    "homology": ["projective_cover", "min_proj_resolution", "ext_dims_upto", "tor",
                 "global_dimension", "nakayama", "to_projective_complex", "minimize",
                 "is_shifted_regular"],
    "ar": ["decide_nrf", "tau_n", "tau_n_minus", "ext_bimodule", "tensor_algebra",
           "preprojective", "auslander_algebra", "tensor_nrf"],
    "cy": ["find_twisted_cy", "check_twisted_cy", "check_untwisted_cy",
           "dual_regular_perf"],
    "constructions": ["cut_algebra", "gamma_algebra", "verify_nakayama_bijection"],
}
# Called millions of times with no child calls: counted, not timed.
CALLS_ONLY = {"algebra.Algebra.mul_elt"}
METHOD_ATTR = {"mul": "__mul__"}
# Counts and ratios read from arguments and return values.
COUNTS = {
    "linalg.rref.entries": "count",
    "homology.nakayama.width_max": "count",
    "homology.nakayama.width_sum": "count",
    "ar.orbit_stages": "count",
    "cy.nu_powers": "count",
    "cy.certs_per_nu_power": "ratio",
    "module.is_isomorphic.true_frac": "ratio",
}
CY_SEARCHES = ("cy.find_twisted_cy", "cy.check_twisted_cy")


def function_names():
    return [f"{mod}.{name}" for mod, names in WRAPPED.items() for name in names]


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for fn in function_names():
        units[fn + ".calls"] = "count"
        if fn not in CALLS_ONLY:
            units[fn + ".self_s"] = "s"
            units[fn + ".total_s"] = "s"
    units.update(COUNTS)
    return units


class Tracer:
    def __init__(self):
        self.names = function_names()
        self.fid = {name: i for i, name in enumerate(self.names)}
        # one entry per span; fn is -1 - fid for a span nested in another
        # span of the same function
        self.fn = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.active = [0] * len(self.names)
        self.plain_calls = {name: [0] for name in CALLS_ONLY}
        self.counts = dict.fromkeys(
            ["rref_entries", "width_max", "width_sum", "orbit_stages",
             "nu_powers", "certs", "iso_calls", "iso_true"], 0)
        self._restore = []

    # -- installing ---------------------------------------------------

    def install(self):
        mods = {m: sys.modules["quivercy." + m] for m in WRAPPED}
        users = [m for k, m in list(sys.modules.items())
                 if m is not None and (k == "quivercy" or k.startswith("quivercy."))]
        for modname, names in WRAPPED.items():
            for name in names:
                full = f"{modname}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    owner = getattr(mods[modname], cls_name)
                    attr = METHOD_ATTR.get(meth, meth)
                    self._set(owner, attr, self._wrap(full, owner.__dict__[attr]))
                    continue
                orig = getattr(mods[modname], name)
                wrapped = self._wrap(full, orig)
                for m in users:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._set(m, attr, wrapped)

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def _set(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _wrap(self, full, f):
        if full in CALLS_ONLY:
            cell = self.plain_calls[full]

            def counted(*args, **kwargs):
                cell[0] += 1
                return f(*args, **kwargs)
            return counted
        post = getattr(self, "_post_" + full.replace(".", "_"), None)
        return self._span_wrapper(f, self.fid[full], post)

    def _span_wrapper(self, f, fid, post):
        fn, parent, start, end = self.fn, self.parent, self.start, self.end
        stack, active = self.stack, self.active

        def traced(*args, **kwargs):
            idx = len(fn)
            fn.append(fid if not active[fid] else -1 - fid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            active[fid] += 1
            start.append(perf_counter())
            try:
                result = f(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                active[fid] -= 1
                stack.pop()
            if post is not None:
                post(args, result, idx)
            return result
        return traced

    # -- counts from arguments and results ------------------------------

    def _parent_is_cy_search(self, idx):
        p = self.parent[idx]
        if p < 0:
            return False
        f = self.fn[p]
        return self.names[f if f >= 0 else -1 - f] in CY_SEARCHES

    def _post_linalg_Mat_rref(self, args, result, idx):
        self.counts["rref_entries"] += args[0].rows * args[0].cols

    def _post_homology_nakayama(self, args, result, idx):
        w = result.width()
        c = self.counts
        c["width_max"] = max(c["width_max"], w)
        c["width_sum"] += w
        if self._parent_is_cy_search(idx):
            c["nu_powers"] += 1

    def _post_cy_find_twisted_cy(self, args, result, idx):
        self.counts["certs"] += result is not None

    def _post_cy_check_twisted_cy(self, args, result, idx):
        self.counts["certs"] += result is True

    def _post_ar_decide_nrf(self, args, result, idx):
        self.counts["orbit_stages"] += sum(result.ell.values())

    def _post_module_is_isomorphic(self, args, result, idx):
        self.counts["iso_calls"] += 1
        self.counts["iso_true"] += result is True

    # -- report -----------------------------------------------------------

    def report(self):
        """Per-layer metrics as {name: value}, in `metric_units()` order."""
        nfn = len(self.names)
        calls = [0] * nfn
        self_s = [0.0] * nfn
        total_s = [0.0] * nfn
        child = [0.0] * len(self.fn)
        fn, parent, start, end = self.fn, self.parent, self.start, self.end
        # children are recorded after their parent, so walking backwards
        # sees every child before its parent
        for i in range(len(fn) - 1, -1, -1):
            dur = end[i] - start[i]
            f = fn[i]
            if f >= 0:
                total_s[f] += dur
            else:
                f = -1 - f
            calls[f] += 1
            self_s[f] += dur - child[i]
            p = parent[i]
            if p >= 0:
                child[p] += dur
        out = {}
        for k, name in enumerate(self.names):
            if name in CALLS_ONLY:
                out[name + ".calls"] = self.plain_calls[name][0]
                continue
            out[name + ".calls"] = calls[k]
            out[name + ".self_s"] = self_s[k]
            out[name + ".total_s"] = total_s[k]
        c = self.counts
        out["linalg.rref.entries"] = c["rref_entries"]
        out["homology.nakayama.width_max"] = c["width_max"]
        out["homology.nakayama.width_sum"] = c["width_sum"]
        out["ar.orbit_stages"] = c["orbit_stages"]
        out["cy.nu_powers"] = c["nu_powers"]
        out["cy.certs_per_nu_power"] = c["certs"] / c["nu_powers"] if c["nu_powers"] else 0.0
        out["module.is_isomorphic.true_frac"] = (
            c["iso_true"] / c["iso_calls"] if c["iso_calls"] else 0.0)
        return out
