"""Per-layer tracing of nilheckeb from outside the package.

``Tracer.install()`` rebinds the public functions of each layer in every
``nilheckeb.*`` module namespace (and class) where they are bound, so both
calls from the benchmark and calls between modules go through a timing
wrapper.  ``Tracer.restore()`` puts the original objects back.

Spans are kept in memory in a ``SpanLog`` (columns of machine numbers, as
a traced batch can make a million calls) and read back as tuples
``(span_id, parent_id, op_id, layer, name, start, end)``; a layer's self
time is the sum over its spans of the span duration minus the time
covered by direct child spans.  Setting ``keep_spans`` to False stops
storing spans; calls, self times and counters go on.  Counters are
taken at the same call boundaries.  Names that a later version of the
package no longer defines are skipped, and their layer then reports 0.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from fractions import Fraction

# layer -> (module, function names, {class name: method names})
LAYERS = {
    "kernels": ("nilheckeb._kernels_py", (
        "add_terms", "sub_terms", "scale_terms", "mul_terms",
        "div_linear_terms", "div_var_terms"), {}),
    "extpoly": ("nilheckeb.extpoly", (
        "exact_div_linear", "degree", "parse", "render", "to_json", "from_json",
        "random_poly"), {"ExtPoly": (
            "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
            "__rmul__", "__pow__", "__eq__", "homogeneous_components")}),
    "weylb.act_gen": ("nilheckeb.weylb", ("act_gen", "act_word", "act"), {}),
    "weylb.group": ("nilheckeb.weylb", (
        "from_word", "compose", "inverse", "length", "right_descents",
        "some_reduced_word", "all_reduced_words", "is_reduced",
        "longest_element", "longest_word", "enumerate_group", "verify_weyl"), {}),
    "demazure": ("nilheckeb.demazure", (
        "demazure", "demazure_word", "demazure_w", "verify_nil_relations"), {}),
    "nilhecke": ("nilheckeb.nilhecke", (
        "nh_mul", "nh_act", "parse_nh", "render_nh", "pbw_well_formed",
        "verify_presentation"), {"NHElement": (
            "__add__", "__sub__", "__neg__", "__mul__", "__eq__")}),
    "schur": ("nilheckeb.schur", (
        "schur_ext", "schur_closed_form", "schubert", "staircase", "is_invariant",
        "invariant_schur_basis", "decompose_schubert", "poincare",
        "format_poincare", "homog_B", "elem_squares", "verify_schur"), {}),
    "linalg": ("nilheckeb.linalg", ("rref", "rank", "solve", "nullspace"), {}),
    "dgstruct": ("nilheckeb.dgstruct", ("d_apply", "d_apply_nh", "verify_dg"),
                 {"Differential": ("__init__",)}),
    "solomon": ("nilheckeb.solomon", (
        "exterior_d", "demazure_dx", "default_admissible", "validate_admissible",
        "p_matrix", "mixing_matrix", "check_char1", "check_char2", "build_J",
        "verify_J", "solomon_compare", "verify_solomon"), {
            "LocalizedPoly": ("cancel", "__add__", "__mul__"),
            "PolyMatrix": ("mul", "mul_vector", "invert_upper")}),
    "cli": ("nilheckeb.cli", ("main",), {}),
}

TRACED_MARK = "__perfbench_traced__"


def _package_modules():
    """(name, module) for the loaded nilheckeb package and its submodules."""
    return [(name, mod) for name, mod in list(sys.modules.items())
            if mod is not None and (name == "nilheckeb" or name.startswith("nilheckeb."))]


def _coeff_counts(out):
    """(coefficients, Fractions with denominator 1) in a kernel's result."""
    dicts = out if isinstance(out, tuple) else (out,)
    total = whole = 0
    for d in dicts:
        for c in d.values():
            total += 1
            if type(c) is Fraction and c.denominator == 1:
                whole += 1
    return total, whole


class SpanLog:
    """Append-only span store; a parent or operation id of -1 means none."""

    COLUMNS = ("span", "parent", "op", "layer", "name", "start", "end")

    def __init__(self):
        self._ids = array("q")  # span, parent, op, name index: 4 per span
        self._times = array("d")  # start, end: 2 per span
        self._names = []
        self._index = {}

    def append(self, sid, parent, op, layer, name, t0, t1):
        key = (layer, name)
        k = self._index.get(key)
        if k is None:
            k = self._index[key] = len(self._names)
            self._names.append(key)
        self._ids.extend((sid, parent, op, k))
        self._times.extend((t0, t1))

    def __len__(self):
        return len(self._times) // 2

    def __iter__(self):
        ids, times, names = self._ids, self._times, self._names
        for i in range(len(self)):
            layer, name = names[ids[4 * i + 3]]
            yield (ids[4 * i], ids[4 * i + 1], ids[4 * i + 2], layer, name,
                   times[2 * i], times[2 * i + 1])

    def write_tsv(self, path, process):
        """Append one tab-separated line per span, led by ``process``."""
        with open(path, "a") as fh:
            for span in self:
                fh.write(process + "\t" + "\t".join(map(str, span)) + "\n")


class Tracer:
    """Span recorder; create one per traced run and install it once."""

    def __init__(self):
        self.spans = SpanLog()
        self.keep_spans = True
        self.op_id = -1
        self.calls = {layer: 0 for layer in LAYERS}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.counts = {
            "kernels.mul_pairs": 0,
            "kernels.div_terms": 0,
            "coeff.total": 0,
            "coeff.int_as_fraction": 0,
            "extpoly.div_attempts": 0,
            "extpoly.div_exact": 0,
            "extpoly.peak_terms": 0,
            "nilhecke.tails_checked": 0,
            "nilhecke.tails_kept": 0,
            "linalg.cells": 0,
        }
        self._stack = []
        self._next_id = 0
        self._saved = []

    # -- spans ------------------------------------------------------------

    def span(self, layer, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span of ``layer`` and return its result."""
        sid = self._next_id
        self._next_id += 1
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        frame = [sid, 0.0]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            dur = t1 - t0
            if stack:
                stack[-1][1] += dur
            if layer in self.calls:
                self.calls[layer] += 1
                self.self_s[layer] += dur - frame[1]
            if self.keep_spans:
                self.spans.append(sid, parent, self.op_id, layer, name, t0, t1)

    def _wrap(self, layer, name, fn):
        tracer = self
        count = self._counter(layer, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = tracer.span(layer, name, fn, *args, **kwargs)
            if count is not None:
                count(args, out)
            return out

        setattr(traced, TRACED_MARK, True)
        return traced

    def _counter(self, layer, name):
        c = self.counts
        if layer == "kernels":
            def kernel(args, out):
                if name == "mul_terms":
                    c["kernels.mul_pairs"] += len(args[0]) * len(args[1])
                elif name.startswith("div_"):
                    c["kernels.div_terms"] += len(args[0])
                total, whole = _coeff_counts(out)
                c["coeff.total"] += total
                c["coeff.int_as_fraction"] += whole
            return kernel
        if layer == "extpoly":
            def extpoly(args, out):
                if name == "exact_div_linear":
                    c["extpoly.div_exact"] += 1
                terms = getattr(out, "terms", None)
                if isinstance(terms, dict) and len(terms) > c["extpoly.peak_terms"]:
                    c["extpoly.peak_terms"] = len(terms)
            return extpoly
        if layer == "linalg" and name == "rref":
            def rref(args, out):
                rows = args[0]
                if rows:
                    c["linalg.cells"] += len(rows) * len(rows[0])
            return rref
        return None

    # -- install / restore -------------------------------------------------

    def _rebind(self, original, replacement):
        """Point every nilheckeb.* module attribute bound to ``original`` at
        ``replacement``."""
        for _, mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        # Import every module first: a module imported after the rebinding
        # would copy wrappers into its namespace that restore() cannot see.
        mods = {}
        for modname, _, _ in LAYERS.values():
            try:
                mods[modname] = importlib.import_module(modname)
            except ImportError:
                pass
        for layer, (modname, funcs, classes) in LAYERS.items():
            mod = mods.get(modname)
            if mod is None:
                continue
            for name in funcs:
                fn = getattr(mod, name, None)
                if callable(fn):
                    self._rebind(fn, self._wrap(layer, name, fn))
            for clsname, methods in classes.items():
                cls = getattr(mod, clsname, None)
                for name in methods:
                    fn = vars(cls).get(name) if cls is not None else None
                    if callable(fn):
                        self._saved.append((cls, name, fn))
                        setattr(cls, name, self._wrap(layer, f"{clsname}.{name}", fn))
        self._count_attempts()
        self._count_tails()

    def _count_attempts(self):
        """Count division attempts, including the ones that raise."""
        mod = sys.modules.get("nilheckeb.extpoly")
        traced = getattr(mod, "exact_div_linear", None)
        if traced is None:
            return
        c = self.counts

        @functools.wraps(traced)
        def attempt(*args, **kwargs):
            c["extpoly.div_attempts"] += 1
            return traced(*args, **kwargs)

        setattr(attempt, TRACED_MARK, True)
        self._rebind(traced, attempt)

    def _count_tails(self):
        """Count the reducedness tests nilhecke makes on push-through tails."""
        mod = sys.modules.get("nilheckeb.nilhecke")
        traced = getattr(mod, "is_reduced", None)
        if traced is None:
            return
        c = self.counts

        @functools.wraps(traced)
        def tail_check(*args, **kwargs):
            out = traced(*args, **kwargs)
            c["nilhecke.tails_checked"] += 1
            if out is True:
                c["nilhecke.tails_kept"] += 1
            return out

        setattr(tail_check, TRACED_MARK, True)
        self._saved.append((mod, "is_reduced", traced))
        mod.is_reduced = tail_check

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- results -------------------------------------------------------------

    def state(self):
        """Calls, self times and counters, as plain JSON-able data."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts)}


def merge_states(states):
    """Sum several ``Tracer.state()`` results; the peak is a maximum."""
    out = {"calls": {layer: 0 for layer in LAYERS},
           "self_s": {layer: 0.0 for layer in LAYERS},
           "counts": {}}
    for st in states:
        for layer, v in st["calls"].items():
            out["calls"][layer] = out["calls"].get(layer, 0) + v
        for layer, v in st["self_s"].items():
            out["self_s"][layer] = out["self_s"].get(layer, 0.0) + v
        for key, v in st["counts"].items():
            if key == "extpoly.peak_terms":
                out["counts"][key] = max(out["counts"].get(key, 0), v)
            else:
                out["counts"][key] = out["counts"].get(key, 0) + v
    return out


def traced_leftovers():
    """Names in nilheckeb.* modules and classes still bound to a wrapper."""
    found = []
    for modname, mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if getattr(value, TRACED_MARK, False):
                found.append(f"{modname}.{attr}")
            if isinstance(value, type):
                for name, meth in list(vars(value).items()):
                    if getattr(meth, TRACED_MARK, False):
                        found.append(f"{modname}.{attr}.{name}")
    return found
