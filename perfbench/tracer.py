"""Per-layer spans and counters for an in-process run of ``fstirling.cli.main``.

``Tracer.installed()`` swaps wrappers in for the layers' public functions,
wherever a ``fstirling`` module holds them (several modules import
``s1_triangle`` and ``eval_f`` by name), and puts the originals back on exit.
Each call records a span (name, start, end, parent span, op id) in flat arrays
kept in memory, and adds its duration minus its child spans to the layer's
self time.
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array
from pathlib import Path

# (span name, module, attribute path); a name may cover several functions.
TARGETS = (
    ("cli.main", "fstirling.cli", "main"),
    ("cli.run_suite", "fstirling.cli", "run_suite"),
    ("laurent.mul", "fstirling.laurent", "LaurentPoly.__mul__"),
    ("laurent.add", "fstirling.laurent", "LaurentPoly.__add__"),
    ("laurent.pow", "fstirling.laurent", "LaurentPoly.__pow__"),
    ("cyclotomic.mul", "fstirling.cyclotomic", "CyclotomicElem.__mul__"),
    ("series.mul", "fstirling.series", "TruncSeries.__mul__"),
    ("series.pow", "fstirling.series", "TruncSeries.__pow__"),
    ("fspec.eval_f", "fstirling.fspec", "eval_f"),
    ("fspec.eval_f", "fstirling.fspec", "eval_f_scalar"),
    ("stirling.s1_triangle", "fstirling.stirling", "s1_triangle"),
    ("stirling.s1_entry_oracle", "fstirling.stirling", "s1_entry_oracle"),
    ("fharmonic.direct", "fstirling.fharmonic", "fharmonic_direct"),
    ("fharmonic.ftilde", "fstirling.fharmonic", "harmonic_via_ftilde"),
    ("fharmonic.roots", "fstirling.fharmonic", "harmonic_via_roots"),
    ("fharmonic.subst", "fstirling.fharmonic", "harmonic_via_subst"),
    ("fharmonic.prop1", "fstirling.fharmonic", "prop1_recurrence_check"),
    ("fharmonic.prop2", "fstirling.fharmonic", "prop2_functional_eq_check"),
    ("fharmonic.euler_sum_numeric", "fstirling.fharmonic", "euler_sum_numeric"),
    ("convpoly.sigma_eval", "fstirling.convpoly", "sigma_eval"),
    ("report.check", "fstirling.report", "Report.check"),
    ("report.to_json", "fstirling.report", "Report.to_json"),
)
SPAN_FIELDS = (("name", "i"), ("parent", "i"), ("op", "i"), ("start", "d"), ("end", "d"))


def _resolve(module: str, path: str):
    obj = sys.modules[module]
    for part in path.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, obj


def _bits(c) -> int:
    return max(c.numerator.bit_length(), c.denominator.bit_length())


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.spans = {field: array(code) for field, code in SPAN_FIELDS}
        self.op = -1
        self._stack: list = []     # span ids of open calls
        self._children: list = []  # time covered by child spans, per open call
        self.calls: dict = {}
        self.total_s: dict = {}
        self.self_s: dict = {}
        self.counts = {"laurent.mul.coeff_mults": 0, "laurent.mul.const_pairs": 0,
                       "laurent.max_terms": 0, "laurent.max_coeff_bits": 0,
                       "scalar.result_bits": 0}
        self.suite_cells: dict = {}
        self.triangle_keys: set = set()
        self._t0 = time.perf_counter()

    # -- hooks: counters measured where the work happens -----------------------

    def _laurent_size(self, result):
        terms = result.terms
        counts = self.counts
        if len(terms) > counts["laurent.max_terms"]:
            counts["laurent.max_terms"] = len(terms)
        if terms:
            bits = max(map(_bits, terms.values()))
            if bits > counts["laurent.max_coeff_bits"]:
                counts["laurent.max_coeff_bits"] = bits

    def _laurent_mul(self, args, result):
        a, b = args
        b_terms = b.terms if hasattr(b, "terms") else ({0: b} if b else {})
        self.counts["laurent.mul.coeff_mults"] += len(a.terms) * len(b_terms)
        if set(a.terms) <= {0} and set(b_terms) <= {0}:
            self.counts["laurent.mul.const_pairs"] += 1
        self._laurent_size(result)

    def _laurent_add(self, args, result):
        self._laurent_size(result)

    def _triangle(self, args, result):
        spec, t, n_rows = args
        self.triangle_keys.add((spec, str(t), n_rows))

    def _euler(self, args, result):
        bits = result.denominator.bit_length()
        if bits > self.counts["scalar.result_bits"]:
            self.counts["scalar.result_bits"] = bits

    def _suite(self, args, result):
        name = "cli.run_suite." + args[0]
        self.suite_cells[name] = self.suite_cells.get(name, 0) + sum(len(r.cells) for r in result)

    HOOKS = {
        "laurent.mul": _laurent_mul,
        "laurent.add": _laurent_add,
        "stirling.s1_triangle": _triangle,
        "fharmonic.euler_sum_numeric": _euler,
        "cli.run_suite": _suite,
    }

    # -- spans -------------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        tracer, spans, perf = self, self.spans, time.perf_counter
        stack, children = self._stack, self._children
        hook = self.HOOKS.get(name)
        per_suite = name == "cli.run_suite"
        fixed_id = None if per_suite else self._name_id(name)

        def wrapper(*args, **kwargs):
            span_name = name + "." + args[0] if per_suite else name
            sid = len(spans["start"])
            spans["name"].append(tracer._name_id(span_name) if per_suite else fixed_id)
            spans["parent"].append(stack[-1] if stack else -1)
            spans["op"].append(tracer.op)
            spans["start"].append(0.0)
            spans["end"].append(0.0)
            stack.append(sid)
            children.append(0.0)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                covered = children.pop()
                if children:
                    children[-1] += end - start
                spans["start"][sid] = start - tracer._t0
                spans["end"][sid] = end - tracer._t0
                tracer.calls[span_name] = tracer.calls.get(span_name, 0) + 1
                tracer.total_s[span_name] = tracer.total_s.get(span_name, 0.0) + end - start
                tracer.self_s[span_name] = (tracer.self_s.get(span_name, 0.0)
                                            + end - start - covered)
            if hook is not None:
                hook(tracer, args, result)
                if children:
                    # Counting is tracing cost: keep it out of the parent's self time.
                    children[-1] += perf() - end
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every fstirling namespace that holds a target; restore on exit."""
        modules = [m for k, m in sys.modules.items() if k == "fstirling" or k.startswith("fstirling.")]
        patched = []
        try:
            for name, module, path in TARGETS:
                home, original = _resolve(module, path)
                wrapper = self._wrap(name, original)
                for owner in modules + [home]:
                    for attr, value in list(vars(owner).items()):
                        if value is original:
                            patched.append((owner, attr, original))
                            setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def write_spans(self, path: Path) -> dict:
        """Write the span arrays, one after another, to ``path``; returns their layout."""
        with open(path, "wb") as fh:
            for field, _ in SPAN_FIELDS:
                self.spans[field].tofile(fh)
        return {
            "file": path.name,
            "count": len(self.spans["start"]),
            "byteorder": sys.byteorder,
            "arrays": [{"field": f, "typecode": c, "itemsize": array(c).itemsize}
                       for f, c in SPAN_FIELDS],
            "names": self.names,
            "time_unit": "s since the traced pass began",
        }

    def layer_counts(self) -> dict:
        """Every count metric of the pass (these repeat exactly run to run)."""
        out = {f"{name}.calls": n for name, n in self.calls.items()}
        out.update(self.counts)
        out.update({f"{name}.cells": n for name, n in self.suite_cells.items()})
        tri_calls = self.calls.get("stirling.s1_triangle", 0)
        out["stirling.s1_triangle.distinct"] = len(self.triangle_keys)
        out["stirling.s1_triangle.distinct_share"] = (
            len(self.triangle_keys) / tri_calls if tri_calls else 0.0)
        mul_calls = self.calls.get("laurent.mul", 0)
        out["laurent.mul.const_share"] = (
            self.counts["laurent.mul.const_pairs"] / mul_calls if mul_calls else 0.0)
        return out

    def layer_times(self) -> dict:
        out = {f"{name}.self_s": s for name, s in self.self_s.items()}
        out.update({f"{name}.s": s for name, s in self.total_s.items()
                    if name.startswith("cli.run_suite.")})
        return out

