"""Spans around mdrg's layers, recorded from outside the program.

``Tracer.install`` replaces each layer function at the module attribute
through which ``mdrg.cli``, ``mdrg.schemes`` or ``mdrg.ppoly`` calls it
(for example ``mdrg.schemes.m_distance_table``) by a wrapper that
records a span: name, start, end and parent.  ``Tracer.uninstall`` puts
the originals back.  Counters are taken from arguments and results at
the same boundaries.  Span names are ``<module>.<function>`` of the layer
that does the work.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import time
from collections import Counter
from typing import Any, Callable, Optional

from mdrg.orders import MultiIndex


def _boundary_cases(args, kwargs, result) -> dict:
    t = args[0]
    dom = t.domain()
    m = t.m
    units = [MultiIndex.unit(m, c) for c in range(1, m + 1)]
    return {"ppoly.boundary_cases": sum(1 for a in dom for unit in units
                                        if a + unit not in dom)}


def _discover(args, kwargs, result) -> dict:
    scheme, m = args[0], args[1]
    return {"ppoly.discover.tuples": math.perm(len(scheme.matrices) - 1, m),
            "ppoly.discover.found": len(result)}


def _class_products(args, kwargs, result) -> dict:
    return {"schemes.class_products": len(args[0].matrices) ** 2}


def _vertex_pairs(args, kwargs, result) -> dict:
    return {"graphs.vertex_pairs": args[0].n ** 2}


FAMILIES = ("cartesian_product", "cell24", "complete", "cycle", "gen24cell",
            "hamming_graph", "pauli_scheme4", "symmetrize")

# (owner, attribute, span name, counter function or None).  The owner is
# the module (or class) whose attribute the caller looks up at call time.
POINTS: list[tuple[str, str, str, Optional[Callable]]] = [
    ("mdrg.cli", "m_distance_table", "graphs.m_distance_table", _vertex_pairs),
    ("mdrg.schemes", "m_distance_table", "graphs.m_distance_table",
     _vertex_pairs),
    ("mdrg.cli", "mdrg_check", "schemes.mdrg_check", None),
    ("mdrg.ppoly", "mdrg_check", "schemes.mdrg_check", None),
    ("mdrg.schemes", "distance_matrices", "schemes.distance_matrices", None),
    ("mdrg.cli", "verify_scheme_axioms", "schemes.verify_scheme_axioms",
     _class_products),
    ("mdrg.ppoly", "verify_scheme_axioms", "schemes.verify_scheme_axioms",
     _class_products),
    ("mdrg.cli", "intersection_tensor", "schemes.intersection_tensor",
     _class_products),
    ("mdrg.schemes:IntersectionTensor", "validate", "schemes.tensor_validate",
     None),
    ("mdrg.schemes", "mat_vec", "exactlinalg.mat_vec", None),
    ("mdrg.ppoly", "mat_vec", "exactlinalg.mat_vec", None),
    ("mdrg.ppoly", "in_span", "exactlinalg.in_span", None),
    ("mdrg.ppoly", "solve_columns", "exactlinalg.solve_columns", None),
    ("mdrg.cli", "certify_ppoly", "ppoly.certify", None),
    ("mdrg.cli", "certify_ppoly_refined", "ppoly.certify", None),
    ("mdrg.cli", "boundary_check", "ppoly.boundary_check", _boundary_cases),
    ("mdrg.cli", "extract_polynomials", "ppoly.extract_polynomials",
     lambda a, k, r: {"ppoly.polynomials": len(r[0])}),
    ("mdrg.cli", "verify_recurrences", "ppoly.verify_recurrences", None),
    ("mdrg.cli", "certify_type_ab", "ppoly.type_ab", None),
    ("mdrg.cli", "ab_region_for_scheme", "ppoly.type_ab", None),
    ("mdrg.cli", "discover_labelings", "ppoly.discover_labelings", _discover),
    ("mdrg.ppoly", "validate_pair_compat", "orders.validate_pair_compat", None),
    ("mdrg.ppoly", "check_domain", "orders.check_domain", None),
    ("mdrg.cli", "load_document", "serialize.load_document",
     lambda a, k, r: {"serialize.load_bytes": os.path.getsize(a[0])}),
    ("mdrg.cli", "dump_json", "serialize.dump_json",
     lambda a, k, r: {"serialize.dump_bytes": len(r)}),
] + [("mdrg.cli", name, "families.generate", None) for name in FAMILIES]

TOP = "cli.main"

# (metric, unit, better) in the order they are reported.  ``.s`` is the
# time inside outermost spans of that name, ``.self_s`` the time not
# covered by child spans, ``.calls`` the span count.
PER_LAYER: list[tuple[str, str, str]] = [
    ("graphs.m_distance_table.s", "s", "lower"),
    ("graphs.m_distance_table.calls", "count", "lower"),
    ("graphs.vertex_pairs", "count", "lower"),
    ("schemes.mdrg_check.self_s", "s", "lower"),
    ("schemes.distance_matrices.s", "s", "lower"),
    ("schemes.verify_scheme_axioms.s", "s", "lower"),
    ("schemes.intersection_tensor.s", "s", "lower"),
    ("schemes.tensor_validate.s", "s", "lower"),
    ("schemes.class_products", "count", "lower"),
    ("exactlinalg.mat_vec.s", "s", "lower"),
    ("exactlinalg.mat_vec.calls", "count", "lower"),
    ("exactlinalg.in_span.s", "s", "lower"),
    ("exactlinalg.in_span.calls", "count", "lower"),
    ("exactlinalg.solve_columns.s", "s", "lower"),
    ("exactlinalg.solve_columns.calls", "count", "lower"),
    ("ppoly.certify.self_s", "s", "lower"),
    ("ppoly.boundary_check.self_s", "s", "lower"),
    ("ppoly.boundary_cases", "count", "lower"),
    ("ppoly.extract_polynomials.self_s", "s", "lower"),
    ("ppoly.polynomials", "count", "lower"),
    ("ppoly.verify_recurrences.s", "s", "lower"),
    ("ppoly.type_ab.s", "s", "lower"),
    ("ppoly.discover_labelings.self_s", "s", "lower"),
    ("ppoly.discover.tuples", "count", "lower"),
    ("ppoly.discover.found", "count", "higher"),
    ("ppoly.discover.hit_ratio", "ratio", "higher"),
    ("orders.validate_pair_compat.s", "s", "lower"),
    ("orders.check_domain.s", "s", "lower"),
    ("serialize.load_document.s", "s", "lower"),
    ("serialize.load_bytes", "bytes", "lower"),
    ("serialize.dump_json.s", "s", "lower"),
    ("serialize.dump_bytes", "bytes", "lower"),
    ("families.generate.s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
    # Not a span: commands whose outcome differs from the reference,
    # known wrong verdicts included, over commands attempted.
    ("check.fail_frac", "ratio", "lower"),
]


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self) -> None:
        # (name, start_ns, end_ns, parent index or -1); a slot is None
        # while its span is open.
        self.spans: list[Optional[tuple[str, int, int, int]]] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count is not None:
                counters.update(count(args, kwargs, result))
            return result
        return traced

    def install(self) -> None:
        for owner_path, attr, name, count in POINTS:
            module_path, _, class_name = owner_path.partition(":")
            owner = importlib.import_module(module_path)
            if class_name:
                owner = getattr(owner, class_name)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, count))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals of the spans recorded since the last reset."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        total_ns: Counter = Counter()
        self_ns: Counter = Counter()
        calls: Counter = Counter()
        for i, (name, start, end, parent) in enumerate(spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[i]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                total_ns[name] += end - start
        values: dict[str, float] = dict(self.counters)
        for name in calls:
            values[name + ".s"] = total_ns[name] / 1e9
            values[name + ".self_s"] = self_ns[name] / 1e9
            values[name + ".calls"] = calls[name]
        tuples = values.get("ppoly.discover.tuples", 0)
        values["ppoly.discover.hit_ratio"] = (
            values.get("ppoly.discover.found", 0) / tuples if tuples else 0.0)
        return values
