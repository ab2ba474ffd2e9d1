"""Span tracing around the public functions of ``bsp``.

Each traced layer is one public function.  It is wrapped under every name
a caller can look it up by: any attribute of a loaded ``bsp`` module that
holds the function (``bsp.enumeration.canonical_key``,
``bsp.polytope.canonical_key``, ``bsp.kernel.enum_branch``, the active
backend module's own globals, ...), plus the class attribute for methods.
The wrappers record spans (name, start, end, parent, op) in memory and a
few exact counters taken from the layer's return value; ``restore`` puts
every original back.
"""

from __future__ import annotations

import statistics
import sys
import time
from math import comb

# (metric prefix, module holding the function, attribute path)
LAYERS = (
    ("kernel.enum_branch", "backend", "enum_branch"),
    ("kernel.pair_rows", "backend", "pair_rows"),
    ("kernel.facet_scan", "backend", "facet_scan"),
    ("canon.canonical_key", "bsp.canon", "canonical_key"),
    ("canon.canonical_from_key", "bsp.canon", "canonical_from_key"),
    ("family.matrix_rank", "bsp.family", "matrix_rank"),
    ("family.product_matrix", "bsp.family", "product_matrix"),
    ("family.BspPair.validate", "bsp.family", "BspPair.validate"),
    ("polytope.polytope_from_vertices", "bsp.polytope", "polytope_from_vertices"),
    ("polytope.extract_pair", "bsp.polytope", "extract_pair"),
    ("polytope.reference_slack", "bsp.polytope", "reference_slack"),
    ("decomposition.audit_pair", "bsp.decomposition", "audit_pair"),
    ("decomposition.check_lemslice", "bsp.decomposition", "check_lemslice"),
    ("lemmas.check_lemma1", "bsp.lemmas", "check_lemma1"),
    ("lemmas.check_lemma2", "bsp.lemmas", "check_lemma2"),
    ("bounds.check_thm3", "bsp.bounds", "check_thm3"),
    ("bounds.check_thm4", "bsp.bounds", "check_thm4"),
    ("constructions.construct_example", "bsp.constructions", "construct_example"),
    ("enumeration.enumerate_catalog", "bsp.enumeration", "enumerate_catalog"),
)

# exact counts and ratios taken at the layer boundaries, with their units
COUNTERS = (
    ("kernel.enum_branch.closed_sets", "count"),
    ("kernel.enum_branch.spanning_sets", "count"),
    ("kernel.enum_branch.forms", "count"),
    ("kernel.enum_branch.max_over_median", "ratio"),
    ("enumeration.classes_per_form", "ratio"),
    ("kernel.facet_scan.subsets", "count"),
    ("kernel.facet_scan.facets", "count"),
    ("kernel.facet_scan.hit_ratio", "ratio"),
    ("decomposition.check_lemslice.checked", "count"),
    ("decomposition.check_lemslice.tight", "count"),
    ("canon.canonical_key.ms_p50", "ms"),
    ("trace.overhead_pct", "%"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for name, _, _ in LAYERS:
        out[f"{name}.calls"] = "count"
        out[f"{name}.self_s"] = "s"
    out.update(COUNTERS)
    return out


def _home(module_name: str, path: str):
    """(object that owns the attribute, attribute name)."""
    if module_name == "backend":
        from bsp import kernel

        return kernel.get_backend(), path
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _bsp_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "bsp" or n.startswith("bsp."))]


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[str, int] = {}
        self.forms: set[bytes] = set()
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for name, module_name, path in LAYERS:
            owner, attr = _home(module_name, path)
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapper = self._wrap(name, fn)
            if isinstance(owner, type):
                self._patched.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            for mod in _bsp_modules():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        on_result = _RESULT_HOOKS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)  # reserve the slot so children index after it
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if on_result is not None:
                on_result(self, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- reduction --------------------------------------------------------

    def pass_metrics(self, first_span: int, speed: float = 1.0) -> dict[str, float]:
        """Per-layer calls, self time and counters of the spans recorded
        since index ``first_span`` (one pass of the workload).  Times are
        multiplied by ``speed``, the factor to the nominal machine speed."""
        spans = self.spans[first_span:]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= first_span:
                child_time[parent - first_span] += end - start
        out: dict[str, float] = {}
        for name, _, _ in LAYERS:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        branch_s = []
        key_s = []
        for i, (name, start, end, _, _) in enumerate(spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += ((end - start) - child_time[i]) * speed
            if name == "kernel.enum_branch":
                branch_s.append(end - start)
            elif name == "canon.canonical_key":
                key_s.append(end - start)
        c = self.counts
        forms = len(self.forms)
        subsets = c.get("facet_scan.subsets", 0)
        out["kernel.enum_branch.closed_sets"] = c.get("enum_branch.closed", 0)
        out["kernel.enum_branch.spanning_sets"] = c.get("enum_branch.spanning", 0)
        out["kernel.enum_branch.forms"] = forms
        out["kernel.enum_branch.max_over_median"] = (
            max(branch_s) / statistics.median(branch_s) if branch_s else 0.0
        )
        out["enumeration.classes_per_form"] = (
            c.get("enumerate_catalog.classes", 0) / forms if forms else 0.0
        )
        out["kernel.facet_scan.subsets"] = subsets
        out["kernel.facet_scan.facets"] = c.get("facet_scan.facets", 0)
        out["kernel.facet_scan.hit_ratio"] = (
            c.get("facet_scan.facets", 0) / subsets if subsets else 0.0
        )
        out["decomposition.check_lemslice.checked"] = c.get("lemslice.checked", 0)
        out["decomposition.check_lemslice.tight"] = c.get("lemslice.tight", 0)
        out["canon.canonical_key.ms_p50"] = (
            statistics.median(key_s) * speed * 1e3 if key_s else 0.0
        )
        return out

    def reset_counts(self) -> None:
        self.counts.clear()
        self.forms.clear()


def _enum_branch_result(tr: Tracer, args, result) -> None:
    visited, spanning, items = result
    tr.add("enum_branch.closed", visited)
    tr.add("enum_branch.spanning", spanning)
    tr.forms.update(hb for hb, _ in items)


def _facet_scan_result(tr: Tracer, args, result) -> None:
    dim, verts = args[0], args[1]
    tr.add("facet_scan.subsets", comb(len(verts), dim))
    tr.add("facet_scan.facets", len(result))


def _enumerate_result(tr: Tracer, args, result) -> None:
    tr.add("enumerate_catalog.classes", len(result))


def _lemslice_result(tr: Tracer, args, result) -> None:
    tr.add("lemslice.checked", result.checked)
    tr.add("lemslice.tight", result.tight)


_RESULT_HOOKS = {
    "kernel.enum_branch": _enum_branch_result,
    "kernel.facet_scan": _facet_scan_result,
    "enumeration.enumerate_catalog": _enumerate_result,
    "decomposition.check_lemslice": _lemslice_result,
}
