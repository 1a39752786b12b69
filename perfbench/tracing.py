"""Per-layer spans, recorded from outside ``src/`` by wrapping module functions.

Each traced function is replaced, in every ``permbound`` module that holds
a reference to it (``permbound.cli.run_process``,
``permbound.perminv.permanent_ryser``, ``permbound.permschur.permanent_ryser``,
...), by a wrapper that records a span ``(name, start, end, parent,
request id)``.  Spans stay in memory and are written out at the end.  A
span's self time is its duration minus the time its children cover;
functions that are not wrapped count toward their nearest wrapped caller,
and ``cli`` (the ``main`` call itself) takes what no other span covers, so
the self times of one request sum to its traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from collections import defaultdict

ROOT = "cli"

# (module, attribute) -> span name; run_process picks its name per call.
TARGETS = {
    ("matio", "parse_matrix_file"): "matio.parse",
    ("matio", "to_kind"): "matio.convert",
    ("matcore", "permanent_ryser"): "matcore.ryser",
    ("matcore", "Matrix.is_nonneg"): "matcore.is_nonneg",
    ("matcore", "select"): "matcore.submatrix",
    ("matcore", "delete"): "matcore.submatrix",
    ("matcore", "matmul"): "matcore.submatrix",
    ("process", "run_process"): None,
    ("bounds", "rowsum_bound"): "bounds.rowsum",
    ("bounds", "diag_dominance_certify"): "bounds.diag_dominance",
    ("bounds", "entry_bound_check"): "bounds.boundedness",
    ("bounds", "perm_ratio_check"): "bounds.boundedness",
    ("bounds", "cycle_sum_ratio"): "bounds.boundedness",
    ("perminv", "permanental_inverse"): "perminv.inverse",
    ("permschur", "row_uncrossing_sides"): "permschur.uncross",
    ("permschur", "two_row_inequality_sides"): "permschur.uncross",
    ("permschur", "schur_permanent_bound"): "permschur.schur",
    ("permschur", "rank1_update_permanent"): "permschur.schur",
    ("permschur", "condense"): "permschur.schur",
    ("psd", "permanent_tensor"): "psd.tensor",
    ("psd", "alpha_coefficients"): "psd.alpha",
    ("psd", "psd_schur_check"): "psd.schur",
    ("scalars", "format_scalar"): "scalars.format",
}

SELF_SPANS = [
    "matio.parse", "matio.convert", "matcore.ryser", "matcore.is_nonneg", "matcore.submatrix",
    "process.float", "process.rational", "bounds.rowsum", "bounds.diag_dominance",
    "bounds.boundedness", "perminv.inverse", "permschur.uncross", "permschur.schur",
    "psd.tensor", "psd.alpha", "psd.schur", "scalars.format", ROOT,
]

# Per-layer metrics (name -> unit), in the order BENCHMARK.json lists them.
# Times and counts are per cycle (one pass over the workload's request mix).
PER_LAYER = {
    "matio.parse.self_ms": "ms", "matio.parse.cells": "count", "matio.parse.cells_per_s": "1/s",
    "matio.convert.self_ms": "ms",
    "matcore.ryser.calls": "count", "matcore.ryser.terms": "count", "matcore.ryser.self_ms": "ms",
    "matcore.ryser.ns_per_term": "ns", "matcore.is_nonneg.self_ms": "ms",
    "matcore.submatrix.self_ms": "ms",
    "process.float.self_ms": "ms", "process.float.gflops_computed": "GFLOP/s",
    "process.float.nonfinite": "count", "process.rational.self_ms": "ms",
    "process.rational.pivot_bits_max": "bits",
    "bounds.rowsum.self_ms": "ms", "bounds.diag_dominance.self_ms": "ms",
    "bounds.diag_dominance.certified_ratio": "ratio", "bounds.boundedness.self_ms": "ms",
    "perminv.inverse.calls": "count", "perminv.inverse.self_ms": "ms",
    "permschur.uncross.self_ms": "ms", "permschur.schur.self_ms": "ms",
    "psd.tensor.self_ms": "ms", "psd.alpha.self_ms": "ms", "psd.schur.self_ms": "ms",
    "scalars.format.self_ms": "ms", "scalars.format.digits": "count",
    "cli.self_ms": "ms",
    "trace.wall_ms": "ms", "trace.accounted_ratio": "ratio", "trace.overhead_ratio": "ratio",
}


class Tracer:
    """Span recorder; wrappers record only inside a call made through ``traced_main``."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.pivot_bits_max = 0
        self.request_id: int | None = None
        self._stack: list[list] = []   # [span index, child ns]
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((name, time.perf_counter_ns(), 0, parent, self.request_id))
        idx = len(self.spans) - 1
        self._stack.append([idx, 0])
        return idx

    def _close(self, idx: int):
        end = time.perf_counter_ns()
        name, start, _, parent, rid = self.spans[idx]
        self.spans[idx] = (name, start, end, parent, rid)
        _, child_ns = self._stack.pop()
        self.self_ns[name] += end - start - child_ns
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += end - start

    def traced_main(self, main, request_id: int):
        def run(argv):
            self.request_id = request_id
            idx = self._open(ROOT)
            try:
                return main(argv)
            finally:
                self._close(idx)
                self.request_id = None
        return run

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.request_id is None:
                return fn(*args, **kwargs)
            span = name or _process_span(args[0])
            idx = tracer._open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counter is not None:
                counter(tracer, span, args, result)
            return result
        return wrapper

    def install(self):
        """Replace every traced function wherever a ``permbound`` module refers to it."""
        modules = [m for k, m in sorted(sys.modules.items()) if k == "permbound" or k.startswith("permbound.")]
        for (mod_name, attr), span in TARGETS.items():
            home = importlib.import_module(f"permbound.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = getattr(cls, meth)
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, span, COUNTERS.get(attr)))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, span, COUNTERS.get(attr))
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- output ----------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as f:
            for name, start, end, parent, rid in self.spans:
                f.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                    "parent": parent, "request": rid}) + "\n")

    def metrics(self, cycles: int, traced_wall_ns: int, untraced_wall_ns: float) -> dict[str, float]:
        """Per-layer metrics per cycle, from the spans of ``cycles`` traced cycles.

        ``untraced_wall_ns`` is the untraced half's request time, already scaled
        to the traced half's host speed.
        """
        per = 1.0 / cycles
        c = self.counts
        out = {f"{name}.self_ms": self.self_ns.get(name, 0) / 1e6 * per for name in SELF_SPANS}
        parse_s = self.self_ns.get("matio.parse", 0) / 1e9
        float_s = self.self_ns.get("process.float", 0) / 1e9
        out.update({
            "matio.parse.cells": c["cells"] * per,
            "matio.parse.cells_per_s": c["cells"] / parse_s if parse_s else 0.0,
            "matcore.ryser.calls": self.calls.get("matcore.ryser", 0) * per,
            "matcore.ryser.terms": c["ryser_terms"] * per,
            "matcore.ryser.ns_per_term": self.self_ns.get("matcore.ryser", 0) / c["ryser_terms"] if c["ryser_terms"] else 0.0,
            "process.float.gflops_computed": c["float_flops"] / float_s / 1e9 if float_s else 0.0,
            "process.float.nonfinite": c["nonfinite"] * per,
            "process.rational.pivot_bits_max": float(self.pivot_bits_max),
            "bounds.diag_dominance.certified_ratio": c["certified"] / c["certify_calls"] if c["certify_calls"] else 0.0,
            "perminv.inverse.calls": self.calls.get("perminv.inverse", 0) * per,
            "scalars.format.digits": c["digits"] * per,
            "trace.wall_ms": traced_wall_ns / 1e6 * per,
            "trace.accounted_ratio": sum(self.self_ns.get(n, 0) for n in SELF_SPANS) / traced_wall_ns,
            "trace.overhead_ratio": traced_wall_ns / untraced_wall_ns,
        })
        return {name: out[name] for name in PER_LAYER}


def _process_span(subject) -> str:
    m = getattr(subject, "gram", subject)
    return "process.rational" if m.kind == "rational" else "process.float"


def _count_parse(tracer, span, args, parsed):
    for m in (parsed.matrix, parsed.factor, parsed.majorant):
        if m is not None:
            tracer.counts["cells"] += m.nrows * m.ncols


def _count_ryser(tracer, span, args, result):
    tracer.counts["ryser_terms"] += 1 << args[0].n


def _count_process(tracer, span, args, trace):
    if span == "process.float":
        tracer.counts["float_flops"] += 2 * trace.n ** 3 // 3
        if not math.isfinite(trace.bound):
            tracer.counts["nonfinite"] += 1
    else:
        bits = max((max(p.numerator.bit_length(), p.denominator.bit_length()) for p in trace.pivots),
                   default=0)
        tracer.pivot_bits_max = max(tracer.pivot_bits_max, bits)


def _count_certify(tracer, span, args, result):
    tracer.counts["certify_calls"] += 1
    tracer.counts["certified"] += bool(result.certified)


def _count_format(tracer, span, args, text):
    tracer.counts["digits"] += len(text)


COUNTERS = {
    "parse_matrix_file": _count_parse,
    "permanent_ryser": _count_ryser,
    "run_process": _count_process,
    "diag_dominance_certify": _count_certify,
    "format_scalar": _count_format,
}
