"""Span recorder for the traced run, and the per-layer metrics built from it.

Spans are taken from outside the program: `Recorder.installed()` replaces
each public function listed in `TARGETS` with a timing wrapper, both on its
defining module and on every `from ... import` binding in other `pathweave`
modules that holds the same object (for example `pathweave.cli.evaluate` or
`pathweave.analysis.clip`), and puts the originals back on exit. Spans stay
in memory with parent links and are written out when the run ends.

A span's duration covers only the wrapped call; the wrapper's own
bookkeeping (counters, tracemalloc) is kept out of it and out of the
parent's self time, which is the parent's duration minus the full wrapper
time of its children in other layers.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import statistics
import sys
import tracemalloc
from time import perf_counter

import numpy as np

from pathweave.expr import weighted_cost

# (module, attribute, span name). A class attribute is written "Class.attr".
# Functions that share a span name form one group, and nested spans of one
# group count once (read_triples -> parse_triples -> ingest_triples).
TARGETS = (
    ("pathweave.tensor", "MultiRelTensor.from_edges", "tensor.ingest"),
    ("pathweave.tensor", "read_triples", "tensor.ingest"),
    ("pathweave.tensor", "parse_triples", "tensor.ingest"),
    ("pathweave.tensor", "ingest_triples", "tensor.ingest"),
    ("pathweave.tensor", "MultiRelTensor.matrix", "tensor.matrix"),
    ("pathweave.expr", "parse", "expr.parse"),
    ("pathweave.expr", "parse_program", "expr.parse"),
    ("pathweave.rewrite", "simplify", "rewrite.simplify"),
    ("pathweave.evaluate", "evaluate", "evaluate.evaluate"),
    ("pathweave.evaluate", "plan", "evaluate.plan"),
    ("pathweave.kernels", "matmul", "kernels.matmul"),
    ("pathweave.kernels", "hadamard", "kernels.hadamard"),
    ("pathweave.kernels", "transpose", "kernels.transpose"),
    ("pathweave.kernels", "not_", "kernels.not"),
    ("pathweave.kernels", "clip", "kernels.clip"),
    ("pathweave.kernels", "add", "kernels.add"),
    ("pathweave.kernels", "scale", "kernels.scale"),
    ("pathweave.kernels", "vertex_out", "kernels.vertex_out"),
    ("pathweave.kernels", "vertex_in", "kernels.vertex_in"),
    ("pathweave.kernels", "materialize_filter", "kernels.materialize_filter"),
    ("pathweave.kernels", "export_tsv", "kernels.export_tsv"),
    ("pathweave.analysis", "pagerank", "analysis.pagerank"),
    ("pathweave.analysis", "spreading_activation", "analysis.spreading_activation"),
    ("pathweave.analysis", "assortativity_scalar", "analysis.assortativity_scalar"),
    ("pathweave.analysis", "assortativity_categorical", "analysis.assortativity_categorical"),
    ("pathweave.analysis", "shortest_paths", "analysis.shortest_paths"),
    ("pathweave.cli", "main", "cli.main"),
)

KERNEL_OPS = (
    "matmul",
    "hadamard",
    "transpose",
    "not",
    "clip",
    "add",
    "scale",
    "vertex_out",
    "vertex_in",
    "materialize_filter",
)
CLI_COMMANDS = ("eval", "pagerank", "assort", "spread", "geodesic")
ANALYSES = (
    "pagerank",
    "spreading_activation",
    "assortativity_scalar",
    "assortativity_categorical",
    "shortest_paths",
)

# Spans whose tracemalloc peak is recorded (numpy reports its buffers).
PEAK_SPANS = ("kernels.matmul", "kernels.hadamard", "analysis.shortest_paths")

# name -> (unit, better). Counts and count ratios must repeat exactly for a
# given seed; `EXACT` lists them.
PER_LAYER = {
    "tensor.ingest_s": ("s", "lower"),
    "tensor.matrix_s": ("s", "lower"),
    "tensor.matrix_calls": ("count", "lower"),
    "expr.parse_s": ("s", "lower"),
    "rewrite.simplify_s": ("s", "lower"),
    "rewrite.simplify_p95_ms": ("ms", "lower"),
    "rewrite.trace_steps": ("count", "lower"),
    "rewrite.cost_saved_ratio": ("ratio", "higher"),
    "evaluate.plan_s": ("s", "lower"),
    "evaluate.self_s": ("s", "lower"),
    "evaluate.flops_est_ratio": ("ratio", "lower"),
    **{f"kernels.{op}_s": ("s", "lower") for op in KERNEL_OPS},
    **{f"kernels.{op}_calls": ("count", "lower") for op in KERNEL_OPS},
    "kernels.matmul_flops": ("count", "lower"),
    "kernels.matmul_out_nnz": ("count", "lower"),
    "kernels.hadamard_kept_ratio": ("ratio", "higher"),
    "kernels.matmul_peak_mb": ("MB", "lower"),
    "kernels.hadamard_peak_mb": ("MB", "lower"),
    "kernels.export_tsv_s": ("s", "lower"),
    **{f"analysis.{fn}_s": ("s", "lower") for fn in ANALYSES},
    "analysis.shortest_paths_peak_mb": ("MB", "lower"),
    **{f"cli.{cmd}_s": ("s", "lower") for cmd in CLI_COMMANDS},
    "cli.self_s": ("s", "lower"),
    "cli.bytes_out": ("bytes", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

EXACT = (
    "tensor.matrix_calls",
    "rewrite.trace_steps",
    "rewrite.cost_saved_ratio",
    "evaluate.flops_est_ratio",
    *(f"kernels.{op}_calls" for op in KERNEL_OPS),
    "kernels.matmul_flops",
    "kernels.matmul_out_nnz",
    "kernels.hadamard_kept_ratio",
    "cli.bytes_out",
)


class Span:
    __slots__ = ("sid", "parent", "name", "label", "phase", "start", "end", "outer", "counts")

    def __init__(self, sid, parent, name, phase):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.label = None
        self.phase = phase
        self.start = self.end = self.outer = 0.0
        self.counts = {}

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self):
        return {
            "id": self.sid,
            "parent": self.parent,
            "name": self.name,
            "label": self.label,
            "phase": self.phase,
            "start": self.start,
            "end": self.end,
            "counts": self.counts,
        }


def _matmul_flops(a, b):
    """Multiply-adds of the product the kernel runs: sum over k of
    colnnz(A)_k * rownnz(B)_k on the stored patterns, n^3 when both
    operands are complements (that case goes dense)."""
    if a.complement and b.complement:
        return a.n**3
    colnnz = np.bincount(a.mat.indices, minlength=a.n)
    rownnz = np.diff(b.mat.indptr)
    return int(np.dot(colnnz.astype(np.int64), rownnz.astype(np.int64)))


def _hadamard_operand_nnz(a, b):
    """Stored entries of the sparse operand(s) a filter product reads from;
    None when both are complements (the result is a complement too)."""
    sizes = [m.mat.nnz for m in (a, b) if not m.complement]
    return min(sizes) if sizes else None


class Recorder:
    """Holds spans of one process; `phase` tags which set-up or pass a span
    belongs to."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.phase = None
        self._patched = []

    # -- wrapping ----------------------------------------------------------

    def _wrapper(self, fn, name):
        peak = name in PEAK_SPANS
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = perf_counter()
            stack = recorder.stack
            span = Span(len(recorder.spans), stack[-1].sid if stack else None, name, recorder.phase)
            recorder.spans.append(span)
            if name == "kernels.matmul":
                span.counts["flops"] = _matmul_flops(args[0], args[1])
            elif name == "kernels.hadamard":
                span.counts["in_nnz"] = _hadamard_operand_nnz(args[0], args[1])
            elif name == "cli.main":
                argv = args[0] if args else kwargs.get("argv")
                span.label = argv[0] if argv else None
            started = peak and not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if started:
                    span.counts["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
            if name == "kernels.matmul":
                span.counts["out_nnz"] = int(result.mat.nnz)
            elif name == "kernels.hadamard" and span.counts["in_nnz"] is not None:
                span.counts["out_nnz"] = int(result.mat.nnz)
            elif name == "evaluate.plan":
                span.counts["est_flops"] = float(result.est_flops)
            elif name == "rewrite.simplify":
                span.counts["trace_steps"] = len(result[1])
                span.counts["cost_in"] = weighted_cost(args[0])
                span.counts["cost_out"] = weighted_cost(result[0])
            span.outer = perf_counter() - enter
            return result

        return traced

    def _bind(self, owner, attr, value):
        # a class keeps its raw descriptor (classmethod), a module its function
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target and its import bindings; restore on exit."""
        modules = [m for k, m in sorted(sys.modules.items()) if k == "pathweave" or k.startswith("pathweave.")]
        try:
            for modname, attr, name in TARGETS:
                module = sys.modules[modname]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        self._bind(cls, meth, classmethod(self._wrapper(raw.__func__, name)))
                    else:
                        self._bind(cls, meth, self._wrapper(raw, name))
                    continue
                original = getattr(module, attr)
                wrapped = self._wrapper(original, name)
                for other in modules:
                    for key, value in list(vars(other).items()):
                        if value is original:
                            self._bind(other, key, wrapped)
            yield self
        finally:
            while self._patched:
                owner, attr, value = self._patched.pop()
                setattr(owner, attr, value)

    def count(self, key, value):
        """A count the harness observes itself (e.g. CLI bytes written)."""
        span = Span(len(self.spans), None, key, self.phase)
        span.counts["value"] = value
        self.spans.append(span)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


# -- per-layer metrics -------------------------------------------------------


def _layer(name):
    return name.split(".", 1)[0]


def p95(values):
    """Nearest-rank 95th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.95 * len(ordered)) - 1)]


def phase_metrics(spans):
    """Per-layer metrics of the spans of one set-up or pass."""
    by_id = {s.sid: s for s in spans}
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def nested_in_same_group(s):
        p = by_id.get(s.parent)
        while p is not None:
            if p.name == s.name:
                return True
            p = by_id.get(p.parent)
        return False

    def layer_self(s):
        other = [c.outer for c in children.get(s.sid, ()) if _layer(c.name) != _layer(s.name)]
        return s.duration - sum(other)

    def total(name):
        return sum(s.duration for s in spans if s.name == name and not nested_in_same_group(s))

    def calls(name):
        return sum(1 for s in spans if s.name == name and not nested_in_same_group(s))

    def of(name):
        return [s for s in spans if s.name == name]

    m = {
        "tensor.ingest_s": total("tensor.ingest"),
        "tensor.matrix_s": total("tensor.matrix"),
        "tensor.matrix_calls": calls("tensor.matrix"),
        "expr.parse_s": total("expr.parse"),
        "rewrite.simplify_s": total("rewrite.simplify"),
        "rewrite.simplify_p95_ms": p95([s.duration * 1e3 for s in of("rewrite.simplify")] or [0.0]),
        "rewrite.trace_steps": sum(s.counts.get("trace_steps", 0) for s in of("rewrite.simplify")),
        "evaluate.plan_s": total("evaluate.plan"),
        "evaluate.self_s": sum(layer_self(s) for s in of("evaluate.evaluate")),
        "kernels.export_tsv_s": total("kernels.export_tsv"),
        "cli.self_s": sum(layer_self(s) for s in of("cli.main")),
        "cli.bytes_out": sum(s.counts["value"] for s in of("cli.bytes_out")),
    }
    cost_in = sum(s.counts.get("cost_in", 0) for s in of("rewrite.simplify"))
    cost_out = sum(s.counts.get("cost_out", 0) for s in of("rewrite.simplify"))
    m["rewrite.cost_saved_ratio"] = (cost_in - cost_out) / cost_in if cost_in else 0.0
    for op in KERNEL_OPS:
        m[f"kernels.{op}_s"] = total(f"kernels.{op}")
        m[f"kernels.{op}_calls"] = calls(f"kernels.{op}")
    matmuls = of("kernels.matmul")
    flops = sum(s.counts["flops"] for s in matmuls)
    m["kernels.matmul_flops"] = flops
    m["kernels.matmul_out_nnz"] = sum(s.counts.get("out_nnz", 0) for s in matmuls)
    est = sum(s.counts.get("est_flops", 0) for s in of("evaluate.plan"))
    m["evaluate.flops_est_ratio"] = est / flops if flops else 0.0
    masks = [s for s in of("kernels.hadamard") if s.counts["in_nnz"] is not None]
    kept_in = sum(s.counts["in_nnz"] for s in masks)
    m["kernels.hadamard_kept_ratio"] = (
        sum(s.counts.get("out_nnz", 0) for s in masks) / kept_in if kept_in else 0.0
    )
    for short, name in (
        ("kernels.matmul_peak_mb", "kernels.matmul"),
        ("kernels.hadamard_peak_mb", "kernels.hadamard"),
        ("analysis.shortest_paths_peak_mb", "analysis.shortest_paths"),
    ):
        m[short] = max((s.counts["peak_mb"] for s in of(name) if "peak_mb" in s.counts), default=0.0)
    for fn in ANALYSES:
        m[f"analysis.{fn}_s"] = total(f"analysis.{fn}")
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}_s"] = sum(s.duration for s in of("cli.main") if s.label == cmd)
    return m


def layer_metrics(recorder, setup_phases, pass_phases):
    """Per-layer metrics of one set-up plus one pass, each the median over
    the traced set-ups and passes; counts come from the first of each and
    must repeat in every other. Returns (metrics, mismatched count names)."""
    grouped = {}
    for s in recorder.spans:
        grouped.setdefault(s.phase, []).append(s)
    setups = [phase_metrics(grouped.get(p, [])) for p in setup_phases]
    passes = [phase_metrics(grouped.get(p, [])) for p in pass_phases]
    metrics, mismatched = {}, []
    for name in PER_LAYER:
        if name == "trace.overhead_ratio":
            continue
        value = 0.0
        for runs in (setups, passes):
            if not runs:
                continue
            if name in EXACT:
                if any(r[name] != runs[0][name] for r in runs[1:]):
                    mismatched.append(name)
                value += runs[0][name]
            else:
                value += statistics.median(r[name] for r in runs)
        metrics[name] = value
    return metrics, sorted(set(mismatched))
