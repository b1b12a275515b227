"""Span tracing of the sulmin layers, installed at run time from outside.

``Tracer.install`` wraps the public functions of the ``sulmin`` modules (the
name is replaced in every module that imported it, since ``from .x import f``
binds per module) and the ``on_monomial``/``on_element`` methods of the three
evaluator classes.  Each wrapped call is a span: name, start, end, parent span
and job id, kept in memory and written out by ``write_spans``.  Self time is a
span's duration minus the time its child spans cover.  The hot leaves
``mono_mul`` and ``elem_add`` keep aggregate counters instead of spans;
``elem_add`` time still counts as covered time of its parent.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple


def _nbytes(args, result) -> int:
    return len(result.encode())


# (module, function, layer name, work counts: name -> f(args, result) -> int).
# The first count is also the span's size in the written span file.
FUNCTIONS = (
    ("cli", "run", "cli.run", {}),
    ("dsl", "parse", "dsl.parse", {"bytes_in": lambda a, r: len(a[0].encode())}),
    ("dsl", "emit_machine", "dsl.emit", {"bytes_out": _nbytes}),
    ("dsl", "emit_report", "dsl.emit", {"bytes_out": _nbytes}),
    ("dsl", "format_linear", "dsl.emit", {"bytes_out": _nbytes}),
    ("differential", "validate_sullivan", "differential.validate_sullivan", {}),
    ("minimal_model", "compute_minimal_model", "minimal_model.compute_minimal_model",
     {"generators": lambda a, r: len(a[0].sig), "pairs": lambda a, r: len(r.pairs)}),
    ("morphisms", "check_contraction", "morphisms.check_contraction",
     {"failed_identities": lambda a, r: sum(not c.ok for c in r.checks)}),
    ("homology_oracle", "cohomology_dims", "homology_oracle.cohomology_dims", {}),
    ("homology_oracle", "module_homology_dims", "homology_oracle.module_homology_dims", {}),
    ("homology_oracle", "rank_of_columns", "homology_oracle.rank_of_columns", {}),
    ("homology_oracle", "column_reduce", "homology_oracle.column_reduce",
     {"columns": lambda a, r: len(a[0]),
      "nonzeros": lambda a, r: sum(len(c) for c in a[0]),
      "kernel_vectors": lambda a, r: len(r[1])}),
    ("graded_algebra", "basis_monomials", "graded_algebra.basis_monomials",
     {"monomials": lambda a, r: len(r)}),
    ("graded_algebra", "elem_mul", "graded_algebra.elem_mul", {"terms_out": lambda a, r: len(r)}),
    ("at_model", "compute_at_model", "at_model.compute_at_model", {}),
    ("at_model", "validate_module", "at_model.validate_module", {}),
)
METHODS = (
    ("differential", "DiffEvaluator", "differential.DiffEvaluator"),
    ("morphisms", "MapEvaluator", "morphisms.MapEvaluator"),
    ("morphisms", "HomotopyEvaluator", "morphisms.HomotopyEvaluator"),
)
COUNTED = (("graded_algebra", "mono_mul", "graded_algebra.mono_mul"),)
TIMED_LEAVES = (("graded_algebra", "elem_add", "graded_algebra.elem_add"),)


class Tracer:
    def __init__(self):
        self.job = -1
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        # one entry per finished span, in the order spans close; a span's id
        # is its opening order, which its children name as their parent
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_self = array("d")
        self.span_size = array("q")
        # open spans: [span id, name id, start, covered time]
        self._stack: List[list] = []
        self._next_id = 0
        # (name, parent name) -> {"calls", "self_s", and each work count}
        self.by_edge: Dict[Tuple[str, str], Dict[str, float]] = defaultdict(lambda: defaultdict(int))
        self.leaf_calls: Dict[str, int] = defaultdict(int)
        self.leaf_seconds: Dict[str, float] = defaultdict(float)
        self.cache_hits: Dict[str, int] = defaultdict(int)
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> list:
        frame = [self._next_id, name_id, 0.0, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        frame[2] = perf_counter()
        return frame

    def _close(self, frame: list, counts: Dict[str, int]) -> None:
        end = perf_counter()
        self._stack.pop()
        duration = end - frame[2]
        self_time = duration - frame[3]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.span_id.append(frame[0])
        self.span_name.append(frame[1])
        self.span_parent.append(parent[0] if parent is not None else -1)
        self.span_job.append(self.job)
        self.span_start.append(frame[2])
        self.span_end.append(end)
        self.span_self.append(self_time)
        self.span_size.append(next(iter(counts.values()), 0))
        edge = self.by_edge[(self.names[frame[1]],
                             self.names[parent[1]] if parent is not None else "")]
        edge["calls"] += 1
        edge["self_s"] += self_time
        for key, value in counts.items():
            edge[key] += value

    def _span(self, name: str, fn: Callable, measures: Dict[str, Callable]) -> Callable:
        name_id = self._name_id(name)

        def wrapper(*args, **kwargs):
            frame = self._open(name_id)
            counts = {}
            try:
                result = fn(*args, **kwargs)
                counts = {key: measure(args, result) for key, measure in measures.items()}
                return result
            finally:
                self._close(frame, counts)
        wrapper.__wrapped__ = fn
        return wrapper

    def _cached_span(self, layer: str, name: str, fn: Callable) -> Callable:
        """``on_monomial``: a span that also records whether the monomial was
        already in the evaluator's cache when the call began."""
        name_id = self._name_id(name)
        hits = self.cache_hits

        def wrapper(evaluator, m):
            if m in getattr(evaluator, "_cache", ()):
                hits[layer] += 1
            frame = self._open(name_id)
            try:
                return fn(evaluator, m)
            finally:
                self._close(frame, {})
        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        calls = self.leaf_calls

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        wrapper.__wrapped__ = fn
        return wrapper

    def _timed_leaf(self, name: str, fn: Callable) -> Callable:
        calls = self.leaf_calls
        seconds = self.leaf_seconds
        stack = self._stack

        def wrapper(*args):
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                duration = perf_counter() - start
                calls[name] += 1
                seconds[name] += duration
                if stack:
                    stack[-1][3] += duration
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "sulmin" or n.startswith("sulmin."))]

        def rebind(original, replacement) -> None:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, attr, value))
                        setattr(module, attr, replacement)

        def lookup(module: str, attr: str):
            return getattr(sys.modules.get(f"sulmin.{module}"), attr, None)

        for module, attr, name, measures in FUNCTIONS:
            fn = lookup(module, attr)
            if fn is not None:
                rebind(fn, self._span(name, fn, measures))
        for module, attr, name in COUNTED:
            fn = lookup(module, attr)
            if fn is not None:
                rebind(fn, self._counted(name, fn))
        for module, attr, name in TIMED_LEAVES:
            fn = lookup(module, attr)
            if fn is not None:
                rebind(fn, self._timed_leaf(name, fn))
        for module, cls_name, name in METHODS:
            cls = lookup(module, cls_name)
            if cls is None:
                continue
            for method in ("on_monomial", "on_element"):
                fn = vars(cls).get(method)
                if fn is None:
                    continue
                self._undo.append((cls, method, fn))
                wrapped = self._cached_span(name, f"{name}.{method}", fn) \
                    if method == "on_monomial" else self._span(f"{name}.{method}", fn, {})
                setattr(cls, method, wrapped)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def spans(self, job: Optional[int] = None):
        """(id, name, parent id, job, start, end, self seconds, size) per span."""
        for k in range(len(self.span_name)):
            if job is None or self.span_job[k] == job:
                yield (self.span_id[k], self.names[self.span_name[k]], self.span_parent[k],
                       self.span_job[k], self.span_start[k], self.span_end[k], self.span_self[k],
                       self.span_size[k])

    def write_spans(self, path: str) -> None:
        """Tab-separated, gzip-compressed: a traced pass has up to a million spans."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tname\tparent\tjob\tstart\tend\tself_s\tsize\n")
            for row in self.spans():
                fh.write("\t".join(str(v) for v in row) + "\n")


# (name, unit, better) of every per-layer metric, in report order
LAYER_METRICS = (
    ("homology_oracle.column_reduce.calls", "count/job", "lower"),
    ("homology_oracle.column_reduce.self_s", "s/job", "lower"),
    ("homology_oracle.column_reduce.columns", "count/job", "lower"),
    ("homology_oracle.column_reduce.nonzeros", "count/job", "lower"),
    ("homology_oracle.column_reduce.discarded_kernel_vectors", "count/job", "lower"),
    ("homology_oracle.cohomology_dims.self_s", "s/job", "lower"),
    ("homology_oracle.module_homology_dims.self_s", "s/job", "lower"),
    ("minimal_model.chain_corrections", "count/job", "lower"),
    ("minimal_model.compute_minimal_model.self_s", "s/job", "lower"),
    ("minimal_model.compute_minimal_model.generators", "count/job", "lower"),
    ("minimal_model.compute_minimal_model.pairs", "count/job", "lower"),
    ("morphisms.check_contraction.self_s", "s/job", "lower"),
    ("morphisms.check_contraction.monomials", "count/job", "lower"),
    ("morphisms.check_contraction.failed_identities", "count/job", "lower"),
    ("morphisms.MapEvaluator.calls", "count/job", "lower"),
    ("morphisms.MapEvaluator.self_s", "s/job", "lower"),
    ("morphisms.MapEvaluator.hit_ratio", "ratio", "higher"),
    ("morphisms.HomotopyEvaluator.calls", "count/job", "lower"),
    ("morphisms.HomotopyEvaluator.self_s", "s/job", "lower"),
    ("morphisms.HomotopyEvaluator.hit_ratio", "ratio", "higher"),
    ("differential.DiffEvaluator.calls", "count/job", "lower"),
    ("differential.DiffEvaluator.self_s", "s/job", "lower"),
    ("differential.DiffEvaluator.hit_ratio", "ratio", "higher"),
    ("differential.validate_sullivan.self_s", "s/job", "lower"),
    ("graded_algebra.mono_mul.calls", "count/job", "lower"),
    ("graded_algebra.elem_mul.calls", "count/job", "lower"),
    ("graded_algebra.elem_mul.self_s", "s/job", "lower"),
    ("graded_algebra.elem_mul.terms_out", "count/job", "lower"),
    ("graded_algebra.elem_add.calls", "count/job", "lower"),
    ("graded_algebra.elem_add.self_s", "s/job", "lower"),
    ("graded_algebra.basis_monomials.self_s", "s/job", "lower"),
    ("graded_algebra.basis_monomials.monomials", "count/job", "lower"),
    ("dsl.parse.self_s", "s/job", "lower"),
    ("dsl.parse.bytes_in", "B/job", "lower"),
    ("dsl.emit.self_s", "s/job", "lower"),
    ("dsl.emit.bytes_out", "B/job", "lower"),
    ("at_model.compute_at_model.self_s", "s/job", "lower"),
    ("at_model.validate_module.self_s", "s/job", "lower"),
    ("cli.run.self_s", "s/job", "lower"),
)


def layer_metrics(jobs: Tracer, job_count: int, checks: Tracer, check_count: int) -> Dict[str, float]:
    """Per-job values of every ``LAYER_METRICS`` entry: ``jobs`` traced
    ``job_count`` jobs, ``checks`` the correctness checks of ``check_count``."""

    def total(tracer: Tracer, name: str, key: str) -> float:
        return sum(v[key] for (n, _), v in tracer.by_edge.items() if n == name)

    def under(name: str, parent: str, key: str) -> float:
        return jobs.by_edge[(name, parent)][key] if (name, parent) in jobs.by_edge else 0

    out: Dict[str, float] = {}
    for metric, _, _ in LAYER_METRICS:
        layer, _, key = metric.rpartition(".")
        if metric == "minimal_model.chain_corrections":
            value = under("homology_oracle.column_reduce", "minimal_model.compute_minimal_model",
                          "calls")
        elif metric == "homology_oracle.column_reduce.discarded_kernel_vectors":
            value = under(layer, "homology_oracle.rank_of_columns", "kernel_vectors")
        elif metric == "morphisms.check_contraction.monomials":
            value = under("graded_algebra.basis_monomials", layer, "monomials")
        elif metric == "homology_oracle.module_homology_dims.self_s":
            out[metric] = total(jobs, layer, key) / job_count + total(checks, layer, key) / check_count
            continue
        elif layer.endswith("Evaluator"):
            calls = total(jobs, layer + ".on_monomial", "calls")
            if key == "calls":
                value = calls
            elif key == "self_s":
                value = total(jobs, layer + ".on_monomial", key) + total(jobs, layer + ".on_element", key)
            else:
                out[metric] = jobs.cache_hits[layer] / calls if calls else 0.0
                continue
        elif layer in ("graded_algebra.mono_mul", "graded_algebra.elem_add"):
            value = jobs.leaf_calls[layer] if key == "calls" else jobs.leaf_seconds[layer]
        else:
            value = total(jobs, layer, key)
        out[metric] = value / job_count
    return out
