"""Module-boundary tracing for the benchmark's traced run.

The program is not edited.  ``Tracer.install`` replaces the names through
which one toriccsm module calls another (``toriccsm.chow.rational_rref``,
``toriccsm.csm.normal_form``, ...) with wrappers that record a span per
call: its op, its parent span, its thread and its start and end.  A few
calls inside one module are wrapped too, where a named metric needs them
(Stanley-Reisner non-faces, the calibration ``normal_form`` and the
``multiplicity`` calls made by ``is_smooth``).

Parent stacks are thread-local.  A span opened on a thread whose stack is
empty (a ``ThreadPoolExecutor`` worker running ``multiplicity``) takes as
parent the innermost open span of the op's main thread, so worker time is
charged to the op that started it.

Self time: at each instant of an op, the innermost open spans share the
elapsed time equally.  With one thread this is a span's duration minus
the part its children cover; with pool workers running concurrently their
overlapping time is split between them, so the self times of an op's
spans always sum to its wall time.

Spans are kept in memory and written out with ``write_spans`` when the
run ends.
"""

from __future__ import annotations

import gzip
import itertools
import threading
import time
from array import array
from collections import defaultdict
from pathlib import Path

__all__ = ["Tracer", "OpTrace", "LayerTotals", "self_times", "ROOT", "SELF_SUM_TOLERANCE_S"]

ROOT = "cli.main"
# How far the self times of an op's spans may sum from its wall time:
# they partition it exactly, up to float rounding.
SELF_SUM_TOLERANCE_S = 1e-6


def _rref_info(args, kwargs, result):
    m = args[0]
    return (m.rows, m.cols, len(result[1]))


def _terms_info(args, kwargs, result):
    return len(args[0])


def _cone_info(args, kwargs, result):
    return args[1].ray_indices


def _walls_info(args, kwargs, result):
    # Every wall of a complete simplicial fan lies in exactly two maximal cones.
    return result.ambient_dim * len(result.max_cones) // 2


def _keep_result(args, kwargs, result):
    return result


# (calling module, attribute, span name, info): the span name is the
# callee's module and function, so its first component is the layer.
BOUNDARIES = (
    ("cli", "parse_fan_file", "formats.parse_fan_file", None),
    ("cli", "render_class", "formats.render_class", _terms_info),
    ("cli", "build_presentation", "chow.build_presentation", _keep_result),
    ("cli", "graded_dimensions", "chow.graded_dimensions", None),
    ("cli", "csm_result", "csm.csm_result", None),
    ("cli", "euler_characteristic", "csm.euler_characteristic", None),
    ("cli", "is_smooth", "fan.is_smooth", None),
    ("cli", "multiplicity", "fan.multiplicity", _cone_info),
    ("formats", "build_fan", "fan.build_fan", _walls_info),
    ("chow", "stanley_reisner_nonfaces", "chow.stanley_reisner_nonfaces", None),
    ("chow", "rational_rref", "exact_linalg.rational_rref", _rref_info),
    ("chow", "normal_form", "chow.normal_form", _terms_info),
    ("chow", "multiplicity", "fan.multiplicity", _cone_info),
    ("csm", "normal_form", "chow.normal_form", _terms_info),
    ("csm", "degree", "chow.degree", None),
    ("csm", "enumerate_cones", "fan.enumerate_cones", None),
    ("csm", "is_smooth", "fan.is_smooth", None),
    ("csm", "multiplicity", "fan.multiplicity", _cone_info),
    ("fan", "multiplicity", "fan.multiplicity", _cone_info),
    ("fan", "determinant", "exact_linalg.determinant", None),
    ("fan", "hermite_normal_form", "exact_linalg.hermite_normal_form", None),
    ("fan", "strip_zero_rows", "exact_linalg.strip_zero_rows", None),
    ("fan", "column_lattice_index", "exact_linalg.column_lattice_index", None),
)


def self_times(spans) -> dict[int, float]:
    """Self time of each span of one op, keyed by span id.

    ``spans`` holds ``(id, parent, name, thread, t0, t1, info)`` records;
    ids grow in start order, so a parent's id is below its children's.
    """
    parent = {s[0]: s[1] for s in spans}
    events = []
    for s in spans:
        events.append((s[4], 1, s[0]))
        events.append((s[5], 0, -s[0]))
    # At equal times ends come first (innermost first), then starts (outermost first).
    events.sort()
    open_children: dict[int, int] = {}
    leaves: set[int] = set()
    out = dict.fromkeys(parent, 0.0)
    prev = events[0][0] if events else 0.0
    for t, is_start, key in events:
        if leaves and t > prev:
            share = (t - prev) / len(leaves)
            for sid in leaves:
                out[sid] += share
        prev = t
        if is_start:
            sid = key
            p = parent[sid]
            if p in open_children:
                open_children[p] += 1
                leaves.discard(p)
            open_children[sid] = 0
            leaves.add(sid)
        else:
            sid = -key
            open_children.pop(sid, None)
            leaves.discard(sid)
            p = parent[sid]
            if p in open_children:
                open_children[p] -= 1
                if open_children[p] == 0:
                    leaves.add(p)
    return out


class OpTrace:
    """Per-name totals of one traced op."""

    __slots__ = ("wall", "calls", "span_wall", "self", "info")

    def __init__(self, spans):
        root = next(s for s in spans if s[2] == ROOT)
        self.wall = root[5] - root[4]
        self.calls: dict[str, int] = defaultdict(int)
        self.span_wall: dict[str, float] = defaultdict(float)
        self.self: dict[str, float] = defaultdict(float)
        self.info: dict[str, list] = defaultdict(list)
        own = self_times(spans)
        for sid, _parent, name, _thread, t0, t1, info in spans:
            self.calls[name] += 1
            self.span_wall[name] += t1 - t0
            self.self[name] += own[sid]
            if info is not None:
                self.info[name].append(info)


class LayerTotals:
    """Per-layer sums over the traced ops of a run."""

    def __init__(self):
        self.ops = 0
        self.calls: dict[str, int] = {}
        self.span_wall: dict[str, float] = {}
        self.self: dict[str, float] = {}
        self.rref_rows = self.rref_cells = self.rref_pivots = 0
        self.normal_form_terms = self.class_terms = self.walls = 0
        self.mult_distinct = 0
        self.coeff_bits_max = 0
        self.max_sum_error = 0.0

    def add(self, op) -> None:
        self.ops += 1
        for name, n in op.calls.items():
            self.calls[name] = self.calls.get(name, 0) + n
            self.span_wall[name] = self.span_wall.get(name, 0.0) + op.span_wall[name]
            self.self[name] = self.self.get(name, 0.0) + op.self[name]
        self.max_sum_error = max(self.max_sum_error, abs(sum(op.self.values()) - op.wall))
        for rows, cols, piv in op.info.get("exact_linalg.rational_rref", ()):
            self.rref_rows += rows
            self.rref_cells += rows * cols
            self.rref_pivots += piv
        self.normal_form_terms += sum(op.info.get("chow.normal_form", ()))
        self.class_terms += sum(op.info.get("formats.render_class", ()))
        self.walls += sum(op.info.get("fan.build_fan", ()))
        self.mult_distinct += len(set(op.info.get("fan.multiplicity", ())))
        for pres in op.info.get("chow.build_presentation", ()):
            for form in pres.substitution.values():
                for q in form.values():
                    bits = max(q.numerator.bit_length(), q.denominator.bit_length())
                    self.coeff_bits_max = max(self.coeff_bits_max, bits)

    def ms(self, *names) -> float:
        return 1e3 * sum(self.self.get(n, 0.0) for n in names) / self.ops

    def layer_ms(self, layer: str) -> float:
        return 1e3 * sum(v for n, v in self.self.items() if n.split(".", 1)[0] == layer) / self.ops

    def per_op(self, count) -> float:
        return count / self.ops

    def metrics(self, overhead: float) -> dict:
        calls = self.calls.get
        mult_calls = calls("fan.multiplicity", 0)
        return {
            "cli.self_ms_per_op": (self.ms("cli.main"), "ms"),
            "formats.self_ms_per_op": (self.layer_ms("formats"), "ms"),
            "formats.parse_ms_per_op": (self.ms("formats.parse_fan_file"), "ms"),
            "formats.render_ms_per_op": (self.ms("formats.render_class"), "ms"),
            "formats.class_terms_per_op": (self.per_op(self.class_terms), "count"),
            "fan.self_ms_per_op": (self.layer_ms("fan"), "ms"),
            "fan.validate_ms_per_op": (self.ms("fan.build_fan"), "ms"),
            "fan.walls_per_op": (self.per_op(self.walls), "count"),
            "fan.faces_ms_per_op": (self.ms("fan.enumerate_cones"), "ms"),
            "fan.multiplicity_ms_per_op": (self.ms("fan.multiplicity"), "ms"),
            "fan.multiplicity_calls_per_op": (self.per_op(mult_calls), "count"),
            "fan.multiplicity_distinct_frac": (self.mult_distinct / max(mult_calls, 1), "ratio"),
            "fan.multiplicity_us_per_call": (
                1e6 * self.span_wall.get("fan.multiplicity", 0.0) / max(mult_calls, 1), "us"),
            "chow.self_ms_per_op": (self.layer_ms("chow"), "ms"),
            "chow.presentation_self_ms_per_op": (self.ms("chow.build_presentation"), "ms"),
            "chow.nonfaces_ms_per_op": (self.ms("chow.stanley_reisner_nonfaces"), "ms"),
            "chow.normal_form_ms_per_op": (self.ms("chow.normal_form"), "ms"),
            "chow.normal_form_calls_per_op": (self.per_op(calls("chow.normal_form", 0)), "count"),
            "chow.normal_form_terms_in_per_op": (self.per_op(self.normal_form_terms), "count"),
            "chow.coeff_bits_max": (self.coeff_bits_max, "bit"),
            "csm.self_ms_per_op": (self.layer_ms("csm"), "ms"),
            "exact_linalg.self_ms_per_op": (self.layer_ms("exact_linalg"), "ms"),
            "exact_linalg.rref_ms_per_op": (self.ms("exact_linalg.rational_rref"), "ms"),
            "exact_linalg.rref_cells_per_op": (self.per_op(self.rref_cells), "count"),
            "exact_linalg.rref_rank_frac": (self.rref_pivots / max(self.rref_rows, 1), "ratio"),
            "exact_linalg.hnf_ms_per_op": (
                self.ms("exact_linalg.hermite_normal_form", "exact_linalg.strip_zero_rows"), "ms"),
            # HNF plus the column lattice index: the kernels behind multiplicity.
            # The lattice index alone is not a metric, since it reads exactly 0
            # on smooth workloads; its time is in the span file.
            "exact_linalg.cone_index_ms_per_op": (
                self.ms("exact_linalg.hermite_normal_form", "exact_linalg.strip_zero_rows",
                        "exact_linalg.column_lattice_index"), "ms"),
            "exact_linalg.hnf_calls_per_op": (
                self.per_op(calls("exact_linalg.hermite_normal_form", 0)), "count"),
            "exact_linalg.lattice_index_calls_per_op": (
                self.per_op(calls("exact_linalg.column_lattice_index", 0)), "count"),
            "exact_linalg.determinant_ms_per_op": (self.ms("exact_linalg.determinant"), "ms"),
            "exact_linalg.determinant_calls_per_op": (
                self.per_op(calls("exact_linalg.determinant", 0)), "count"),
            "trace_overhead_frac": (overhead, "ratio"),
        }

    def table(self) -> list[str]:
        lines = [f"{'span':38} {'calls/op':>10} {'wall ms/op':>11} {'self ms/op':>11} {'self %':>7}"]
        total = sum(self.self.values())
        for name in sorted(self.self, key=self.self.get, reverse=True):
            lines.append(
                f"{name:38} {self.calls[name] / self.ops:10.1f} "
                f"{1e3 * self.span_wall[name] / self.ops:11.3f} {self.ms(name):11.3f} "
                f"{100 * self.self[name] / total:6.1f}%"
            )
        return lines


class Tracer:
    """Installs boundary wrappers and records spans per op.

    Use ``install()`` / ``uninstall()`` around traced ops and ``run_op`` for
    each op; ``run_op`` returns the op's result and its ``OpTrace``.
    """

    def __init__(self, tc):
        self._modules = {name: getattr(tc, name) for name in ("cli", "formats", "chow", "csm", "fan")}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._spans: list = []
        self._root_stack: list | None = None
        self._patched: list = []
        self._names: dict[str, int] = {}
        # Compact per-span columns for write_spans: op, span, parent, name, thread, start, end.
        self._cols = (array("q"), array("q"), array("q"), array("H"), array("H"), array("d"), array("d"))
        self._op = 0

    def install(self) -> None:
        if self._patched:
            return
        for mod_name, attr, span_name, info in BOUNDARIES:
            mod = self._modules[mod_name]
            orig = getattr(mod, attr)
            self._patched.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, span_name, info))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def _wrap(self, fn, name, info_fn):
        local = self._local
        ids = self._ids
        spans = self._spans
        clock = time.perf_counter
        ident = threading.get_ident
        tracer = self

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack:
                parent = stack[-1]
            else:
                root = tracer._root_stack
                if not root:
                    return fn(*args, **kwargs)
                parent = root[-1]
            sid = next(ids)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            spans.append((sid, parent, name, ident(), t0, t1, info_fn(args, kwargs, result) if info_fn else None))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def run_op(self, call):
        """Run ``call()`` as one op under a root span; return (result, OpTrace)."""
        stack = self._local.stack = []
        sid = next(self._ids)
        stack.append(sid)
        self._root_stack = stack
        t0 = time.perf_counter()
        try:
            result = call()
        finally:
            t1 = time.perf_counter()
            self._root_stack = None
            stack.pop()
        spans = self._spans
        spans.append((sid, None, ROOT, threading.get_ident(), t0, t1, None))
        op = OpTrace(spans)
        self._keep(spans, t0)
        spans.clear()
        return result, op

    def _keep(self, spans, t0) -> None:
        op, span, parent, name, thread, start, end = self._cols
        self._op += 1
        threads: dict[int, int] = {}
        for sid, par, nm, th, s0, s1, _info in spans:
            op.append(self._op)
            span.append(sid)
            parent.append(par or 0)
            name.append(self._names.setdefault(nm, len(self._names)))
            thread.append(threads.setdefault(th, len(threads)))
            start.append(s0 - t0)
            end.append(s1 - t0)

    def write_spans(self, path: Path) -> int:
        """Write every recorded span as gzipped CSV; returns the span count.

        Columns: op, span, parent (0 for an op's root), name, thread (0 is
        the op's first thread), start_us and end_us from the op's start.
        """
        names = {i: n for n, i in self._names.items()}
        op, span, parent, name, thread, start, end = self._cols
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write("op,span,parent,name,thread,start_us,end_us\n")
            for row in zip(op, span, parent, name, thread, start, end):
                fh.write(
                    f"{row[0]},{row[1]},{row[2]},{names[row[3]]},{row[4]},"
                    f"{row[5] * 1e6:.1f},{row[6] * 1e6:.1f}\n"
                )
        return len(op)
