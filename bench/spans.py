"""Spans around calls into coxvar's public functions, for the traced run.

``Tracer.installed`` replaces selected public functions, methods and
cached properties of the coxvar modules with wrappers that record a span,
and restores the originals on exit; the library itself knows nothing of
it.  Spans nest: a span's self time is its duration minus the durations
of the spans it encloses, so the self times of all spans, the root span
around ``cli.main`` included, add up to the traced total.  Counts are
computed at the same boundaries from arguments and results.
"""

from __future__ import annotations

import functools
import io
import time
from collections import defaultdict
from contextlib import contextmanager, redirect_stdout

import numpy as np

import coxvar
from coxvar import arrangement, cli, coxeter_core, exact_algebra, varchenko
from coxvar.arrangement import Arrangement
from coxvar.coxeter_core import EnumeratedGroup
from coxvar.exact_algebra import Factorization

LAYERS = ("coxeter_core", "arrangement", "varchenko", "exact_algebra")
# the root span: time inside cli.main that no library span covers
OUTSIDE = "trace.outside"
_MODULES = (coxvar, arrangement, cli, coxeter_core, exact_algebra, varchenko)


def _count_build(tracer, args, g):
    # product groups build their factors through nested calls
    if not tracer.inside("coxeter_core.build_group"):
        tracer.counts["coxeter_core.elements"] += g.order
        tracer.groups.append(g)


def _count_reflections(tracer, args, refl_ids):
    tracer.counts["coxeter_core.reflections"] += len(refl_ids)


def _count_classes(tracer, args, reps):
    if tracer.first_call(args[0], "classes"):
        tracer.counts["arrangement.classes"] += len(reps)


def _count_edges(tracer, args, edges):
    if tracer.first_call(args[0], "edges"):
        tracer.counts["arrangement.edges"] += len(edges)


def _count_oracle(tracer, args, _):
    # one full scan of W per reflection on the edge
    ar, edge = args[0], args[1]
    tracer.counts["arrangement.oracle_scans"] += (len(edge.reflections)
                                                  * ar.group.order)


def _count_records(tracer, args, report):
    tracer.counts["varchenko.verify_records"] += len(report["records"])


def _count_matrix(tracer, args, matrix):
    key = "varchenko.matrix_order_max"
    tracer.counts[key] = max(tracer.counts[key], len(matrix))


def _count_det(tracer, args, _):
    n = len(args[0])
    tracer.counts["exact_algebra.dets"] += 1
    tracer.counts["exact_algebra.det_ops"] += 2 * n**3 / 3


# In pipeline order.  A module function is replaced in every coxvar module
# that imported it; a method or cached property is replaced on its class.
_TRACED = (
    (coxeter_core, "parse_group_spec", "coxeter_core.parse_group_spec", None),
    (coxeter_core, "build_group", "coxeter_core.build_group", _count_build),
    (EnumeratedGroup, "refl_ids", "coxeter_core.reflections",
     _count_reflections),
    (EnumeratedGroup, "conj_by_gen", "coxeter_core.reflections", None),
    (EnumeratedGroup, "conj_tables", "coxeter_core.conj_tables", None),
    (EnumeratedGroup, "inversion_table", "coxeter_core.inversion_table", None),
    (EnumeratedGroup, "reflection_class_of",
     "coxeter_core.reflection_classes", None),
    (Arrangement, "class_representatives",
     "arrangement.class_representatives", _count_classes),
    (Arrangement, "relevant_edges", "arrangement.relevant_edges", _count_edges),
    (Arrangement, "multiplicity_formula",
     "arrangement.multiplicity_formula", None),
    (Arrangement, "multiplicity_oracle", "arrangement.multiplicity_oracle",
     _count_oracle),
    (varchenko, "edge_factors", "varchenko.edge_factors", None),
    (varchenko, "closed_form_factorization",
     "varchenko.closed_form_factorization", None),
    (varchenko, "verify_mod_p", "varchenko.verify_mod_p", _count_records),
    (varchenko, "modular_matrix", "varchenko.modular_matrix", _count_matrix),
    (varchenko, "concordance_checks", "varchenko.concordance_checks", None),
    (exact_algebra, "det_mod_p", "exact_algebra.det_mod_p", _count_det),
    (Factorization, "eval_mod", "exact_algebra.eval_mod", None),
)

SPAN_NAMES = tuple(dict.fromkeys(
    [name for _, _, name, _ in _TRACED] + [OUTSIDE]))
COUNT_NAMES = (
    "coxeter_core.elements", "coxeter_core.reflections",
    "coxeter_core.table_bytes", "arrangement.classes", "arrangement.edges",
    "arrangement.oracle_scans", "varchenko.verify_records",
    "varchenko.matrix_order_max", "exact_algebra.dets",
    "exact_algebra.det_ops", "trace.spans",
)
UNITS = {
    **{f"{name}_s": "s" for name in SPAN_NAMES},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "cli.main_s": "s",
    "trace.total_s": "s",
    "trace.overhead_s": "s",
    **{name: "count" for name in COUNT_NAMES},
    "coxeter_core.table_bytes": "B",
    "exact_algebra.det_ops_per_s": "1/s",
}


def table_bytes(g: EnumeratedGroup) -> int:
    """Bytes held by the group's arrays, cached tables included."""
    total = 0
    for value in vars(g).values():
        arrays = value if isinstance(value, tuple) else (value,)
        total += sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
    return total


class Tracer:
    """Span recorder; per-span self times and counts accumulate in place."""

    def __init__(self):
        self._open = []  # [name, seconds covered by child spans]
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.groups = []  # groups built by the command being traced
        self._counted = {}  # id -> object, kept alive so ids stay unique

    def end_command(self):
        """Measure the command's tables, then release what it built."""
        self.counts["coxeter_core.table_bytes"] += sum(
            table_bytes(g) for g in self.groups)
        self.groups.clear()
        self._counted.clear()

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._open)

    def first_call(self, obj, what: str) -> bool:
        key = (id(obj), what)
        if key in self._counted:
            return False
        self._counted[key] = obj
        return True

    @contextmanager
    def span(self, name: str):
        frame = [name, 0.0]
        self._open.append(frame)
        self.counts["trace.spans"] += 1
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._open.pop()
            self.self_s[name] += elapsed - frame[1]
            if self._open:
                self._open[-1][1] += elapsed

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self, args, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Route the listed coxvar calls through spans while active."""
        undo = []
        try:
            for owner, attr, name, count in _TRACED:
                if isinstance(owner, type):
                    raw = owner.__dict__[attr]
                    if isinstance(raw, functools.cached_property):
                        traced = functools.cached_property(
                            self._wrap(raw.func, name, count))
                        traced.__set_name__(owner, attr)
                    else:
                        traced = self._wrap(raw, name, count)
                    undo.append((owner, attr, raw))
                    setattr(owner, attr, traced)
                else:
                    original = getattr(owner, attr)
                    traced = self._wrap(original, name, count)
                    for mod in _MODULES:
                        if getattr(mod, attr, None) is original:
                            undo.append((mod, attr, original))
                            setattr(mod, attr, traced)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)


def run_cli(argv: list[str], tracer: Tracer | None = None):
    """``cli.main(argv)`` on a cold group cache: (exit code, stdout, seconds).

    With a tracer, the call runs inside the root span and the groups it
    built are measured and released afterwards.
    """
    coxeter_core.group.cache_clear()
    out = io.StringIO()
    with redirect_stdout(out):
        if tracer is None:
            start = time.perf_counter()
            code = cli.main(argv)
            elapsed = time.perf_counter() - start
        else:
            with tracer.installed():
                start = time.perf_counter()
                with tracer.span(OUTSIDE):
                    code = cli.main(argv)
                elapsed = time.perf_counter() - start
            tracer.end_command()
    coxeter_core.group.cache_clear()
    return code, out.getvalue(), elapsed


def layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics of one traced pass, keyed by metric name."""
    m = {f"{name}_s": tracer.self_s[name] for name in SPAN_NAMES}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(s for name, s in tracer.self_s.items()
                                   if name.startswith(layer + "."))
    m.update((name, tracer.counts[name]) for name in COUNT_NAMES)
    det_s = tracer.self_s["exact_algebra.det_mod_p"]
    m["exact_algebra.det_ops_per_s"] = (
        tracer.counts["exact_algebra.det_ops"] / det_s if det_s else 0.0)
    m["cli.main_s"] = untraced_s
    m["trace.total_s"] = traced_s
    m["trace.overhead_s"] = traced_s - untraced_s
    return m
