"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of the stargraphs modules from the
outside: each wrapper is installed on the module or class attribute through
which the engine looks the function up, so no file under ``src/`` changes.
Every call becomes one span (name, start, end, parent), kept in flat arrays
and written out as JSON lines when the run ends.  Calls and self time are
aggregated per span name as spans close; self time is the span's duration
minus the time covered by its direct child spans, so the self times of a
span tree add up to the duration of its root.

Counters are taken at the same boundaries, from the arguments and results
of the wrapped call, so ratios are measured where the work happens.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from array import array

# (stargraphs module, attribute, span name).  Each entry is a place
# where the engine looks the function up at call time.
_MODULE_TARGETS = (
    ("solver", "enumerate_graphs", "graphs.enumerate_graphs"),
    ("graphs", "canonical_form", "graphs.canonical_form"),
    ("solver", "graph_delta", "homology.graph_delta"),
    ("homology", "graph_delta", "homology.graph_delta"),
    ("homology", "graph_compose", "homology.graph_compose"),
    ("solver", "graph_gerstenhaber", "homology.graph_gerstenhaber"),
    ("homology", "graph_gerstenhaber", "homology.graph_gerstenhaber"),
    ("solver", "leibniz_generators", "homology.leibniz_generators"),
    ("solver", "echelon", "linalg.echelon"),
    ("linalg", "echelon", "linalg.echelon"),
    ("operators", "compile_graph", "operators.compile_graph"),
    ("solver", "compile_sum", "operators.compile_sum"),
    ("operators", "compile_sum", "operators.compile_sum"),
    ("solver", "preset_poisson", "poisson.preset_poisson"),
    ("poisson", "preset_poisson", "poisson.preset_poisson"),
    ("solver", "solve_up_to", "solver.solve_up_to"),
    ("solver", "verify_order", "solver.verify_order"),
    ("solver", "mc_defect", "solver.mc_defect"),
    ("solver", "cocycle_kernel", "solver.cocycle_kernel"),
    ("solver", "eval_obstruction", "solver.eval_obstruction"),
)

# (module, class, attribute, span name) for methods patched on the class.
_CLASS_TARGETS = (
    ("linalg", "StreamingReducer", "add_row", "linalg.add_row"),
    ("linalg", "StreamingReducer", "reverify", "linalg.reverify"),
    ("poisson", "PoissonStructure", "entry_derivative", "poisson.entry_derivative"),
    ("operators", "PolyDiffOperator", "apply", "operators.apply"),
    ("poly", "Poly", "__mul__", "poly.mul"),
    ("poly", "Poly", "__rmul__", "poly.mul"),
    ("poly", "Poly", "derive_multi", "poly.derive_multi"),
)

TIMED_LAYERS = tuple(dict.fromkeys(target[-1] for target in _MODULE_TARGETS + _CLASS_TARGETS))

# Every per-layer metric the traced run reports, with its unit.  Each timed
# layer has calls and self time; the counts follow.
PER_LAYER_METRICS = tuple(
    [(layer + ".calls", "count") for layer in TIMED_LAYERS]
    + [(layer + ".self_s", "s") for layer in TIMED_LAYERS]
    + [
        ("graphs.enumerate_graphs.labeled", "count"),
        ("graphs.enumerate_graphs.classes", "count"),
        ("graphs.canonical_form.distinct", "count"),
        ("homology.graph_delta.terms_out", "count"),
        ("homology.graph_compose.terms_out", "count"),
        ("homology.graph_gerstenhaber.terms_out", "count"),
        ("homology.leibniz_generators.generators", "count"),
        ("linalg.echelon.rows", "count"),
        ("linalg.echelon.nnz_in", "count"),
        ("linalg.echelon.nnz_out", "count"),
        ("linalg.echelon.rank", "count"),
        ("linalg.add_row.pivot", "count"),
        ("linalg.add_row.redundant", "count"),
        ("linalg.add_row.inconsistent", "count"),
        ("linalg.add_row.useful_ratio", "ratio"),
        ("operators.compile_graph.terms_out", "count"),
        ("operators.compile_sum.hit_ratio", "ratio"),
        ("operators.apply.terms", "count"),
        ("poly.mul.term_pairs", "count"),
        ("solver.eval.rows", "count"),
        ("solver.eval.rank", "count"),
        ("trace.overhead_s", "s"),
    ])


class Tracer:
    """In-memory span recorder with per-name aggregation."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")  # -1 for a root span
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self._stack: list[list] = []  # [span id, time covered by children]
        self._patches: list[tuple] = []
        self.canonical_keys: set = set()

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self.names.append(name)
            self._name_ids[name] = nid
        return nid

    def open(self, name: str) -> int:
        sid = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append([sid, 0.0])
        self.span_start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> float:
        end = time.perf_counter()
        entry = self._stack.pop()
        if entry[0] != sid:
            raise RuntimeError("span %d closed out of order" % sid)
        self.span_end[sid] = end
        duration = end - self.span_start[sid]
        name = self.names[self.span_name[sid]]
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - entry[1]
        if self._stack:
            self._stack[-1][1] += duration
        return duration

    def count(self, key: str, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def spans(self):
        """(id, name, start, end, parent) for every recorded span."""
        for sid in range(len(self.span_start)):
            parent = self.span_parent[sid]
            yield (sid, self.names[self.span_name[sid]], self.span_start[sid],
                   self.span_end[sid], None if parent < 0 else parent)

    def write_jsonl(self, path: str):
        """One JSON object per span, gzip-compressed: a traced eval-*
        instance records millions of spans."""
        quoted = [json.dumps(name) for name in self.names]
        with gzip.open(path, "wt", compresslevel=1) as out:
            for sid in range(len(self.span_start)):
                parent = self.span_parent[sid]
                out.write('{"id": %d, "name": %s, "start": %r, "end": %r, "parent": %s}\n'
                          % (sid, quoted[self.span_name[sid]], self.span_start[sid],
                             self.span_end[sid], "null" if parent < 0 else parent))

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn, counter):
        before = _BEFORE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args) if before is not None else None
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if counter is not None:
                counter(self, args, result, state)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, _COUNTERS.get(name)))

    def install(self):
        """Wrap every traced function; undo with ``uninstall``."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module, attr, name in _MODULE_TARGETS:
            self._patch(importlib.import_module("stargraphs." + module), attr, name)
        for module, cls, attr, name in _CLASS_TARGETS:
            owner = getattr(importlib.import_module("stargraphs." + module), cls)
            self._patch(owner, attr, name)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Every per-layer metric except trace.overhead_s, as plain numbers."""
        out = {}
        for layer in TIMED_LAYERS:
            out[layer + ".calls"] = self.calls.get(layer, 0)
            out[layer + ".self_s"] = self.self_s.get(layer, 0.0)
        c = self.counts
        for key, _unit in PER_LAYER_METRICS:
            if key not in out and key != "trace.overhead_s":
                out[key] = c.get(key, 0)
        out["graphs.canonical_form.distinct"] = len(self.canonical_keys)
        rows = out["linalg.add_row.calls"]
        useful = c.get("linalg.add_row.pivot", 0) + c.get("linalg.add_row.inconsistent", 0)
        out["linalg.add_row.useful_ratio"] = useful / rows if rows else 0.0
        compiles = out["operators.compile_sum.calls"]
        hits = c.get("operators.compile_sum.hits", 0)
        out["operators.compile_sum.hit_ratio"] = hits / compiles if compiles else 0.0
        return out


# -- counters: (tracer, args, result, value of the before-hook) -> None -------

def _count_enumerate(t, args, result, before):
    t.count("graphs.enumerate_graphs.labeled", result.labeled_count)
    t.count("graphs.enumerate_graphs.classes", len(result.classes))


def _count_canonical(t, args, result, before):
    t.canonical_keys.add(args[0].key)


def _terms_out(key):
    def counter(t, args, result, before):
        t.count(key, len(result))
    return counter


def _count_echelon(t, args, result, before):
    rows = args[0]
    t.count("linalg.echelon.rows", len(rows))
    t.count("linalg.echelon.nnz_in", sum(len(r) for r in rows))
    t.count("linalg.echelon.nnz_out", sum(len(r) for r in result.rows))
    t.count("linalg.echelon.rank", result.rank)


def _count_add_row(t, args, result, before):
    t.count("linalg.add_row." + result)


def _count_compile_graph(t, args, result, before):
    t.count("operators.compile_graph.terms_out", len(result.terms))


def _count_apply(t, args, result, before):
    t.count("operators.apply.terms", len(args[0].terms))


def _count_mul(t, args, result, before):
    left, right = args
    pairs = len(left.terms)
    if hasattr(right, "terms"):
        pairs *= len(right.terms)
    t.count("poly.mul.term_pairs", pairs)


def _count_compile_sum(t, args, result, before):
    # compile_sum stores every operator it builds in the structure's cache,
    # so an unchanged cache size means the call was served from the cache
    if len(args[1]._op_cache) == before:
        t.count("operators.compile_sum.hits")


def _count_eval(t, args, result, before):
    t.count("solver.eval.rows", result.matrix_shape[0])
    t.count("solver.eval.rank", result.certificate["rank_coefficient"])


_BEFORE = {
    "operators.compile_sum": lambda args: len(args[1]._op_cache),
}

_COUNTERS = {
    "graphs.enumerate_graphs": _count_enumerate,
    "graphs.canonical_form": _count_canonical,
    "homology.graph_delta": _terms_out("homology.graph_delta.terms_out"),
    "homology.graph_compose": _terms_out("homology.graph_compose.terms_out"),
    "homology.graph_gerstenhaber": _terms_out("homology.graph_gerstenhaber.terms_out"),
    "homology.leibniz_generators": _terms_out("homology.leibniz_generators.generators"),
    "linalg.echelon": _count_echelon,
    "linalg.add_row": _count_add_row,
    "operators.compile_graph": _count_compile_graph,
    "operators.compile_sum": _count_compile_sum,
    "operators.apply": _count_apply,
    "poly.mul": _count_mul,
    "solver.eval_obstruction": _count_eval,
}
