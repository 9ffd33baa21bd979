"""Command-line surface: file-in/file-out experiments with JSON reports.

Every report embeds the tool version and the invoking configuration, contains
no timestamps, and is byte-identical for identical configurations.  Input
files enter the configuration by the sha256 of their bytes and output paths
not at all, so a report does not depend on where its files live.  Exit
codes: 0 success / verified, 1 error, 2 obstructed.  ``solve-mc`` exits 2
only when an evaluated system is infeasible; an order whose graph-level
blocks are infeasible but whose evaluated system stays feasible is reported
``inconclusive`` with exit 0, which is today's outcome of the wheel-free
order-4 run.  ``verify-assoc`` exits 2 when a triple leaves a nonzero defect.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from itertools import product

from . import __version__
from .errors import BudgetExceededError, DimensionError, GraphError, PresetError
from .graphs import (DEFAULT_VERTEX_BUDGET, FILTERS, GraphSum, canonical_form,
                     enumerate_graphs, has_wheel, parse_graph, parse_terms)
from .homology import graph_compose, graph_delta, graph_gerstenhaber, leibniz_generators
from .operators import apply_graph, compile_sum
from .poisson import preset_from_string
from .poly import monomials_up_to_degree, parse_poly
from .solver import (DEFAULT_MATRIX_NONZERO_CAP, StarSeries, cocycle_kernel,
                     kontsevich_k2, mc_defect, solve_up_to)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_OBSTRUCTED = 2

BUILTIN_SERIES = "kontsevich-k2"  # the --series value that names no file


def _file_digest(path: str) -> str:
    with open(path, "rb") as handle:
        return "sha256:" + hashlib.sha256(handle.read()).hexdigest()


def _report(args, payload: dict) -> dict:
    # where files live is not part of the experiment: identical configurations
    # must produce byte-identical reports wherever their inputs are read from
    # and the report and sums are written to, so output paths are left out and
    # input files are recorded by the sha256 of their bytes
    config = {}
    for key, value in sorted(vars(args).items()):
        if key in ("func", "output", "output_sum") or value is None:
            continue
        if key in ("input", "left", "right") or (key == "series"
                                                 and value != BUILTIN_SERIES):
            value = _file_digest(value)
        config[key] = value
    return {"tool": {"name": "stargraphs", "version": __version__},
            "config": config, **payload}


def _emit(args, report: dict):
    text = json.dumps(report, indent=2, sort_keys=True, default=str) + "\n"
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _read_sum(path: str) -> GraphSum:
    with open(path) as handle:
        return GraphSum.from_lines(handle)


def _emit_sum(args, s: GraphSum) -> int:
    """Write ``s`` to ``--output-sum`` when given, and report its terms."""
    lines = s.to_lines()
    if args.output_sum:
        with open(args.output_sum, "w") as handle:
            handle.writelines(line + "\n" for line in lines)
    _emit(args, _report(args, {"arity": s.arity, "terms": lines}))
    return EXIT_OK


def cmd_enumerate(args) -> int:
    result = enumerate_graphs(args.n, args.m, args.filter,
                              vertex_budget=args.vertex_budget)
    _emit(args, _report(args, {
        "labeled_count": result.labeled_count,
        "class_count": len(result.classes),
        "classes": [rep.encode() for rep in result.classes],
    }))
    return EXIT_OK


def cmd_reduce(args) -> int:
    return _emit_sum(args, _read_sum(args.input))


def cmd_wheels(args) -> int:
    graphs = [parse_graph(enc) for enc in args.graph or []]
    if args.input:
        with open(args.input) as handle:
            graphs.extend(g for g, _ in parse_terms(handle))
    results = []
    for g in graphs:
        rep, sign = canonical_form(g)
        results.append({"graph": g.encode(), "has_wheel": has_wheel(g),
                        "canonical": rep.encode(), "sign": sign})
    _emit(args, _report(args, {"graphs": results}))
    return EXIT_OK


def cmd_eval(args) -> int:
    s = _read_sum(args.input)
    p = preset_from_string(args.preset)
    arg_polys = [parse_poly(chunk, p.d) for chunk in args.args.split(";")]
    value = apply_graph(s, p, arg_polys)
    _emit(args, _report(args, {"preset": p.label, "value": str(value)}))
    return EXIT_OK


def cmd_delta(args) -> int:
    return _emit_sum(args, graph_delta(_read_sum(args.input)))


def cmd_compose(args) -> int:
    return _emit_sum(args, graph_compose(_read_sum(args.left), _read_sum(args.right)))


def cmd_bracket(args) -> int:
    return _emit_sum(args, graph_gerstenhaber(_read_sum(args.left), _read_sum(args.right)))


def cmd_leibniz(args) -> int:
    generators = leibniz_generators(args.n_total, args.m,
                                    wheel_free_expansions=args.wheel_free)
    _emit(args, _report(args, {
        "generator_count": len(generators),
        "generators": [{"skeleton": gen.skeleton_text(),
                        "expansion": gen.expansion.to_lines()}
                       for gen in generators],
    }))
    return EXIT_OK


def cmd_solve_mc(args) -> int:
    series, reports = solve_up_to(args.max_order, wheel_free=args.wheel_free,
                                  seed=args.seed, nonzero_cap=args.matrix_cap)
    payload = {"orders": [r.to_json_dict() for r in reports]}
    _emit(args, _report(args, payload))
    return EXIT_OBSTRUCTED if any(r.status == "obstructed" for r in reports) else EXIT_OK


def _load_series(spec: str) -> StarSeries:
    if spec == BUILTIN_SERIES:
        return kontsevich_k2()
    with open(spec) as handle:
        # each object as the tuple of its (key, value) pairs, so that a key
        # written twice is seen
        data = json.load(handle, object_pairs_hook=tuple)
    is_object = isinstance(data, tuple)
    orders = {_order(key): lines for key, lines in data} if is_object else {}
    if not (is_object and None not in orders and len(orders) == len(data) and all(
            isinstance(lines, list) and all(isinstance(line, str) for line in lines)
            for lines in orders.values())):
        raise GraphError("a series file is a JSON object of order -> list of "
                         "graph-sum lines, each order written once as a plain decimal")
    return StarSeries({k: GraphSum.from_lines(lines) for k, lines in orders.items()})


def _order(key: str) -> int | None:
    """The order a series-file key names, or None unless the key is the
    plain decimal ``str(int(key))``."""
    try:
        k = int(key)
    except ValueError:
        return None
    return k if key == str(k) else None


def cmd_verify_assoc(args) -> int:
    if args.degree < 1:
        raise ValueError("--degree must be >= 1, got %d" % args.degree)
    series = _load_series(args.series)
    p = preset_from_string(args.preset)
    residual = graph_delta(series.order(args.order)) + mc_defect(series, args.order)
    op = compile_sum(residual, p)
    monos = monomials_up_to_degree(p.d, args.degree)
    checked = len(monos) ** 3
    # an operator with no terms vanishes on every triple without evaluation
    failures = 0 if op.is_zero else sum(
        not op.apply(triple).is_zero for triple in product(monos, repeat=3))
    _emit(args, _report(args, {
        "preset": p.label,
        "order": args.order,
        "operator_identically_zero": op.is_zero,
        "triples_checked": checked,
        "nonzero_defects": failures,
    }))
    return EXIT_OK if failures == 0 else EXIT_OBSTRUCTED


def cmd_cocycle_kernel(args) -> int:
    kernel = cocycle_kernel(args.n, wheel_free=args.wheel_free,
                            modulo_leibniz=args.modulo_leibniz)
    _emit(args, _report(args, {
        "dimension": len(kernel),
        "basis": [vec.to_lines() for vec in kernel],
    }))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stargraphs",
        description="Exact graph calculus for star products")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", help="write the JSON report here instead of stdout")

    p = sub.add_parser("enumerate", help="census of admissible graph classes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--filter", choices=FILTERS, default="all")
    p.add_argument("--vertex-budget", type=int, default=DEFAULT_VERTEX_BUDGET)
    common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("reduce", help="canonicalize a graph-sum file")
    p.add_argument("--input", required=True)
    p.add_argument("--output-sum")
    common(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("wheels", help="directed-cycle check for graphs")
    p.add_argument("--graph", action="append", help="graph encoding (repeatable)")
    p.add_argument("--input", help="graph-sum file to check")
    common(p)
    p.set_defaults(func=cmd_wheels)

    p = sub.add_parser("eval", help="evaluate a graph sum on a Poisson preset")
    p.add_argument("--input", required=True)
    p.add_argument("--preset", required=True,
                   help="symplectic2 | so3 | sl2 | jacobian:POLY | free2:POLY")
    p.add_argument("--args", required=True, help="semicolon-separated polynomials")
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("delta", help="graph-level Hochschild differential")
    p.add_argument("--input", required=True)
    p.add_argument("--output-sum")
    common(p)
    p.set_defaults(func=cmd_delta)

    for name, handler in (("compose", cmd_compose), ("bracket", cmd_bracket)):
        p = sub.add_parser(name, help="graph-level %s" % name)
        p.add_argument("--left", required=True)
        p.add_argument("--right", required=True)
        p.add_argument("--output-sum")
        common(p)
        p.set_defaults(func=handler)

    p = sub.add_parser("leibniz", help="Jacobi-ideal generators")
    p.add_argument("--n-total", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--wheel-free", action="store_true",
                   help="keep only generators with wheel-free expansions")
    common(p)
    p.set_defaults(func=cmd_leibniz)

    p = sub.add_parser("solve-mc", help="order-by-order associativity solving")
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--wheel-free", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--matrix-cap", type=int, default=DEFAULT_MATRIX_NONZERO_CAP)
    common(p)
    p.set_defaults(func=cmd_solve_mc)

    p = sub.add_parser("verify-assoc", help="evaluate one associativity order")
    p.add_argument("--series", required=True,
                   help="kontsevich-k2 or a JSON series file")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--preset", required=True)
    p.add_argument("--degree", type=int, default=4)
    common(p)
    p.set_defaults(func=cmd_verify_assoc)

    p = sub.add_parser("cocycle-kernel", help="kernel of the graph differential")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--wheel-free", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--modulo-leibniz", action="store_true")
    common(p)
    p.set_defaults(func=cmd_cocycle_kernel)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, DimensionError, PresetError, BudgetExceededError,
            OSError, ValueError) as exc:
        error = {"tool": {"name": "stargraphs", "version": __version__},
                 "error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stderr.write(json.dumps(error, indent=2, sort_keys=True) + "\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
