"""Command-line surface: file-in/file-out experiments with JSON reports.

Every report embeds the tool version and the invoking configuration, contains
no timestamps, and is byte-identical for identical configurations.  Exit
codes: 0 success / verified, 1 error, 2 obstructed.  ``solve-mc`` exits 2
only when an evaluated system is infeasible; an order whose graph-level
blocks are infeasible but whose evaluated system stays feasible is reported
``inconclusive`` with exit 0, which is today's outcome of the wheel-free
order-4 run.  ``verify-assoc`` exits 2 when a triple leaves a nonzero defect.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .errors import BudgetExceededError, DimensionError, GraphError, PresetError
from .graphs import (DEFAULT_VERTEX_BUDGET, FILTERS, GraphSum, canonical_form,
                     enumerate_graphs, has_wheel, parse_graph)
from .homology import graph_compose, graph_delta, graph_gerstenhaber, leibniz_generators
from .operators import apply_graph, compile_sum
from .poisson import preset_from_string
from .poly import monomials_up_to_degree, parse_poly
from .solver import (StarSeries, cocycle_kernel, kontsevich_k2, mc_defect,
                     solve_up_to)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_OBSTRUCTED = 2


def _report(args, payload: dict) -> dict:
    # the output path is not part of the experiment: identical configurations
    # must produce byte-identical reports wherever they are written
    config = {key: value for key, value in sorted(vars(args).items())
              if key not in ("func", "output") and value is not None}
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


def _write_sum(path: str, s: GraphSum):
    with open(path, "w") as handle:
        for line in s.to_lines():
            handle.write(line + "\n")


def cmd_enumerate(args) -> int:
    result = enumerate_graphs(args.n, args.m, args.filter,
                              vertex_budget=args.vertex_budget)
    _emit(args, _report(args, {
        "labeled_count": result.labeled_count,
        "class_count": len(result.classes),
        "classes": [cls.rep.encode() for cls in result.classes],
    }))
    return EXIT_OK


def cmd_reduce(args) -> int:
    s = _read_sum(args.input)
    if args.output_sum:
        _write_sum(args.output_sum, s)
    _emit(args, _report(args, {"arity": s.arity, "terms": s.to_lines()}))
    return EXIT_OK


def cmd_wheels(args) -> int:
    encodings = list(args.graph or [])
    if args.input:
        with open(args.input) as handle:
            for line in handle:
                line = line.strip()
                if line:
                    encodings.append(line.partition("\t")[2] or line)
    results = []
    for enc in encodings:
        g = parse_graph(enc)
        cls = canonical_form(g)
        results.append({"graph": g.encode(), "has_wheel": has_wheel(g),
                        "canonical": cls.rep.encode(), "sign": cls.sign})
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
    s = _read_sum(args.input)
    out = graph_delta(s)
    if args.output_sum:
        _write_sum(args.output_sum, out)
    _emit(args, _report(args, {"arity": out.arity, "terms": out.to_lines()}))
    return EXIT_OK


def _binary(args, op) -> int:
    left = _read_sum(args.left)
    right = _read_sum(args.right)
    out = op(left, right)
    if args.output_sum:
        _write_sum(args.output_sum, out)
    _emit(args, _report(args, {"arity": out.arity, "terms": out.to_lines()}))
    return EXIT_OK


def cmd_compose(args) -> int:
    return _binary(args, graph_compose)


def cmd_bracket(args) -> int:
    return _binary(args, graph_gerstenhaber)


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
                                  seed=args.seed, nonzero_cap=args.matrix_cap,
                                  order_cap=args.max_order)
    payload = {"orders": [r.to_json_dict() for r in reports]}
    _emit(args, _report(args, payload))
    return EXIT_OBSTRUCTED if any(r.status == "obstructed" for r in reports) else EXIT_OK


def _load_series(spec: str) -> StarSeries:
    if spec == "kontsevich-k2":
        return kontsevich_k2()
    with open(spec) as handle:
        data = json.load(handle)
    return StarSeries({int(k): GraphSum.from_lines(lines)
                       for k, lines in data.items()})


def cmd_verify_assoc(args) -> int:
    series = _load_series(args.series)
    p = preset_from_string(args.preset)
    residual = graph_delta(series.order(args.order)) + mc_defect(series, args.order)
    op = compile_sum(residual, p)
    monos = monomials_up_to_degree(p.d, args.degree)
    failures = 0
    checked = 0
    for f in monos:
        for g in monos:
            for h in monos:
                checked += 1
                if not op.apply((f, g, h)).is_zero:
                    failures += 1
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
    p.add_argument("--matrix-cap", type=int, default=200_000)
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
