"""Tests of the benchmark harness itself (not of the engine)."""

import gzip
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from stargraphs import operators, poisson, solver  # noqa: E402
from stargraphs.graphs import GraphSum  # noqa: E402
from stargraphs.poly import Poly  # noqa: E402
from stargraphs.solver import MCReport  # noqa: E402


def test_tampered_outputs_count_as_failed_operations():
    ops = workloads.operations(workloads.prepare("graph-level", 3))
    by_name = {op.name: op for op in ops}
    kernel = by_name["cocycle_kernel(4, wheel_free=True)"]
    jacobi = by_name["graded Jacobi sum"]
    nonzero = GraphSum(4, [("2 4 ; 5: 1 2 / 6: 3 4", Fraction(1, 3))])
    tampered = [
        workloads.Operation(kernel.name, lambda: [None] * 11, kernel.check),
        workloads.Operation(kernel.name, lambda: [None] * 12, kernel.check),
        workloads.Operation(jacobi.name, lambda: nonzero, jacobi.check),
        workloads.Operation(jacobi.name, lambda: GraphSum.zero(4), jacobi.check),
        workloads.Operation("raises", lambda: 1 // 0, jacobi.check),
    ]
    attempted, failures = workloads.run_operations(tampered)
    assert attempted == 5
    assert len(failures) == 3
    assert failures[0].startswith(kernel.name) and "11" in failures[0]
    assert "ZeroDivisionError" in failures[2]


def test_eval_checks_reject_tampered_reports():
    cert = {"rank_coefficient": 5, "unknowns": 4, "reverified": {"rank_coefficient": 5}}
    assert workloads.check_eval(MCReport(order=4, status="solved", certificate=cert))
    assert "exceeds" in workloads.check_eval(
        MCReport(order=4, status="inconclusive", certificate=cert))
    cert = {"rank_coefficient": 3, "unknowns": 4, "reverified": {"rank_coefficient": 2}}
    assert "reverified" in workloads.check_eval(
        MCReport(order=4, status="inconclusive", certificate=cert))
    p = poisson.preset_poisson("so3")
    op = operators.compile_sum(GraphSum.single("1 2 ; 3: 1 2"), p)
    assert workloads.check_zero_operator(op)


def test_inputs_depend_only_on_the_seed():
    for name in ("graph-level", "eval-linear", "eval-cubic"):
        first = workloads.prepare(name, 11)
        assert first.digest() == workloads.prepare(name, 11).digest()
        assert first.digest() != workloads.prepare(name, 12).digest()
    linear = workloads.prepare("eval-linear", 11)
    assert [len(t) for _, t in linear.fixtures] == [8 * workloads.TRIPLES_PER_PATTERN] * 2
    cubic = workloads.prepare("eval-cubic", 11)
    (p, triples), = cubic.fixtures
    assert len(triples) == 27
    jacobi = workloads.prepare("graph-level", 11).jacobi_terms
    assert sorted(enc for enc, _ in jacobi) == sorted(workloads.JACOBI_CLASSES)


def _subtree_self_sum(tracer, root):
    spans = list(tracer.spans())
    covered = {sid: 0.0 for sid, *_ in spans}
    for sid, _name, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    inside = {root}
    total = 0.0
    for sid, _name, start, end, parent in spans:
        if sid == root or parent in inside:
            inside.add(sid)
            total += (end - start) - covered[sid]
    return total


def test_traced_self_times_sum_to_traced_wall(tmp_path):
    x = Poly.variable
    originals = (Poly.__mul__, solver.echelon, operators.compile_graph)
    series, _ = solver.solve_up_to(2, wheel_free=True)
    p = poisson.preset_poisson("so3")
    triples = [(x(3, 1), x(3, 2), x(3, 3)), (x(3, 2), x(3, 2) * x(3, 1), x(3, 3))]
    with tracing.Tracer() as tracer:
        root = tracer.open("perfbench.ops")
        solver.solve_up_to(2, wheel_free=False)
        report = solver.eval_obstruction(series, 2, fixtures=[(p, triples)])
        wall = tracer.close(root)
    assert (Poly.__mul__, solver.echelon, operators.compile_graph) == originals
    assert report.status == "inconclusive"

    assert _subtree_self_sum(tracer, root) == pytest.approx(wall, rel=1e-9)
    assert sum(tracer.self_s.values()) == pytest.approx(wall, rel=1e-9)
    metrics = tracer.layer_metrics()
    assert set(metrics) | {"trace.overhead_s"} == {m for m, _ in tracing.PER_LAYER_METRICS}
    assert metrics["poly.mul.calls"] > 0 and metrics["operators.apply.calls"] > 0
    assert metrics["linalg.add_row.calls"] == sum(
        metrics["linalg.add_row." + k] for k in ("pivot", "redundant", "inconsistent"))

    path = tmp_path / "spans.jsonl.gz"
    tracer.write_jsonl(str(path))
    with gzip.open(path, "rt") as f:
        lines = [json.loads(line) for line in f]
    assert len(lines) == len(tracer.span_start)
    assert lines[0] == {"id": 0, "name": "perfbench.ops", "start": tracer.span_start[0],
                        "end": tracer.span_end[0], "parent": None}


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == set(
        run.END_TO_END_UNITS.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        tracing.PER_LAYER_METRICS)


def test_run_refuses_a_tree_without_the_engine(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / "perfbench" / "run.py"),
                           "--workload", "eval-cubic", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
