import hashlib
import itertools
import json
import shutil

import pytest

from stargraphs.cli import main
from stargraphs.graphs import GraphSum
from stargraphs.homology import graph_delta
from stargraphs.operators import apply_graph
from stargraphs.poisson import preset_from_string
from stargraphs.poly import monomials_up_to_degree
from stargraphs.solver import StarSeries, mc_defect


def run_cli(args, tmp_path, name="report.json"):
    out = tmp_path / name
    code = main(list(args) + ["--output", str(out)])
    data = json.loads(out.read_text()) if out.exists() else None
    return code, data


def test_enumerate_report(tmp_path):
    code, data = run_cli(["enumerate", "--n", "2", "--m", "2",
                          "--filter", "wheels_only"], tmp_path)
    assert code == 0
    assert data["labeled_count"] == 8
    assert data["class_count"] == 1
    assert data["tool"]["name"] == "stargraphs"
    assert data["config"]["n"] == 2


def test_enumerate_deterministic_bytes(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    main(["enumerate", "--n", "2", "--m", "2", "--output", str(out1)])
    main(["enumerate", "--n", "2", "--m", "2", "--output", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("args, digest", [
    (["--n", "4", "--m", "2"],
     "acb78f859fdd6ba28d3ea799cd333370b106168f6c64b1dcc733965f8773e8b8"),
    (["--n", "3", "--m", "3", "--filter", "wheel_free"],
     "d29edd6a5820d2153f25455b57ce6dc7d2abb6e740439cd18956f24729e3eab8"),
], ids=["K42-all", "K33-wheel_free"])
def test_enumerate_report_golden(tmp_path, args, digest):
    # digests recorded from the product scan over all labeled tuples
    out = tmp_path / "report.json"
    assert main(["enumerate", *args, "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_wheels_command(tmp_path):
    code, data = run_cli(["wheels", "--graph", "2 2 ; 3: 1 4 / 4: 3 2",
                          "--graph", "1 2 ; 3: 2 1"], tmp_path)
    assert code == 0
    assert data["graphs"][0]["has_wheel"] is True
    assert data["graphs"][1]["has_wheel"] is False
    assert data["graphs"][1]["sign"] == -1


def test_wheels_input_reads_graph_sum_lines(tmp_path):
    # a comment, a tab-separated and a space-separated term, as every --input
    sum_file = tmp_path / "w.sum"
    sum_file.write_text("# two terms\n1/2\t2 2 ; 3: 1 4 / 4: 3 2\n\n-1 1 2 ; 3: 2 1\n")
    _, from_file = run_cli(["wheels", "--input", str(sum_file)], tmp_path, "file.json")
    _, from_flags = run_cli(["wheels", "--graph", "2 2 ; 3: 1 4 / 4: 3 2",
                             "--graph", "1 2 ; 3: 2 1"], tmp_path, "flags.json")
    assert from_file["graphs"] == from_flags["graphs"]
    assert len(from_file["graphs"]) == 2


def test_eval_command(tmp_path):
    sum_file = tmp_path / "p.sum"
    sum_file.write_text("1\t1 2 ; 3: 1 2\n")
    code, data = run_cli(["eval", "--input", str(sum_file), "--preset", "so3",
                          "--args", "x1; x2"], tmp_path)
    assert code == 0
    assert data["value"] == "x3"


def test_delta_compose_bracket_round_trip(tmp_path):
    p_file = tmp_path / "p.sum"
    p_file.write_text("1\t1 2 ; 3: 1 2\n")
    out_sum = tmp_path / "delta.sum"
    code, data = run_cli(["delta", "--input", str(p_file),
                          "--output-sum", str(out_sum)], tmp_path)
    assert code == 0
    assert data["terms"] == []  # bivectors are cocycles

    code, data = run_cli(["compose", "--left", str(p_file), "--right", str(p_file)],
                         tmp_path)
    assert code == 0
    assert data["arity"] == 3 and len(data["terms"]) == 4

    code, data = run_cli(["bracket", "--left", str(p_file), "--right", str(p_file)],
                         tmp_path)
    assert code == 0
    assert len(data["terms"]) == 4


def test_leibniz_command(tmp_path):
    code, data = run_cli(["leibniz", "--n-total", "2", "--m", "3"], tmp_path)
    assert code == 0
    assert data["generator_count"] == 1
    assert len(data["generators"][0]["expansion"]) == 3


def test_leibniz_report_golden(tmp_path):
    # digest recorded when every ordinary vertex was offered all ordered target pairs
    out = tmp_path / "report.json"
    assert main(["leibniz", "--n-total", "4", "--m", "3", "--output", str(out)]) == 0
    assert (hashlib.sha256(out.read_bytes()).hexdigest()
            == "b37ec3fc71571a96a84a4d6c30a31fe0c212c42af110a3737ae3d593fb7dbe94")


def test_reduce_command(tmp_path):
    raw = tmp_path / "raw.sum"
    raw.write_text("1/2\t1 2 ; 3: 2 1\n1/2\t1 2 ; 3: 1 2\n")
    code, data = run_cli(["reduce", "--input", str(raw)], tmp_path)
    assert code == 0
    assert data["terms"] == []  # the two orientations cancel


def test_verify_assoc_kontsevich_k2(tmp_path):
    code, data = run_cli(["verify-assoc", "--series", "kontsevich-k2",
                          "--order", "2", "--preset", "symplectic2",
                          "--degree", "2"], tmp_path)
    assert code == 0
    assert data["operator_identically_zero"] is True
    assert data["nonzero_defects"] == 0
    assert data["triples_checked"] == 5 ** 3


KONTSEVICH_ORDER2 = ["1/2\t2 2 ; 3: 1 2 / 4: 1 2", "1/3\t2 2 ; 3: 1 4 / 4: 1 2",
                     "1/3\t2 2 ; 3: 1 2 / 4: 3 2", "-1/6\t2 2 ; 3: 1 4 / 4: 3 2"]


def _series_with_weight(tmp_path, index, weight):
    """A series file: the Kontsevich series with the order-2 weight of graph
    ``index`` replaced by ``weight``, so the order-2 residual is a nonzero
    operator; returns (path, order-2 lines)."""
    order2 = list(KONTSEVICH_ORDER2)
    order2[index] = weight + order2[index][order2[index].index("\t"):]
    path = tmp_path / "series.json"
    path.write_text(json.dumps({"1": ["1\t1 2 ; 3: 1 2"], "2": order2}))
    return path, order2


def test_verify_assoc_counts_the_defects_of_a_wrong_weight(tmp_path):
    path, order2 = _series_with_weight(tmp_path, 0, "1/4")
    code, data = run_cli(["verify-assoc", "--series", str(path), "--order", "2",
                          "--preset", "so3", "--degree", "2"], tmp_path)
    assert code == 2
    assert data["operator_identically_zero"] is False
    series = StarSeries({1: GraphSum.from_lines(["1\t1 2 ; 3: 1 2"]),
                         2: GraphSum.from_lines(order2)})
    residual = graph_delta(series.order(2)) + mc_defect(series, 2)
    p = preset_from_string("so3")
    monos = monomials_up_to_degree(3, 2)
    defects = sum(not apply_graph(residual, p, triple).is_zero
                  for triple in itertools.product(monos, repeat=3))
    assert data["triples_checked"] == len(monos) ** 3 == 729
    assert data["nonzero_defects"] == defects > 0


@pytest.mark.parametrize("degree", ["0", "-1"])
def test_verify_assoc_rejects_a_degree_below_one(tmp_path, capsys, degree):
    # the first weight only reaches second derivatives of f and g, the second
    # one also reaches the product f g, which is not linear at degree 1
    path, _ = _series_with_weight(tmp_path, 1, "1/4")
    args = ["verify-assoc", "--series", str(path), "--order", "2", "--preset", "so3"]
    # degree 1 already sees the defects, so an empty check must not read as a pass
    code, data = run_cli(args + ["--degree", "1"], tmp_path, "one.json")
    assert code == 2 and data["nonzero_defects"] > 0
    capsys.readouterr()
    code, data = run_cli(args + ["--degree", degree], tmp_path)
    assert (code, data) == (1, None)
    error = json.loads(capsys.readouterr().err)["error"]
    assert "--degree must be >= 1" in error["message"]


POISSON_LINE = "1\t1 2 ; 3: 1 2"


@pytest.mark.parametrize("text", [
    json.dumps([[POISSON_LINE]]), json.dumps({"1": POISSON_LINE}), json.dumps({"1": [1]}),
    json.dumps(POISSON_LINE),
    # an order is written once, as a plain decimal: neither key may win silently
    json.dumps({"1": [POISSON_LINE], "01": [POISSON_LINE]}),
    '{"1": ["1\\t1 2 ; 3: 1 2"], "1": ["1\\t1 2 ; 3: 1 2"]}',
    json.dumps({"+1": [POISSON_LINE]}), json.dumps({"x": [POISSON_LINE]}),
], ids=["list", "string-order", "number-line", "string", "padded-order",
        "repeated-order", "signed-order", "word-order"])
def test_verify_assoc_rejects_a_series_file_of_the_wrong_shape(tmp_path, capsys, text):
    path = tmp_path / "series.json"
    path.write_text(text)
    code, data = run_cli(["verify-assoc", "--series", str(path), "--order", "1",
                          "--preset", "so3", "--degree", "1"], tmp_path)
    assert (code, data) == (1, None)
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "GraphError"


@pytest.mark.parametrize("max_order", ["0", "-2"])
def test_solve_mc_rejects_a_max_order_below_one(tmp_path, capsys, max_order):
    code, data = run_cli(["solve-mc", "--max-order", max_order], tmp_path)
    assert (code, data) == (1, None)
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "GraphError"
    assert "max order must be >= 1" in error["message"]


def test_solve_mc_small(tmp_path):
    code, data = run_cli(["solve-mc", "--max-order", "2", "--seed", "7"], tmp_path)
    assert code == 0
    orders = data["orders"]
    assert [o["status"] for o in orders] == ["solved", "solved"]
    assert orders[1]["affine_dim"] == 1


def test_cocycle_kernel_command(tmp_path):
    code, data = run_cli(["cocycle-kernel", "--n", "1"], tmp_path)
    assert code == 0
    assert data["dimension"] == 1


def test_error_exit_code(tmp_path):
    code = main(["wheels", "--graph", "1 1 ; 2: 1 1",
                 "--output", str(tmp_path / "x.json")])
    assert code == 1
    code = main(["eval", "--input", str(tmp_path / "missing.sum"),
                 "--preset", "so3", "--args", "x1;x2",
                 "--output", str(tmp_path / "y.json")])
    assert code == 1


def test_preset_parameter_that_is_never_used_is_a_json_error(tmp_path, capsys):
    sum_file = tmp_path / "in.sum"
    sum_file.write_text("1\t1 2 ; 3: 1 2\n")
    code = main(["eval", "--input", str(sum_file), "--preset", "so3:x1", "--args", "x1; x2",
                 "--output", str(tmp_path / "r.json")])
    assert code == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "PresetError"
    assert "so3" in error["message"] and "takes no parameter" in error["message"]


@pytest.mark.parametrize("command, sum_text, error_type", [
    (["reduce"], "1/0\t1 2 ; 3: 1 2\n", "GraphError"),
    (["eval", "--preset", "free2:1/0*x1", "--args", "x1; x2"], "1\t1 2 ; 3: 1 2\n",
     "DimensionError"),
], ids=["reduce-coefficient", "eval-preset"])
def test_zero_denominator_is_a_json_error(tmp_path, capsys, command, sum_text, error_type):
    sum_file = tmp_path / "in.sum"
    sum_file.write_text(sum_text)
    code = main(command + ["--input", str(sum_file), "--output", str(tmp_path / "r.json")])
    assert code == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == error_type
    assert "zero denominator" in error["message"]


@pytest.mark.parametrize("command", [
    ["reduce", "--input", "{sum}"],
    ["delta", "--input", "{sum}", "--output-sum", "{dir}/delta.sum"],
    ["compose", "--left", "{sum}", "--right", "{sum}"],
    ["bracket", "--left", "{sum}", "--right", "{sum}", "--output-sum", "{dir}/br.sum"],
    ["eval", "--input", "{sum}", "--preset", "so3", "--args", "x1; x2^2"],
    ["wheels", "--input", "{sum}"],
], ids=lambda command: command[0])
def test_reports_do_not_depend_on_file_locations(tmp_path, command):
    source = tmp_path / "source.sum"
    source.write_text("1/2\t2 2 ; 3: 1 2 / 4: 1 2\n-1/3\t2 2 ; 3: 1 4 / 4: 3 2\n")
    digest = "sha256:" + hashlib.sha256(source.read_bytes()).hexdigest()
    reports = []
    for name in ("first", "second"):
        where = tmp_path / name / "nested"
        where.mkdir(parents=True)
        copy = where / "input.sum"
        shutil.copy(source, copy)
        args = [part.format(sum=copy, dir=where) for part in command]
        out = where / "report.json"
        assert main(args + ["--output", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    config = json.loads(reports[0])["config"]
    assert "output_sum" not in config
    for key in ("input", "left", "right"):
        assert config.get(key, digest) == digest


def test_verify_assoc_series_file_is_recorded_by_digest(tmp_path):
    series = {"1": ["1\t1 2 ; 3: 1 2"]}
    reports = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        path = tmp_path / name / "series.json"
        path.write_text(json.dumps(series))
        code, data = run_cli(["verify-assoc", "--series", str(path), "--order", "1",
                              "--preset", "so3", "--degree", "1"], tmp_path / name)
        assert code == 0
        reports.append(data)
    assert reports[0] == reports[1]
    assert reports[0]["config"]["series"].startswith("sha256:")


def test_matrix_cap_bounds_fill_in(tmp_path, capsys):
    # the largest block of solve_up_to(3) over all graphs has 151 nonzeros
    # and reaches 152 during elimination
    args = ["solve-mc", "--max-order", "3", "--no-wheel-free"]
    code = main(args + ["--matrix-cap", "151", "--output", str(tmp_path / "r.json")])
    assert code == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "BudgetExceededError"
    assert "fill-in" in error["message"]
    assert main(args + ["--matrix-cap", "152", "--output", str(tmp_path / "s.json")]) == 0
