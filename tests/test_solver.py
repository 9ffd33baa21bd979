import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from stargraphs import solver
from stargraphs.errors import DimensionError, GraphError
from stargraphs.graphs import GraphSum, enumerate_graphs, has_wheel, parse_graph
from stargraphs.homology import graph_delta, graph_gerstenhaber
from stargraphs.linalg import StreamingReducer
from stargraphs.operators import (apply_graph, compile_sum, oracle_compose, oracle_delta,
                                  oracle_gerstenhaber)
from stargraphs.poisson import preset_from_string, preset_poisson
from stargraphs.poly import Poly, monomials_up_to_degree, parse_poly
from stargraphs.solver import (DEFAULT_MATRIX_NONZERO_CAP, StarSeries, _bracket_pairs,
                               _solve_count_block, antisymmetric_part,
                               cocycle_kernel, eval_obstruction, kontsevich_k2,
                               mc_defect, poisson_class_sum, reparametrize,
                               solve_order, solve_up_to, triples_by_total_degree,
                               verify_order)

x = Poly.variable
CUBIC = "jacobian:x1^3 + 2*x2^3 - x1^2*x3"
SO3_TRIPLES = (
    ("x1", "x2", "x3"), ("x1^2", "x2", "x3"), ("x1*x2", "x3^2", "x1"),
    ("x2", "x1*x3", "x2^2"), ("x1^2", "x2^2", "x3^2"), ("x1*x2", "x2*x3", "x1*x3"),
    ("x1^2*x2", "x3", "x2*x3"), ("x3^2", "x1^2*x3", "x1*x2^2"),
    ("x1*x2*x3", "x1^2", "x2"))


# -- series basics -------------------------------------------------------------

def test_poisson_class_is_antisymmetric():
    p = poisson_class_sum()
    assert antisymmetric_part(p) == p


def test_series_normalization_guard():
    bad = GraphSum(2, [("2 2 ; 3: 1 2 / 4: 1 2", 1)])
    with pytest.raises(GraphError):
        StarSeries({1: bad})
    StarSeries({1: poisson_class_sum()})  # fine


def test_kontsevich_k2_weights_read_back():
    order2 = kontsevich_k2().order(2)
    # canonical representatives carry the sign of the relabeling
    assert {cls.rep.encode(): coeff for cls, coeff in order2.terms()} == {
        "2 2 ; 3: 1 2 / 4: 1 2": Fraction(1, 2),
        "2 2 ; 3: 1 2 / 4: 1 3": Fraction(1, 3),
        "2 2 ; 3: 1 2 / 4: 2 3": Fraction(-1, 3),
        "2 2 ; 3: 1 4 / 4: 2 3": Fraction(1, 6),
    }
    # the weights as printed, on the graphs as drawn
    for enc, weight in (("2 2 ; 3: 1 2 / 4: 1 2", Fraction(1, 2)),
                        ("2 2 ; 3: 1 4 / 4: 1 2", Fraction(1, 3)),
                        ("2 2 ; 3: 1 2 / 4: 3 2", Fraction(1, 3)),
                        ("2 2 ; 3: 1 4 / 4: 3 2", Fraction(-1, 6))):
        assert order2.coefficient_of(parse_graph(enc)) == weight


def test_kontsevich_k2_wheel_census():
    order2 = kontsevich_k2().order(2)
    wheels = [cls for cls, _ in order2.terms() if has_wheel(cls.rep)]
    assert len(wheels) == 1
    # the printed weight belongs to the two-cycle graph as drawn
    assert order2.coefficient_of(parse_graph("2 2 ; 3: 1 4 / 4: 3 2")) == Fraction(-1, 6)


# -- defect ---------------------------------------------------------------------

def test_defect_k1_is_empty():
    assert mc_defect(StarSeries({1: poisson_class_sum()}), 1).is_zero


def test_defect_k2_is_half_bracket():
    series = StarSeries({1: poisson_class_sum()})
    defect = mc_defect(series, 2)
    assert not defect.is_zero
    p = preset_poisson("symplectic2")
    f, g, h = x(2, 1), x(2, 2), x(2, 1) * x(2, 2)
    # (1/2)[p,p](f,g,h) = p(p(f,g),h) - p(f,p(g,h)) = 1 for these arguments
    assert apply_graph(defect, p, (f, g, h)) == Poly.const(2, 1)


def test_defect_missing_order():
    series = StarSeries({1: poisson_class_sum()})
    with pytest.raises(GraphError):
        mc_defect(series, 3)


@pytest.mark.parametrize("series", ["wheel_free", "all", "kontsevich_k2"])
def test_defect_is_half_the_ordered_bracket_sum(series):
    # mc_defect brackets each unordered pair once; the definition sums the
    # brackets of all ordered pairs a + b = k
    if series == "kontsevich_k2":
        series, orders = kontsevich_k2(), (2, 3)
    else:
        series, orders = solve_up_to(3, wheel_free=series == "wheel_free")[0], (2, 3, 4)
    for k in orders:
        total = GraphSum.zero(3)
        for a in range(1, k):
            total = total + graph_gerstenhaber(series.order(a), series.order(k - a))
        assert mc_defect(series, k) == total.scale(Fraction(1, 2))
        assert not total.is_zero


@pytest.mark.parametrize("spec", ["so3", CUBIC])
def test_order4_defect_is_half_the_operator_level_brackets(spec):
    # the evaluation route's right-hand side: the compiled graph-level defect
    # and the literal brackets of the lower orders are the same polynomials
    series, _ = solve_up_to(3)
    p = preset_from_string(spec)
    defect = mc_defect(series, 4)
    values = []
    for triple in (("x1^2", "x2", "x3"), ("x1*x2", "x3^2", "x1"),
                   ("x2^2", "x1*x3", "x2*x3")):
        args = tuple(parse_poly(f, 3) for f in triple)
        brackets = Poly.zero(3)
        for a in (1, 2, 3):
            brackets = brackets + oracle_gerstenhaber(series.order(a),
                                                      series.order(4 - a), p, args)
        value = apply_graph(defect, p, args)
        assert value == brackets.scale(Fraction(1, 2))
        values.append(value)
    assert any(not v.is_zero for v in values)


# -- order-2 verification of the printed weights --------------------------------

def test_kontsevich_k2_reverifies():
    assert verify_order(kontsevich_k2(), 2)


def test_k2_defect_vanishes_on_presets():
    series = kontsevich_k2()
    residual = graph_delta(series.order(2)) + mc_defect(series, 2)
    for p in (preset_poisson("symplectic2"), preset_poisson("so3")):
        assert compile_sum(residual, p).is_zero


@pytest.mark.parametrize("spec", ["so3", "sl2", "jacobian:x1^2*x2 + x3^3 - x1*x2*x3"])
def test_solved_residuals_vanish_at_operator_level(spec):
    series, _ = solve_up_to(3)
    p = preset_from_string(spec)
    for k in (2, 3):
        residual = graph_delta(series.order(k)) + mc_defect(series, k)
        assert compile_sum(residual, p).is_zero


# -- solver ----------------------------------------------------------------------

def test_solve_order_1():
    report = solve_order(StarSeries({}), 1)
    assert report.status == "solved"
    assert report.solution == poisson_class_sum()
    assert report.affine_dim == 0


def test_solve_orders_2_and_3():
    series, reports = solve_up_to(3)
    assert [r.status for r in reports] == ["solved", "solved", "solved"]
    assert reports[1].affine_dim == 1  # exactly the a2-line
    assert reports[2].affine_dim == 2  # frozen regression value
    assert verify_order(series, 2)
    assert verify_order(series, 3)
    # the order-2 solution is wheel-free
    assert all(not has_wheel(cls.rep) for cls, _ in series.order(2).terms())


def test_corrupted_leibniz_multiplier_fails_the_witness_check(monkeypatch):
    series, _ = solve_up_to(1)

    def corrupted(n, *args):
        block = _solve_count_block(n, *args)
        if block["generators"]:
            particular = dict(block["particular"])
            col = len(block["basis"])  # the first Leibniz multiplier
            particular[col] = particular.get(col, 0) + 1
            block["particular"] = particular
        return block

    assert solve_order(series, 2).status == "solved"
    monkeypatch.setattr(solver, "_solve_count_block", corrupted)
    with pytest.raises(AssertionError, match="witness check at order 2"):
        solve_order(series, 2)


def test_order2_solution_space_contains_poisson_line():
    series, _ = solve_up_to(2)
    for a2 in (Fraction(1), Fraction(-7, 3)):
        shifted = series.order(2) + poisson_class_sum().scale(a2)
        assert verify_order(series.with_order(2, shifted), 2)


def test_solution_matches_oracles_crosscheck():
    # [p,p](f,g,h) = -2 * delta(c2)(f,g,h) when evaluated on a Poisson preset
    series, _ = solve_up_to(2)
    p = preset_poisson("so3")
    c2 = series.order(2)
    pc = poisson_class_sum()
    monos = monomials_up_to_degree(3, 2)
    for f in monos[:4]:
        for g in monos[:4]:
            for h in monos[:4]:
                bracket = oracle_compose(pc, pc, p, (f, g, h)).scale(2)
                assert bracket == oracle_delta(c2, p, (f, g, h)).scale(-2)


def test_reparametrization_invariance():
    series, _ = solve_up_to(3)
    rng = random.Random(3)
    for _ in range(3):
        a2 = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        a3 = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        moved = reparametrize(series, {2: a2, 3: a3})
        assert antisymmetric_part(moved.order(1)) == poisson_class_sum()
        for k in (1, 2, 3):
            assert verify_order(moved, k)


def test_reparametrization_composition_rule():
    series, _ = solve_up_to(3)
    moved = reparametrize(series, {2: Fraction(1, 2)})
    # c'_2 = c_2 + (1/2) c_1, c'_3 = c_3 + 2*(1/2) c_2 + (1/4)... t^3 coeff of
    # (t + t^2/2)^2 is 2*(1/2) = 1 and of (t + t^2/2)^3 is 0 + ... check exactly
    assert moved.order(2) == series.order(2) + series.order(1).scale(Fraction(1, 2))
    # [t^3] (t + t^2/2)^2 = 1, [t^3] (t + t^2/2)^3 = ... the cube starts at t^3
    expected3 = series.order(3) + series.order(2).scale(1)
    assert moved.order(3) == expected3



# -- golden graph-level results ----------------------------------------------------

def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def _block(count, basis_size, generator_count, shape, rank, feasible):
    return {"count": count, "basis_size": basis_size,
            "generator_count": generator_count, "shape": list(shape),
            "rank": rank, "feasible": feasible}


# The same bytes for wheel-free and for all graphs: the particular solution
# picked at orders 1-3 only uses wheel-free classes.
SOLUTION_DIGESTS = [
    "bf2eb310f07ea4daddd2b5d58d1eef78a2a106f5b5a48fc7ea018041bd28ffff",
    "ca02822fdb0bbd901e9974e6d7b520727653291c3a248e48f0d1049fa7ddc469",
    "0a3f780a9bb9115374832b0e5c59083071abd97e70ab8370b38908a1f3f5f578",
]

GOLDEN = {
    True: {
        "affine_dims": [0, 1, 2],
        "order4_blocks": [
            _block(1, 1, 0, (0, 1), 0, True),
            _block(2, 3, 1, (5, 4), 4, True),
            _block(3, 12, 15, (62, 27), 26, True),
            _block(4, 74, 301, (938, 375), 351, False),
        ],
        "kernels_mod_leibniz": {3: (1, "2a10bcbb1350c765158eb9cbead96bdf7d3fc9fc4b6d41b2256787edf394a428"), 4: (12, "4b0fc894e27f954edad7682d376a586a2c8c0bb0f1f5484a2a74256388829fd5")},
    },
    False: {
        "affine_dims": [0, 2, 12],
        "order4_blocks": [
            _block(1, 1, 0, (0, 1), 0, True),
            _block(2, 4, 1, (5, 5), 4, True),
            _block(3, 30, 15, (71, 45), 35, True),
            _block(4, 331, 301, (1043, 632), 502, False),
        ],
        "kernels_mod_leibniz": {3: (10, "73d6482be8dc2bebdfe1480d8e0ed0ec5d08b9621f14c7aca5aa5e14d03dd408"), 4: (118, "a07e0de3c2741d6888f9e645c5321ac4a148df71494df94194dbd1cbf22f908a")},
    },
}


@pytest.mark.parametrize("wheel_free", [True, False])
def test_graph_level_golden(wheel_free):
    """Solutions, block summaries and Leibniz-relaxed kernels that a change
    to matrix assembly or pivoting must leave byte for byte unchanged."""
    golden = GOLDEN[wheel_free]
    series, reports = solve_up_to(3, wheel_free=wheel_free)
    assert [r.status for r in reports] == ["solved"] * 3
    assert [_digest(r.solution.to_lines()) for r in reports] == SOLUTION_DIGESTS
    assert [r.affine_dim for r in reports] == golden["affine_dims"]
    # the order-k solve assembles the same count blocks as order 4 below k
    for k, report in enumerate(reports, start=1):
        assert report.blocks == (golden["order4_blocks"][:k] if k > 1 else [])

    defect = mc_defect(series, 4)
    blocks = []
    for n in range(1, 5):
        b = _solve_count_block(n, defect.restrict_count(n), wheel_free,
                               DEFAULT_MATRIX_NONZERO_CAP)
        blocks.append(_block(n, len(b["basis"]), len(b["generators"]),
                             b["shape"], b["rank"], b["feasible"]))
    assert blocks == golden["order4_blocks"]

    for n, (dim, digest) in golden["kernels_mod_leibniz"].items():
        kernel = cocycle_kernel(n, wheel_free, modulo_leibniz=True)
        assert len(kernel) == dim
        assert _digest([vec.to_lines() for vec in kernel]) == digest

# -- kernels ---------------------------------------------------------------------

def test_cocycle_kernel_order1():
    kernel = cocycle_kernel(1, wheel_free=True)
    assert len(kernel) == 1
    assert kernel[0] == poisson_class_sum() or kernel[0] == poisson_class_sum().scale(-1)


def test_cocycle_kernel_order2_strict_wheel_free_is_zero():
    kernel = cocycle_kernel(2, wheel_free=True, modulo_leibniz=False)
    assert kernel == []
    # vacuous by emptiness: any element would have to vanish on all presets
    for vec in kernel:
        for p in (preset_poisson("so3"), preset_poisson("symplectic2")):
            assert compile_sum(vec, p).is_zero


def test_cocycle_kernel_order2_all_graphs_dimension():
    kernel = cocycle_kernel(2, wheel_free=False, modulo_leibniz=False)
    assert len(kernel) == 1  # frozen regression value: the two-cycle class


# -- evaluation route ------------------------------------------------------------

def test_eval_obstruction_k2_is_feasible():
    series, _ = solve_up_to(1)
    p = preset_poisson("so3")
    monos = monomials_up_to_degree(3, 2)
    triples = [(f, g, h) for f in monos[:5] for g in monos[:5] for h in monos[:5]]
    report = eval_obstruction(series, 2, [(p, triples)])
    assert report.status == "inconclusive"
    assert report.certificate["kind"] == "evaluated_system_feasible"


def test_eval_obstruction_single_triple_is_inconclusive():
    series, _ = solve_up_to(1)
    p = preset_poisson("so3")
    report = eval_obstruction(series, 2, [(p, [(x(3, 1), x(3, 2), x(3, 3))])])
    assert report.status == "inconclusive"


def test_eval_obstruction_rejects_unverified_fixture():
    from stargraphs.poisson import PoissonStructure
    series, _ = solve_up_to(1)
    bad = PoissonStructure(3, {(1, 2): x(3, 2), (2, 3): x(3, 1)})
    with pytest.raises(DimensionError):
        eval_obstruction(series, 2, [(bad, [(x(3, 1), x(3, 2), x(3, 3))])])


def test_eval_obstruction_accepts_hand_built_poisson_structure():
    from stargraphs.poisson import PoissonStructure
    series, _ = solve_up_to(1)
    so3 = PoissonStructure(3, {(1, 2): x(3, 3), (1, 3): -x(3, 2), (2, 3): x(3, 1)})
    report = eval_obstruction(series, 2, [(so3, [(x(3, 1), x(3, 2), x(3, 3))])])
    assert report.status == "inconclusive"


def test_monotonicity_of_growing_fixture_sets():
    series, _ = solve_up_to(1)
    p = preset_poisson("so3")
    monos = monomials_up_to_degree(3, 2)
    triples = [(f, g, h) for f in monos[:4] for g in monos[:4] for h in monos[:4]]
    small = eval_obstruction(series, 2, [(p, triples[:5])])
    large = eval_obstruction(series, 2, [(p, triples)])
    # feasibility can only shrink: a feasible large set forces feasible subsets
    if large.status == "inconclusive":
        assert small.status == "inconclusive"


def test_eval_obstruction_order4_golden_certificate():
    series, _ = solve_up_to(3, wheel_free=True)
    triples = [tuple(parse_poly(f, 3) for f in triple) for triple in SO3_TRIPLES]
    report = eval_obstruction(series, 4, fixtures=[(preset_poisson("so3"), triples)])
    assert report.status == "inconclusive"
    assert report.matrix_shape == (21, 90)
    assert report.certificate == {
        "fixtures": [{"fixture": "so3", "triples_evaluated": 9}],
        "kind": "evaluated_system_feasible",
        "policy": "explicit",
        "rank_augmented": 21,
        "rank_coefficient": 21,
        "reverified": {"inconsistent": False, "rank_augmented": 21,
                       "rank_coefficient": 21, "strategy": "markowitz"},
        "round_ranks": [21],
        "rows_collected": 21,
        "unknowns": 90,
    }


def test_eval_obstruction_fixture_growth_golden_certificate():
    # the growth policy (fixtures=None) at order 2: four unknowns, rank 3
    # after every feed, stopped by three equal ranks in the second round
    report = eval_obstruction(solve_up_to(1)[0], 2, fixtures=None, seed=7)
    assert report.status == "inconclusive"
    assert report.matrix_shape == (3, 4)
    assert report.certificate == {
        "fixtures": [
            {"fixture": "so3", "triples_evaluated": 281},
            {"fixture": "sl2", "triples_evaluated": 250},
            {"fixture": "jacobian(-3*x1^3 + 2*x1*x2^2 - 3*x1*x2*x3 - 3*x2^2*x3)",
             "triples_evaluated": 250},
            {"fixture": "jacobian(x1*x2*x3)", "triples_evaluated": 250},
            {"fixture": "so3", "triples_evaluated": 250},
            {"fixture": "sl2", "triples_evaluated": 250}],
        "kind": "evaluated_system_feasible",
        "policy": "fixture_growth",
        "rank_augmented": 3,
        "rank_coefficient": 3,
        "reverified": {"inconsistent": False, "rank_augmented": 3,
                       "rank_coefficient": 3, "strategy": "markowitz"},
        "round_ranks": [3, 3, 3, 3, 3, 3],
        "rows_collected": 3,
        "unknowns": 4,
    }


def test_eval_obstruction_order4_cubic_golden_certificate():
    series, _ = solve_up_to(3, wheel_free=True)
    p = preset_from_string(CUBIC)
    triples = list(itertools.product(monomials_up_to_degree(3, 1), repeat=3))
    assert len(triples) == 27
    report = eval_obstruction(series, 4, fixtures=[(p, triples)])
    assert report.status == "inconclusive"
    assert report.matrix_shape == (6, 90)
    assert report.certificate == {
        "fixtures": [{"fixture": "jacobian(x1^3 - x1^2*x3 + 2*x2^3)",
                      "triples_evaluated": 27}],
        "kind": "evaluated_system_feasible",
        "policy": "explicit",
        "rank_augmented": 6,
        "rank_coefficient": 6,
        "reverified": {"inconsistent": False, "rank_augmented": 6,
                       "rank_coefficient": 6, "strategy": "markowitz"},
        "round_ranks": [6],
        "rows_collected": 6,
        "unknowns": 90,
    }


def test_eval_obstruction_rows_golden(monkeypatch):
    # a sha256 over every (row, rhs) the order-4 evaluation route feeds to the
    # reducer pins the evaluated system itself, not only its rank
    fed: list[str] = []
    add_row = StreamingReducer.add_row

    def recording_add_row(self, row, rhs):
        fed.append("%s | %s\n" % (" ".join("%d:%s" % item for item in sorted(row.items())),
                                  rhs))
        return add_row(self, row, rhs)

    monkeypatch.setattr(StreamingReducer, "add_row", recording_add_row)
    series, _ = solve_up_to(3, wheel_free=True)
    so3_triples = [tuple(parse_poly(f, 3) for f in triple) for triple in SO3_TRIPLES]
    cubic_triples = list(itertools.product(monomials_up_to_degree(3, 1), repeat=3))
    hashes = {}
    for name, p, triples in (("so3", preset_poisson("so3"), so3_triples),
                             ("cubic", preset_from_string(CUBIC), cubic_triples)):
        fed.clear()
        eval_obstruction(series, 4, fixtures=[(p, triples)])
        hashes[name] = hashlib.sha256("".join(fed).encode()).hexdigest()
    assert hashes == {
        "so3": "fb750198445b301e04ebdd2f17616df0896e0294bbac8529622ac1dbb5ecf0d2",
        "cubic": "3c55c6375f64ad85c0269066ad6a5f147924385e511a1d90b6d783e40ad51fdd",
    }


@pytest.mark.parametrize("fixture", ("so3", "cubic"))
def test_scaled_right_hand_side_matches_unscaled_brackets(fixture):
    # the evaluation route brackets the integral sums D_a c_a in int
    # arithmetic and applies -1/(2^[a=b] D_a D_b) once per pair: that must
    # be -(1/2) of the ordered bracket sum of the series itself
    series, _ = solve_up_to(3, wheel_free=True)
    if fixture == "so3":
        p = preset_poisson("so3")
        triples = [tuple(parse_poly(f, 3) for f in triple) for triple in SO3_TRIPLES]
    else:
        p = preset_from_string(CUBIC)
        triples = list(itertools.product(monomials_up_to_degree(3, 1), repeat=3))
    pairs = _bracket_pairs(series, 4)
    # D_1 = 1 and D_2 = D_3 = 6: weights -1/(1*6) for (1, 3), -1/(2*6*6) for (2, 2)
    assert [weight for *_, weight in pairs] == [Fraction(-1, 6), Fraction(-1, 72)]
    for c_a, c_b, _weight in pairs:
        assert all(coeff.denominator == 1 for s in (c_a, c_b) for _, coeff in s.terms())
    nonzero = 0
    for triple in triples:
        scaled = Poly.zero(3)
        for c_a, c_b, weight in pairs:
            bracket = oracle_gerstenhaber(c_a, c_b, p, triple)
            assert all(type(c) is int for c in bracket.terms.values())
            scaled = scaled + bracket.scale(weight)
        plain = Poly.zero(3)
        for a in range(1, 4):
            plain = plain + oracle_gerstenhaber(series.order(a), series.order(4 - a), p, triple)
        assert scaled == plain.scale(Fraction(-1, 2))
        nonzero += not scaled.is_zero
    assert nonzero


def test_triples_by_total_degree_order():
    triples = list(triples_by_total_degree(2, 2))
    degrees = [f.degree() + g.degree() + h.degree() for f, g, h in triples]
    assert degrees == sorted(degrees)
    assert all(f.degree() <= 2 for f, _, _ in triples)
    fresh = list(triples_by_total_degree(2, 2, prev_cap=1))
    assert all(max(f.degree(), g.degree(), h.degree()) > 1 for f, g, h in fresh)
