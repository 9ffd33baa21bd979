import collections
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
from oracles import brute_force_columns
from stargraphs.operators import (CoboundaryColumns, apply_graph, compile_sum,
                                  oracle_compose, oracle_delta, oracle_gerstenhaber)
from stargraphs.poisson import PoissonStructure, preset_from_string, preset_poisson
from stargraphs.poly import Poly, monomials_up_to_degree, parse_poly
from stargraphs.solver import (StarSeries, _block_system, _bracket_pairs, _bracket_rhs,
                               _rows, _wheel_basis, antisymmetric_part,
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
    assert {rep.encode(): coeff for rep, coeff in order2.terms()} == {
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
    wheels = [rep for rep, _ in order2.terms() if has_wheel(rep)]
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
    assert all(not has_wheel(rep) for rep, _ in series.order(2).terms())


@pytest.mark.parametrize("strategy", ["ordered", "markowitz"])
def test_verify_order_rejects_a_perturbed_order(strategy):
    series, _ = solve_up_to(3)
    assert verify_order(series, 2, strategy)
    shift = GraphSum.single("2 2 ; 3: 1 2 / 4: 1 2")
    perturbed = series.with_order(2, series.order(2) + shift)
    assert not verify_order(perturbed, 2, strategy)


def test_orders_below_one_are_rejected():
    for k in (0, -1):
        with pytest.raises(GraphError, match="order must be >= 1"):
            solve_order(StarSeries({}), k)
        with pytest.raises(GraphError, match="max order must be >= 1"):
            solve_up_to(k)


def test_solve_order_rejects_a_missing_lower_order():
    with pytest.raises(GraphError, match="series is missing order 2"):
        solve_order(StarSeries({1: poisson_class_sum()}), 3)


def test_corrupted_leibniz_multiplier_fails_the_witness_check(monkeypatch):
    series, _ = solve_up_to(1)

    def corrupted(n, basis, *args, **kwargs):
        generators, row_count, ech = _block_system(n, basis, *args, **kwargs)
        if generators:
            particular = ech.particular_solution()
            col = len(basis)  # the first Leibniz multiplier
            particular[col] = particular.get(col, 0) + 1
            ech.particular_solution = lambda: particular
        return generators, row_count, ech

    assert solve_order(series, 2).status == "solved"
    monkeypatch.setattr(solver, "_block_system", corrupted)
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


def test_reparametrization_rejects_a_float_shift():
    # 0.1 is not the rational 1/10 in binary, so it must not be taken silently
    with pytest.raises(TypeError, match="inexact coefficient"):
        reparametrize(kontsevich_k2(), {2: 0.1})



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
        basis = _wheel_basis(n, wheel_free)
        generators, row_count, ech = _block_system(
            n, basis, True, defect.restrict_count(n).scale(-1))
        blocks.append(_block(n, len(basis), len(generators),
                             (row_count, len(basis) + len(generators)),
                             ech.rank, not ech.inconsistent))
    assert blocks == golden["order4_blocks"]

    for n, (dim, digest) in golden["kernels_mod_leibniz"].items():
        kernel = cocycle_kernel(n, wheel_free, modulo_leibniz=True)
        assert len(kernel) == dim
        assert _digest([vec.to_lines() for vec in kernel]) == digest


def test_rows_number_keys_over_the_columns_then_the_right_hand_side():
    # graph-representative keys, as _block_system passes them
    p, q, r, s = _wheel_basis(2, False)
    rows = _rows([(0, {q: 1, p: Fraction(1, 2)}), (1, {r: 3, q: -1})], {s: 5, p: 7})
    assert list(rows) == [q, p, r, s]
    assert rows == {q: {0: 1, 1: -1}, p: {0: Fraction(1, 2)}, r: {1: 3}, s: {}}
    assert list(rows[q]) == [0, 1]
    # monomial keys, as the evaluation feed passes them
    f, g, h = (parse_poly(text, 3).terms for text in ("x1^2 + 3*x2*x3", "x3 - x1^2", "x2 + x3"))
    x1x1, x2x3, x3, x2 = (next(iter(parse_poly(m, 3).terms))
                          for m in ("x1^2", "x2*x3", "x3", "x2"))
    assert list(g) == [x3, x1x1]
    rows = _rows([(2, f), (5, g)], h)
    assert list(rows) == [x1x1, x2x3, x3, x2]
    assert rows == {x1x1: {2: 1, 5: -1}, x2x3: {2: 3}, x3: {5: 1}, x2: {}}
    assert _rows([], {}) == {}


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


@pytest.mark.parametrize("spec", ("so3", "sl2", CUBIC))
@pytest.mark.parametrize("wheel_free, unknowns", [(True, 4), (False, 5)],
                         ids=["wheel_free", "all"])
def test_order2_evaluated_coboundaries_have_rank_three(spec, wheel_free, unknowns):
    # the evaluated rows of delta B_j for the arity-2 classes B_j with one or
    # two internal vertices, one row per monomial and triple as in the
    # evaluation route, have rank 3: wheel-free, the one direction left is
    # the Poisson class, the reparametrization t -> t + alpha t^2
    which = "wheel_free" if wheel_free else "all"
    basis = [rep for n in (1, 2) for rep in enumerate_graphs(n, 2, which).classes]
    assert len(basis) == unknowns
    delta = CoboundaryColumns(basis, preset_from_string(spec))
    reducer = StreamingReducer()
    for triple in triples_by_total_degree(3, 2):
        rows = {}
        for col, terms in delta.touched_terms(triple):
            for e, c in terms.items():
                rows.setdefault(e, {})[col] = c
        for e in sorted(rows):
            reducer.add_row(rows[e], 0)
    assert reducer.rank == 3


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


# sha256 of the (row, rhs) pairs that the order-4 evaluation route feeds the
# reducer on the jacobian cubic with all 27 degree-1 triples, and on so3 with
# all 216 triples of degree-2 monomials.  Both were first recorded before
# orbit reuse and integer sums entered the operator layer and before the
# feed read only the columns that a pass touches, then re-recorded when Poly
# arithmetic began to give integral values as int: the same feed with every
# value in normal form, where 12 right-hand sides of each run had been
# Fraction(k, 1)
CUBIC_ROWS_DIGEST = "5ebd7fdca68c053deb65e9899fcc4e33defb8b94704b37538c2bbf4aee4b957e"
SO3_QUADRATIC_ROWS_DIGEST = "7ccd46da2e94bcd32597425bf4e8f5a11909a9f727fd640553e7921f3961d6af"


def test_eval_obstruction_feeds_the_pinned_rows(monkeypatch):
    # the rows, their column order and their value types (int or Fraction)
    # are pinned, so a change to the operator layer must feed the same rows:
    # on the cubic with degree-1 arguments, and on so3 with degree-2 ones,
    # where most of the 90 columns vanish on every triple
    fed = []
    add_row = StreamingReducer.add_row

    def recording(self, row, rhs):
        fed.append(repr((list(row.items()), rhs)))
        return add_row(self, row, rhs)

    monkeypatch.setattr(StreamingReducer, "add_row", recording)
    series, _ = solve_up_to(3, wheel_free=True)
    p = preset_from_string(CUBIC)
    triples = list(itertools.product([x(3, i) for i in (1, 2, 3)], repeat=3))
    assert len(triples) == 27
    eval_obstruction(series, 4, fixtures=[(p, triples)])
    assert fed
    assert hashlib.sha256("\n".join(fed).encode()).hexdigest() == CUBIC_ROWS_DIGEST
    del fed[:]
    quadratic = monomials_up_to_degree(3, 2, min_degree=2)
    triples = list(itertools.product(quadratic, repeat=3))
    assert len(triples) == 216
    report = eval_obstruction(series, 4, fixtures=[(preset_poisson("so3"), triples)])
    assert (len(fed), report.certificate["rank_coefficient"]) == (1248, 16)
    assert hashlib.sha256("\n".join(fed).encode()).hexdigest() == SO3_QUADRATIC_ROWS_DIGEST


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


@pytest.mark.parametrize("policy", ["explicit", "fixture_growth"])
def test_eval_obstruction_infeasible_golden_certificate(policy):
    # an order-2 term that no order-3 choice can balance: the first so3 feed
    # turns inconsistent at its 85th triple under either policy, and growth
    # records no rank for the feed it stopped in
    series, _ = solve_up_to(2)
    bad = series.with_order(2, series.order(2) + GraphSum.single("2 2 ; 3: 1 2 / 4: 1 3"))
    if policy == "explicit":
        report = eval_obstruction(
            bad, 3, [(preset_poisson("so3"), list(triples_by_total_degree(3, 2)))])
    else:
        report = eval_obstruction(bad, 3, fixtures=None, seed=7)
    assert report.status == "obstructed"
    assert report.matrix_shape == (7, 16)
    assert report.certificate == {
        "fixtures": [{"fixture": "so3", "triples_evaluated": 85,
                      "args": ["x1", "x1*x2", "x1"]}],
        "kind": "evaluated_system_infeasible",
        "policy": policy,
        "rank_augmented": 7,
        "rank_coefficient": 6,
        "reverified": {"inconsistent": True, "rank_augmented": 7,
                       "rank_coefficient": 6, "strategy": "markowitz"},
        "round_ranks": [6] if policy == "explicit" else [],
        "rows_collected": 7,
        "unknowns": 16,
    }


def test_eval_obstruction_fixture_growth_reaches_the_last_cap(monkeypatch):
    # four triples per feed never stall, and no three recorded ranks are
    # equal, so growth feeds all three rounds of four fixtures (caps 2, 4, 8)
    everything = solver.triples_by_total_degree
    monkeypatch.setattr(solver, "triples_by_total_degree",
                        lambda *args: list(itertools.islice(everything(*args), 4)))
    report = eval_obstruction(solve_up_to(3)[0], 4, fixtures=None, seed=7)
    assert report.status == "inconclusive"
    certificate = report.certificate
    assert [feed["triples_evaluated"] for feed in certificate["fixtures"]] == [4] * 12
    assert certificate["round_ranks"] == [2, 2, 6, 6, 11, 11, 18, 18, 20, 20, 22, 22]
    assert report.matrix_shape == (22, 90)


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


def nambu4(a1, a2):
    """The d=4 Nambu structure {x_i, x_j} = sum_{k,l} eps_{ijkl} d_k a1 d_l a2."""
    entries = {}
    for i, j in itertools.combinations(range(1, 5), 2):
        k, l = [v for v in range(1, 5) if v not in (i, j)]
        inversions = sum(a > b for a, b in itertools.combinations((i, j, k, l), 2))
        bracket = a1.derive(k) * a2.derive(l) - a1.derive(l) * a2.derive(k)
        entries[i, j] = bracket.scale(-1 if inversions % 2 else 1)
    return PoissonStructure(4, entries, label="nambu4")


def test_nambu_fixture_refutes_only_the_solver_picked_c3_at_order_4():
    # with c_1..c_3 held at the solver's pick, the d=4 Nambu structure N
    # refutes the wheel-free order-4 system at its seventh triple.  The
    # certificate holds only for that c_3: no verdict may rest on it until
    # c_3 is left free in the evaluated system (order-3 rows next to the
    # order-4 ones, and one column [c_1, B_j] per order-3 basis graph)
    a1 = parse_poly("3*x1^2*x2 - 2*x3^2*x4 - x3*x4^2", 4)
    a2 = parse_poly("-3*x1^2 + 2*x2*x3 + 2*x2*x4", 4)
    n = nambu4(a1, a2)
    assert n.is_poisson
    series, _ = solve_up_to(3, wheel_free=True)
    report = eval_obstruction(series, 4, fixtures=[(n, list(triples_by_total_degree(4, 2)))])
    assert report.status == "obstructed"
    assert report.matrix_shape == (11, 90)
    certificate = report.certificate
    assert (certificate["rank_coefficient"], certificate["rank_augmented"]) == (10, 11)
    assert certificate["fixtures"] == [
        {"fixture": "nambu4", "triples_evaluated": 7, "args": ["x1", "x2", "x3"]}]


@pytest.mark.parametrize("specs, triples, rank", [
    ((CUBIC,), list(itertools.product(monomials_up_to_degree(3, 1), repeat=3)), 6),
    (("so3", "sl2"), list(triples_by_total_degree(3, 2)), 18),
], ids=["cubic", "so3_sl2"])
def test_eval_certificate_is_invariant_under_reparametrization(specs, triples, rank):
    # wheel-free, the order-2 freedom is the reparametrization
    # t -> t + alpha t^2 (c_2 -> c_2 + alpha c_1, c_3 -> c_3 + 2 alpha c_2 +
    # alpha^2 c_1); the evaluated order-4 certificate does not depend on it
    series, _ = solve_up_to(3, wheel_free=True)
    fixtures = [(preset_from_string(spec), triples) for spec in specs]
    certificate = eval_obstruction(series, 4, fixtures=fixtures).certificate
    assert certificate["rank_coefficient"] == rank
    for alpha in (1, Fraction(-3, 7)):
        moved = reparametrize(series, {2: alpha})
        assert moved.order(2) != series.order(2)
        assert eval_obstruction(moved, 4, fixtures=fixtures).certificate == certificate


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


def typed_terms(poly):
    """The terms of a Poly with the type of each coefficient."""
    return {e: (type(c), c) for e, c in poly.terms.items()}


def oracle_rhs(lower, p, triple):
    """sum weight * oracle_gerstenhaber over the bracket pairs, in order."""
    total = Poly.zero(p.d)
    for c_a, c_b, weight in lower:
        total = total + oracle_gerstenhaber(c_a, c_b, p, triple).scale(weight)
    return total


@pytest.mark.parametrize("spec", ("so3", "sl2", CUBIC))
def test_memoized_right_hand_side_matches_the_oracle_brackets(spec):
    # the inner values cached on one structure over every triple of degree
    # <= 2 arguments, as in one feed: equal values and value types to the
    # oracle on a structure of its own, so no cached value feeds both sides
    series, _ = solve_up_to(3, wheel_free=True)
    lower = _bracket_pairs(series, 4)
    p, q = preset_from_string(spec), preset_from_string(spec)
    nonzero = 0
    for triple in itertools.product(monomials_up_to_degree(3, 2), repeat=3):
        value = _bracket_rhs(lower, p, triple)
        assert typed_terms(value) == typed_terms(oracle_rhs(lower, q, triple))
        nonzero += not value.is_zero
    assert nonzero
    # 9 * 9 argument pairs, each with the inner values of c_1, c_2 and c_3
    assert len(p._value_cache) == 3 * 81


@pytest.mark.parametrize("memo", ("products", "inner_values"))
def test_memos_hold_their_arguments_against_id_reuse(memo):
    # fresh Polys are made and dropped in a loop; a cache keyed by id that
    # did not hold its arguments would serve a new Poly that took a dropped
    # one's id the stale product or inner value.  The caches are keyed by
    # value, and the references are built on structures of their own.  One
    # cache per run: either cache holds the triples, so it would hide the
    # other's reuse
    p = preset_poisson("so3")
    if memo == "products":
        columns = [GraphSum.single(rep) for n in (1, 2)
                   for rep in enumerate_graphs(n, 2, "wheel_free").classes]
        delta = CoboundaryColumns(columns, p)
        reference = brute_force_columns(columns, preset_poisson("so3"))

        def check(triple):
            assert delta.values(triple) == reference(triple)
    else:
        series, _ = solve_up_to(3, wheel_free=True)
        lower = _bracket_pairs(series, 4)
        q = preset_poisson("so3")

        def check(triple):
            assert _bracket_rhs(lower, p, triple) == oracle_rhs(lower, q, triple)
    rng = random.Random(83)
    exponents = [f.sorted_terms()[0][0] for f in monomials_up_to_degree(3, 2)]
    for _ in range(60):
        triple = tuple(Poly.monomial(3, rng.choice(exponents), rng.choice((-3, -2, -1, 1, 2, 3)))
                       for _ in range(3))
        check(triple)
        # dropped before the next Polys are made, so they may take its ids
        del triple


def test_eval_obstruction_differentiates_each_argument_once_per_multi_index(monkeypatch):
    # triples over a pool of shared monomials on two fixtures: every
    # argument object (products and inner bracket values included) is
    # differentiated at most once per multi-index during the feed
    series, _ = solve_up_to(3, wheel_free=True)
    pool = monomials_up_to_degree(3, 2)
    rng = random.Random(89)
    triples = [tuple(rng.choice(pool) for _ in range(3)) for _ in range(40)]
    calls = collections.Counter()
    held = []  # every differentiated object stays alive, so no id is reused
    derive_multi = Poly.derive_multi

    def counting(self, alpha):
        held.append(self)
        calls[id(self), tuple(alpha)] += 1
        return derive_multi(self, alpha)

    monkeypatch.setattr(Poly, "derive_multi", counting)
    eval_obstruction(series, 4, fixtures=[(preset_poisson("so3"), triples),
                                          (preset_poisson("sl2"), triples)])
    assert calls and max(calls.values()) == 1
    assert any(id(f) == key for f in pool for key, _alpha in calls)


def test_triples_by_total_degree_order():
    triples = list(triples_by_total_degree(2, 2))
    degrees = [f.degree() + g.degree() + h.degree() for f, g, h in triples]
    assert degrees == sorted(degrees)
    assert all(f.degree() <= 2 for f, _, _ in triples)
    fresh = list(triples_by_total_degree(2, 2, prev_cap=1))
    assert all(max(f.degree(), g.degree(), h.degree()) > 1 for f, g, h in fresh)
