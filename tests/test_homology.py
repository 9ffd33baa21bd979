import random
from fractions import Fraction

import pytest

from stargraphs.errors import BudgetExceededError, GraphError
from stargraphs.graphs import (DEFAULT_VERTEX_BUDGET, GraphSum, enumerate_graphs, has_wheel,
                              parse_graph)
from stargraphs.homology import (LeibnizGenerator, expand_jacobiator_vertex,
                                 graft_terms, graph_compose, graph_delta,
                                 graph_gerstenhaber, leibniz_generators)
from stargraphs.operators import (apply_graph, compile_sum, oracle_compose,
                                  oracle_delta, oracle_gerstenhaber)
from stargraphs.poisson import PoissonStructure, preset_poisson
from stargraphs.poly import Poly, monomials_up_to_degree

x = Poly.variable
POISSON = "1 2 ; 3: 1 2"
SYMMETRIC = "2 2 ; 3: 1 2 / 4: 1 2"


def presets():
    return [preset_poisson("symplectic2"), preset_poisson("so3"),
            preset_poisson("jacobian", Poly.monomial(3, (1, 1, 1)))]


def rand_sum(rng, pool, arity=2, max_terms=3):
    terms = [(rng.choice(pool), Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
             for _ in range(rng.randint(1, max_terms))]
    return GraphSum(arity, terms)


def rand_args(rng, d, count, max_degree=3):
    monos = monomials_up_to_degree(d, max_degree)
    return tuple(rng.choice(monos) for _ in range(count))


# -- graph_delta ---------------------------------------------------------------

def test_delta_poisson_class_is_empty():
    assert graph_delta(GraphSum.single(POISSON)).is_zero


def test_delta_symmetric_graph_shape_and_value():
    dS = graph_delta(GraphSum.single(SYMMETRIC))
    # the four labeled split terms merge into two classes with weights +-2
    assert len(dS) == 2
    assert dS.arity == 3
    coeffs = sorted(coeff for _, coeff in dS.terms())
    assert coeffs == [-2, 2]
    p = preset_poisson("so3")
    args = (x(3, 1) * x(3, 1), x(3, 2) * x(3, 2), x(3, 3) * x(3, 3))
    assert apply_graph(dS, p, args) == oracle_delta(GraphSum.single(SYMMETRIC), p, args)


def test_delta_squared_vanishes_at_graph_level():
    rng = random.Random(11)
    pool = [cls.rep for n in (1, 2, 3) for cls in enumerate_graphs(n, 2).classes]
    for _ in range(10):
        s = rand_sum(rng, pool)
        assert graph_delta(graph_delta(s)).is_zero


def test_delta_matches_oracle_on_random_sums():
    rng = random.Random(13)
    pool = [cls.rep for n in (1, 2) for cls in enumerate_graphs(n, 2).classes]
    for _ in range(8):
        s = rand_sum(rng, pool)
        ds = graph_delta(s)
        for p in presets():
            args = rand_args(rng, p.d, 3)
            assert apply_graph(ds, p, args) == oracle_delta(s, p, args)


# -- graph_compose --------------------------------------------------------------

def test_compose_poisson_with_poisson():
    s = GraphSum.single(POISSON)
    comp = graph_compose(s, s)
    assert comp.arity == 3
    assert all(cls.rep.n == 2 for cls, _ in comp.terms())
    for p in presets():
        rng = random.Random(3)
        args = rand_args(rng, p.d, 3)
        assert apply_graph(comp, p, args) == oracle_compose(s, s, p, args)


def test_compose_with_zero_is_zero():
    s = GraphSum.single(POISSON)
    z = GraphSum.zero(1)
    assert graph_compose(s, z).is_zero
    assert graph_compose(z, s).is_zero


def test_compose_matches_oracle_on_random_sums():
    rng = random.Random(17)
    pool = [cls.rep for n in (1, 2) for cls in enumerate_graphs(n, 2).classes]
    for _ in range(6):
        s1 = rand_sum(rng, pool)
        s2 = rand_sum(rng, pool)
        comp = graph_compose(s1, s2)
        assert comp.arity == s1.arity + s2.arity - 1
        for p in presets():
            args = rand_args(rng, p.d, comp.arity)
            assert apply_graph(comp, p, args) == oracle_compose(s1, s2, p, args)


def test_graft_slot_transposition_symmetry():
    g1 = parse_graph(POISSON)
    g2 = parse_graph(POISSON)
    into1 = GraphSum(3, [(g, 1) for g in graft_terms(g1, 1, g2)])
    into2 = GraphSum(3, [(g, 1) for g in graft_terms(g1, 2, g2)])
    # slot-1 graft arguments are (inner1, inner2, outer2), slot-2 graft
    # arguments are (outer1, inner1, inner2): the cyclic slot relabeling
    # 1 -> 2, 2 -> 3, 3 -> 1 carries one onto the other, up to the sign of
    # re-aiming the host's other (transposed) edge
    assert into1.permute_args((2, 3, 1)) == into2.scale(-1)


# -- Gerstenhaber bracket --------------------------------------------------------

def test_bracket_of_poisson_is_nonzero_in_k23():
    s = GraphSum.single(POISSON)
    br = graph_gerstenhaber(s, s)
    assert not br.is_zero
    assert br.arity == 3
    assert all(cls.rep.n == 2 for cls, _ in br.terms())


def test_bracket_antisymmetry_odd_degree():
    rng = random.Random(19)
    pool = [cls.rep for n in (1, 2) for cls in enumerate_graphs(n, 2).classes]
    for _ in range(5):
        s1 = rand_sum(rng, pool)
        s2 = rand_sum(rng, pool)
        # degree-1 elements: [s1,s2] = -(-1)^{1*1}[s2,s1] = +[s2,s1]
        assert graph_gerstenhaber(s1, s2) == graph_gerstenhaber(s2, s1)


def test_bracket_matches_oracle():
    rng = random.Random(23)
    pool = [cls.rep for n in (1, 2) for cls in enumerate_graphs(n, 2).classes]
    for _ in range(5):
        s1 = rand_sum(rng, pool)
        s2 = rand_sum(rng, pool)
        br = graph_gerstenhaber(s1, s2)
        for p in presets():
            args = rand_args(rng, p.d, 3)
            assert apply_graph(br, p, args) == oracle_gerstenhaber(s1, s2, p, args)


def test_graded_jacobi_identity_at_operator_level():
    rng = random.Random(29)
    pool = [cls.rep for n in (1, 2) for cls in enumerate_graphs(n, 2).classes]
    p = preset_poisson("so3")
    for _ in range(3):
        a, b, c = (rand_sum(rng, pool) for _ in range(3))
        lhs = (graph_gerstenhaber(graph_gerstenhaber(a, b), c)
               + graph_gerstenhaber(graph_gerstenhaber(b, c), a)
               + graph_gerstenhaber(graph_gerstenhaber(c, a), b))
        args = rand_args(rng, 3, 4, max_degree=2)
        assert apply_graph(lhs, p, args).is_zero


def test_delta_agrees_with_product_bracket_at_operator_level():
    # delta C = m0 o C - (-1)^k C o m0, expanded literally with the product
    rng = random.Random(31)
    pool = [cls.rep for n in (1, 2) for cls in enumerate_graphs(n, 2).classes]
    p = preset_poisson("so3")
    for _ in range(5):
        s = rand_sum(rng, pool)
        args = rand_args(rng, 3, 3)
        m = 2

        def C(fs):
            return apply_graph(s, p, fs)

        f0, f1, f2 = args
        m0_after_c = C((f0, f1)) * f2 + (f0 * C((f1, f2))).scale((-1) ** (m - 1))
        c_after_m0 = C((f0 * f1, f2)) - C((f0, f1 * f2))
        bracket_value = m0_after_c - c_after_m0.scale((-1) ** (m - 1))
        assert bracket_value == oracle_delta(s, p, args)
        assert bracket_value == apply_graph(graph_delta(s), p, args)


# -- Leibniz generators ----------------------------------------------------------

def test_bare_jacobiator_generator():
    gens = leibniz_generators(2, 3)
    assert len(gens) == 1
    gen = gens[0]
    assert len(gen.expansion) == 3
    assert gen.expansion.arity == 3
    for p in presets():
        assert compile_sum(gen.expansion, p).is_zero
    bad = PoissonStructure(3, {(1, 2): x(3, 2), (2, 3): x(3, 1)})
    assert not compile_sum(gen.expansion, bad).is_zero


def test_generator_census_3_3():
    gens = leibniz_generators(3, 3)
    assert len(gens) == 15  # frozen census after expansion-direction dedupe
    for gen in gens:
        assert compile_sum(gen.expansion, preset_poisson("so3")).is_zero
        assert compile_sum(gen.expansion,
                           preset_poisson("jacobian", Poly.monomial(3, (1, 1, 1)))).is_zero


def test_generator_expansions_nonzero_sums():
    for gen in leibniz_generators(3, 3):
        assert not gen.expansion.is_zero


def test_expansion_redistributes_incoming_edges():
    # one ordinary vertex feeding the special vertex: the expansion has
    # 3 cyclic terms x 2 redistribution targets = 6 labeled terms
    # (arguments 1..3, ordinary vertex 4, special vertex 5)
    ordinary = ((1, 5),)
    expansion = expand_jacobiator_vertex(3, ordinary, (1, 2, 3))
    assert expansion.arity == 3
    # redistribution linearity: splitting by hand over the two new vertices
    total = GraphSum.zero(3)
    for target_pos in (0, 1):
        terms = []
        for rot in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
            a_id, b_id = 5, 6
            head, mid, tail = rot
            pairs = [(1, a_id if target_pos == 0 else b_id),
                     (head, b_id), (mid, tail)]
            terms.append((("3 3 ; 4: %d %d / 5: %d %d / 6: %d %d"
                           % (pairs[0][0], pairs[0][1], pairs[1][0], pairs[1][1],
                              pairs[2][0], pairs[2][1])), 1))
        total = total + GraphSum(3, terms)
    assert total == expansion


def test_wheel_free_expansion_filter():
    all_gens = leibniz_generators(3, 3)
    filtered = leibniz_generators(3, 3, wheel_free_expansions=True)
    assert len(filtered) <= len(all_gens)
    for gen in filtered:
        assert all(not has_wheel(cls.rep) for cls, _ in gen.expansion.terms())


def test_generator_validation():
    with pytest.raises(GraphError):
        leibniz_generators(1, 3)
    # a skeleton has n_total - 1 + m vertices, one more than the budget here
    with pytest.raises(BudgetExceededError):
        leibniz_generators(DEFAULT_VERTEX_BUDGET - 1, 3)
