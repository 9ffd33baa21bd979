import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (grafted_graphs, jacobiator_graphs, labelled_expand_jacobiator_vertex,
                     labelled_graph_compose, labelled_graph_delta, labelled_graph_gerstenhaber,
                     product_order_leibniz_generators, transcribed_jacobiator_graphs)
from stargraphs.errors import BudgetExceededError, GraphError
from stargraphs.graphs import (DEFAULT_VERTEX_BUDGET, DirectedGraph, GraphSum,
                              enumerate_graphs, has_wheel, parse_graph)
from stargraphs.homology import (LeibnizGenerator, expand_jacobiator_vertex, graph_compose,
                                 graph_delta, graph_gerstenhaber, leibniz_generators)
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
    pool = [rep for n in (1, 2, 3) for rep in enumerate_graphs(n, 2).classes]
    for _ in range(10):
        s = rand_sum(rng, pool)
        assert graph_delta(graph_delta(s)).is_zero


def test_delta_matches_oracle_on_random_sums():
    rng = random.Random(13)
    pool = [rep for n in (1, 2) for rep in enumerate_graphs(n, 2).classes]
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
    assert all(rep.n == 2 for rep, _ in comp.terms())
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
    pool = [rep for n in (1, 2) for rep in enumerate_graphs(n, 2).classes]
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
    into1 = GraphSum(3, [(g, 1) for g in grafted_graphs(g1, 1, g2)])
    into2 = GraphSum(3, [(g, 1) for g in grafted_graphs(g1, 2, g2)])
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
    assert all(rep.n == 2 for rep, _ in br.terms())


def test_bracket_antisymmetry_odd_degree():
    rng = random.Random(19)
    pool = [rep for n in (1, 2) for rep in enumerate_graphs(n, 2).classes]
    for _ in range(5):
        s1 = rand_sum(rng, pool)
        s2 = rand_sum(rng, pool)
        # degree-1 elements: [s1,s2] = -(-1)^{1*1}[s2,s1] = +[s2,s1]
        assert graph_gerstenhaber(s1, s2) == graph_gerstenhaber(s2, s1)


def test_bracket_matches_oracle():
    rng = random.Random(23)
    pool = [rep for n in (1, 2) for rep in enumerate_graphs(n, 2).classes]
    for _ in range(5):
        s1 = rand_sum(rng, pool)
        s2 = rand_sum(rng, pool)
        br = graph_gerstenhaber(s1, s2)
        for p in presets():
            args = rand_args(rng, p.d, 3)
            assert apply_graph(br, p, args) == oracle_gerstenhaber(s1, s2, p, args)


def test_graded_jacobi_identity_at_operator_level():
    rng = random.Random(29)
    pool = [rep for n in (1, 2) for rep in enumerate_graphs(n, 2).classes]
    p = preset_poisson("so3")
    for _ in range(3):
        a, b, c = (rand_sum(rng, pool) for _ in range(3))
        lhs = (graph_gerstenhaber(graph_gerstenhaber(a, b), c)
               + graph_gerstenhaber(graph_gerstenhaber(b, c), a)
               + graph_gerstenhaber(graph_gerstenhaber(c, a), b))
        args = rand_args(rng, 3, 4, max_degree=2)
        assert apply_graph(lhs, p, args).is_zero
        assert lhs == GraphSum.zero(4)


def test_delta_agrees_with_product_bracket_at_operator_level():
    # delta C = m0 o C - (-1)^k C o m0, expanded literally with the product
    rng = random.Random(31)
    pool = [rep for n in (1, 2) for rep in enumerate_graphs(n, 2).classes]
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


# -- counted graph-level algebra against one term per labelled graph ------------

# classes of K_{n,m} by arity m, mixing internal counts (K_{1,3} is empty)
COUNTED_POOLS = {m: [rep for n in ns for rep in enumerate_graphs(n, m).classes]
                 for m, ns in ((1, (1, 2, 3)), (2, (1, 2, 3)), (3, (2, 3)))}
# few distinct values, so that classes reached from different terms cancel
CANCELLING = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2))


def relabelled(rng, g, swaps=True):
    """An isomorphic labelled copy of g: internal vertices permuted and, when
    ``swaps``, pairs swapped at random (which may flip its sign)."""
    order = list(range(g.n))
    rng.shuffle(order)
    new_id = {g.m + 1 + old: g.m + 1 + new for new, old in enumerate(order)}
    pairs = [None] * g.n
    for old, (left, right) in enumerate(g.out_edges):
        pair = (new_id.get(left, left), new_id.get(right, right))
        pairs[order.index(old)] = pair[::-1] if swaps and rng.random() < 0.5 else pair
    return DirectedGraph(g.n, g.m, tuple(pairs))


def cancelling_sum(rng, arity, max_terms=3):
    return GraphSum(arity, [(relabelled(rng, rng.choice(COUNTED_POOLS[arity])),
                             rng.choice(CANCELLING))
                            for _ in range(rng.randint(1, max_terms))])


def test_counted_delta_matches_labelled_oracle():
    rng = random.Random(37)
    for arity in (1, 2, 3):
        for _ in range(6):
            s = cancelling_sum(rng, arity)
            ds = graph_delta(s)
            assert ds == labelled_graph_delta(s)
            assert graph_delta(ds) == labelled_graph_delta(ds) == GraphSum.zero(arity + 2)


def test_counted_compose_and_bracket_match_labelled_oracles():
    rng = random.Random(41)
    for m1, m2 in itertools.product((1, 2, 3), repeat=2):
        for _ in range(3 if m1 + m2 < 6 else 1):
            s1 = cancelling_sum(rng, m1)
            s2 = cancelling_sum(rng, m2, max_terms=2 if m1 + m2 > 4 else 3)
            assert graph_compose(s1, s2) == labelled_graph_compose(s1, s2)
            assert graph_gerstenhaber(s1, s2) == labelled_graph_gerstenhaber(s1, s2)
    for arity in (1, 3):
        # k = arity - 1 is even, so [s, s] = s o s - s o s cancels completely
        s = cancelling_sum(rng, arity, max_terms=2)
        assert graph_gerstenhaber(s, s) == labelled_graph_gerstenhaber(s, s)
        assert graph_gerstenhaber(s, s) == GraphSum.zero(2 * arity - 1)


@pytest.mark.parametrize("n_total, m", [(2, 3), (3, 3), (3, 2), (4, 2), (4, 1)])
def test_counted_jacobiator_expansion_matches_labelled_oracle(n_total, m):
    # every skeleton that covers the arguments, both orientations of every
    # ordinary pair; with two ordinary vertices some expansions vanish
    n_ord = n_total - 2
    special_id = m + n_ord + 1
    ids = range(1, special_id + 1)
    options = [[(a, b) for a in ids for b in ids if a != b and m + 1 + pos not in (a, b)]
               for pos in range(n_ord)]
    checked = vanishing = 0
    for triple in itertools.combinations(range(1, special_id), 3):
        for ordinary in itertools.product(*options):
            covered = {t for t in triple if t <= m}
            covered.update(t for pair in ordinary for t in pair if t <= m)
            if len(covered) != m:
                continue
            expansion = expand_jacobiator_vertex(m, ordinary, triple)
            assert expansion == labelled_expand_jacobiator_vertex(m, ordinary, triple)
            assert (jacobiator_graphs(m, ordinary, triple)
                    == transcribed_jacobiator_graphs(m, ordinary, triple))
            checked += 1
            vanishing += expansion.is_zero
    assert checked
    assert bool(vanishing) == (n_total == 4)


@st.composite
def fractional_sums(draw, arity, max_terms=3):
    """Sums of relabelled pool graphs with non-integral coefficients."""
    rng = draw(st.randoms(use_true_random=False))
    coeffs = draw(st.lists(st.fractions(-4, 4, max_denominator=12)
                           .filter(lambda c: c.denominator > 1), min_size=1, max_size=max_terms))
    return GraphSum(arity, [(relabelled(rng, rng.choice(COUNTED_POOLS[arity])), c)
                            for c in coeffs])


def assert_same_fraction_sum(result, reference):
    assert result == reference
    assert all(type(coeff) is Fraction for _, coeff in result.terms())


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(1, 3).flatmap(fractional_sums))
def test_integer_delta_matches_labelled_oracle_on_fraction_sums(s):
    assert_same_fraction_sum(graph_delta(s), labelled_graph_delta(s))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (2, 3), (3, 2)])
       .flatmap(lambda arities: st.tuples(fractional_sums(arities[0]),
                                          fractional_sums(arities[1], max_terms=2))))
def test_integer_compose_and_bracket_match_labelled_oracles_on_fraction_sums(sums):
    s1, s2 = sums
    assert_same_fraction_sum(graph_compose(s1, s2), labelled_graph_compose(s1, s2))
    assert_same_fraction_sum(graph_gerstenhaber(s1, s2), labelled_graph_gerstenhaber(s1, s2))


@pytest.mark.parametrize("n_total, m", [(2, 3), (3, 2), (4, 2)])
def test_integer_jacobiator_expansion_matches_labelled_oracle_on_generators(n_total, m):
    for gen in leibniz_generators(n_total, m):
        args = (m, gen.ordinary_out, gen.special_out)
        assert_same_fraction_sum(expand_jacobiator_vertex(*args),
                                 labelled_expand_jacobiator_vertex(*args))


def test_merged_sums_equal_constructed_sums():
    rng = random.Random(43)
    for arity in (1, 2, 3):
        for _ in range(5):
            a, b, c = (cancelling_sum(rng, arity) for _ in range(3))
            weight = rng.choice(CANCELLING) * 3
            merged = a + b.scale(weight) - c
            built = GraphSum(arity, [(relabelled(rng, rep, swaps=False), coeff * w)
                                     for s, w in ((a, 1), (b, weight), (c, -1))
                                     for rep, coeff in s.terms()])
            assert merged == built
            assert merged.terms() == built.terms()
            assert hash(merged) == hash(built)
            assert merged.to_lines() == built.to_lines()
            for n in merged.internal_counts():
                part = merged.restrict_count(n)
                assert part == GraphSum(arity, [
                    (rep, coeff) for rep, coeff in built.terms() if rep.n == n])
            assert (a + a.scale(-1)).is_zero
            assert a - a == GraphSum.zero(arity)
            assert a.scale(0) == GraphSum.zero(arity)
            assert a + GraphSum.zero(arity) == a


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
        assert all(not has_wheel(rep) for rep, _ in gen.expansion.terms())


def test_generator_validation():
    with pytest.raises(GraphError):
        leibniz_generators(1, 3)
    # a skeleton has n_total - 1 + m vertices, one more than the budget here
    with pytest.raises(BudgetExceededError):
        leibniz_generators(DEFAULT_VERTEX_BUDGET - 1, 3)


@pytest.mark.parametrize("wheel_free", [False, True], ids=["all", "wheel_free"])
@pytest.mark.parametrize("n_total, m", [(2, 3), (3, 3), (4, 3), (3, 2), (4, 2),
                                        (3, 4), (2, 1), (3, 1), (4, 1)])
def test_sorted_pairs_give_the_all_pairs_generators(n_total, m, wheel_free):
    expected = product_order_leibniz_generators(n_total, m, wheel_free, both_orientations=True)
    assert list(leibniz_generators(n_total, m, wheel_free)) == expected


@pytest.mark.parametrize("n_total, m, wheel_free", [(3, 3, False), (4, 2, False), (4, 3, False),
                                                    (4, 3, True), (5, 2, False), (3, 4, False)])
def test_skipping_relabeled_skeletons_keeps_the_generators(n_total, m, wheel_free):
    expected = product_order_leibniz_generators(n_total, m, wheel_free)
    assert list(leibniz_generators(n_total, m, wheel_free)) == expected


def test_generators_are_built_once_per_argument():
    assert leibniz_generators(3, 3) is leibniz_generators(3, 3)
