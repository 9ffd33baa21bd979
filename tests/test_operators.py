import functools
import itertools
import random
from fractions import Fraction

import pytest

from oracles import (brute_force_apply, brute_force_columns, brute_force_compile_graph,
                     reference_operator, transcribed_tridiff)
from stargraphs.errors import DimensionError
from stargraphs import graphs as graphs_module, operators
from stargraphs.graphs import (DirectedGraph, GraphSum, canonical_form, enumerate_graphs,
                               parse_graph, zero_classes)
from stargraphs.operators import (CoboundaryColumns, PolyDiffOperator, apply_graph,
                                  compile_graph, compile_sum, oracle_compose, oracle_delta,
                                  oracle_gerstenhaber)
from stargraphs.homology import graph_delta
from stargraphs.poisson import PoissonStructure, preset_from_string, preset_poisson
from stargraphs.poly import EXPONENT_BOUND, Poly, monomials_up_to_degree, parse_poly
from stargraphs.solver import mc_defect, solve_up_to

x = Poly.variable
POISSON = "1 2 ; 3: 1 2"
TRIDIFF = "4 3 ; 4: 1 5 / 5: 2 6 / 6: 5 3 / 7: 4 2"
SYMMETRIC = "2 2 ; 3: 1 2 / 4: 1 2"


def so3():
    return preset_poisson("so3")


def flip_first_pair(g):
    pairs = list(g.out_edges)
    pairs[0] = pairs[0][::-1]
    return DirectedGraph(g.n, g.m, tuple(pairs))


def mono_args(rng, d, count, max_degree=3):
    monos = monomials_up_to_degree(d, max_degree)
    return tuple(rng.choice(monos) for _ in range(count))


# -- apply_graph --------------------------------------------------------------

def test_poisson_bracket_on_so3():
    assert apply_graph(parse_graph(POISSON), so3(), (x(3, 1), x(3, 2))) == x(3, 3)


def test_tridiff_matches_transcription_on_so3():
    p = so3()
    args = (x(3, 1), x(3, 2), x(3, 3))
    value = apply_graph(parse_graph(TRIDIFF), p, args)
    assert value == transcribed_tridiff(p, *args)
    assert value.is_zero  # two derivatives land on linear entries


def test_tridiff_matches_transcription_nonzero():
    p = preset_poisson("jacobian", parse_poly("x1^3+x2^3+x1*x2*x3", 3))
    args = (x(3, 1) * x(3, 1), x(3, 2) * x(3, 2), x(3, 3))
    value = apply_graph(parse_graph(TRIDIFF), p, args)
    assert value == transcribed_tridiff(p, *args)
    assert value == parse_poly("12*x1^4*x2 + 4*x1^2*x2^2*x3", 3)


def test_antisymmetrized_pair_evaluates_to_zero():
    s = GraphSum(2, [("1 2 ; 3: 1 2", 1), ("1 2 ; 3: 2 1", 1)])
    assert s.is_zero
    assert apply_graph(s, so3(), (x(3, 1) * x(3, 2), x(3, 3))).is_zero


def test_multilinearity():
    rng = random.Random(17)
    p = so3()
    g = parse_graph(SYMMETRIC)
    for _ in range(5):
        f1, f2, h = mono_args(rng, 3, 3)
        a, b = Fraction(2, 3), Fraction(-5)
        lhs = apply_graph(g, p, (f1.scale(a) + f2.scale(b), h))
        rhs = apply_graph(g, p, (f1, h)).scale(a) + apply_graph(g, p, (f2, h)).scale(b)
        assert lhs == rhs


def test_coefficient_linearity():
    p = so3()
    g = parse_graph(SYMMETRIC)
    s = GraphSum.single(g, Fraction(3, 7))
    args = (x(3, 1) * x(3, 1), x(3, 2) * x(3, 3))
    assert apply_graph(s, p, args) == apply_graph(g, p, args).scale(Fraction(3, 7))


def test_canonical_sign_semantics():
    rng = random.Random(19)
    p = so3()
    classes = enumerate_graphs(2, 2).classes + enumerate_graphs(3, 2).classes[:6]
    for g in classes:
        flipped = flip_first_pair(g)
        args = mono_args(rng, 3, 2)
        assert apply_graph(flipped, p, args) == -apply_graph(g, p, args)
        assert canonical_form(flipped) == (g, -1)


def test_sign_zero_class_is_zero_operator():
    rng = random.Random(43)
    p = preset_poisson("jacobian", parse_poly("x1^2*x2 + x3^3 - x1*x2*x3", 3))
    for rep in zero_classes(3, 2):
        op = compile_graph(rep, p)
        assert op.is_zero or all(
            op.apply(mono_args(rng, 3, 2)).is_zero for _ in range(3))
        assert apply_graph(rep, p, (x(3, 1) * x(3, 2), x(3, 3) * x(3, 3))).is_zero


def test_dimension_and_arity_guards():
    p = so3()
    with pytest.raises(DimensionError):
        apply_graph(parse_graph(POISSON), p, (x(3, 1),))
    with pytest.raises(DimensionError):
        apply_graph(parse_graph(POISSON), p, (x(2, 1), x(2, 2)))
    with pytest.raises(DimensionError):
        oracle_delta(GraphSum.single(POISSON), p, (x(3, 1), x(3, 2)))
    with pytest.raises(DimensionError):
        oracle_delta(GraphSum.single(POISSON), p, (x(2, 1), x(2, 2), x(2, 1)))
    with pytest.raises(DimensionError):
        CoboundaryColumns([GraphSum.single(POISSON), GraphSum.single(TRIDIFF)], p)
    with pytest.raises(TypeError):
        apply_graph(canonical_form(parse_graph(POISSON)), p, (x(3, 1), x(3, 2)))


# -- compile_graph and apply against the brute-force oracles ------------------

ORACLE_FIXTURES = ("so3", "sl2", "symplectic2", "jacobian:x1^2*x2 + x3^3 - x1*x2*x3",
                   "free2:2/3*x1^2*x2 - 1/2*x2^3")


def small_classes():
    """Every class of K_{n,2} (n <= 3, all and wheel-free) and K_{n,3} (n <= 2)."""
    for n in (1, 2, 3):
        for which in ("all", "wheel_free"):
            yield from enumerate_graphs(n, 2, which).classes
    yield from enumerate_graphs(2, 3).classes  # K_{1,3} is empty


@pytest.mark.parametrize("spec", ORACLE_FIXTURES)
def test_compile_graph_matches_brute_force_small(spec):
    p = preset_from_string(spec)
    for rep in small_classes():
        for g in (rep, flip_first_pair(rep)):
            assert compile_graph(g, p).terms == brute_force_compile_graph(g, p).terms


@pytest.mark.parametrize("spec", ORACLE_FIXTURES)
def test_compile_graph_matches_brute_force_k42_wheel_free(spec):
    p = preset_from_string(spec)
    classes = enumerate_graphs(4, 2, "wheel_free").classes
    assert len(classes) == 74
    for rep in classes:
        assert compile_graph(rep, p).terms == brute_force_compile_graph(rep, p).terms


def rational_args(rng, d, count):
    """Multi-term arguments with rational coefficients; some are constant,
    linear or free of a variable, so that some of their derivatives vanish."""
    monos = monomials_up_to_degree(d, 3, min_degree=0)
    args = []
    for _ in range(count):
        kind = rng.randrange(4)
        if kind == 0:
            args.append(Poly.const(d, Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))))
            continue
        pool = monos
        if kind == 1:
            pool = [f for f in monos if f.degree() <= 1]
        elif kind == 2:
            pool = [f for f in monos if all(e[0] == 0 for e, _ in f.sorted_terms())]
        total = Poly.zero(d)
        for f in rng.sample(pool, min(3, len(pool))):
            total = total + f.scale(Fraction(rng.randint(-7, 7), rng.randint(1, 5)))
        args.append(total)
    return args


@pytest.mark.parametrize("spec", ORACLE_FIXTURES)
def test_apply_matches_brute_force(spec):
    rng = random.Random(61)
    p = preset_from_string(spec)
    pool = list(small_classes())
    for _ in range(12):
        arity = rng.choice((2, 3))
        reps = [g for g in pool if g.m == arity]
        s = GraphSum(arity, [(g, Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 6)))
                             for g in rng.sample(reps, 3)])
        op = compile_sum(s, p)
        for _ in range(3):
            args = rational_args(rng, p.d, arity)
            assert op.apply(args) == brute_force_apply(op, args)


def test_apply_with_vanishing_derivative():
    p = so3()
    op = compile_graph(parse_graph(SYMMETRIC), p)  # two derivatives per slot
    linear = (x(3, 1).scale(Fraction(1, 2)) - x(3, 3), x(3, 2) + Poly.const(3, 4))
    assert op.apply(linear).is_zero
    assert brute_force_apply(op, linear).is_zero
    mixed = (x(3, 1) * x(3, 2).scale(Fraction(-2, 3)) + x(3, 3), linear[1] * x(3, 3))
    value = op.apply(mixed)
    assert value == brute_force_apply(op, mixed)
    assert not value.is_zero


def test_apply_gives_integral_values_as_int():
    # {x1/2, 2 x2} = 1 on the symplectic plane, a product of two Fractions
    args = (Poly.monomial(2, (1, 0), Fraction(1, 2)), Poly.monomial(2, (0, 1), 2))
    value = apply_graph(GraphSum.single(POISSON), preset_poisson("symplectic2"), args)
    assert value.sorted_terms() == [((0, 0), 1)] and type(value.coefficient((0, 0))) is int


def test_evaluation_past_the_exponent_bound_raises_instead_of_wrapping():
    # {x1 x3^bound, x2} = x3 * x3^bound on so3: the coefficient product
    # passes the bound in the lowest field, where a wrap would carry into x2's
    top = Poly.monomial(3, (1, 0, EXPONENT_BOUND))
    with pytest.raises(DimensionError, match="above the bound"):
        apply_graph(parse_graph(POISSON), so3(), (top, x(3, 2)))
    with pytest.raises(DimensionError, match="above the bound"):
        oracle_compose(GraphSum.single(POISSON), GraphSum.single(POISSON), so3(),
                       (x(3, 3), top, x(3, 1)))
    # x3 d_1 f - x1 d_3 f one step below
    below = Poly.monomial(3, (1, 0, EXPONENT_BOUND - 1))
    assert apply_graph(parse_graph(POISSON), so3(), (below, x(3, 2))) == Poly(3, {
        (0, 0, EXPONENT_BOUND): 1, (2, 0, EXPONENT_BOUND - 2): 1 - EXPONENT_BOUND})


def test_downset_walk_misses_keys_outside_a_union_of_boxes(monkeypatch):
    # the downset of x1^2 + x2^2 is the union of two boxes; the mixed key
    # (1, 1, 0) lies in their hull but not in the union, so it is never
    # reached and its derivative is never taken
    square_sum = x(3, 1) * x(3, 1) + x(3, 2) * x(3, 2)
    assert operators._downset(square_sum) == {
        (0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 2, 0)}
    op = PolyDiffOperator(3, 2, {
        ((1, 1, 0), (0, 0, 0)): Poly.const(3, 5),
        ((2, 0, 0), (0, 0, 1)): x(3, 2),
        ((0, 2, 0), (0, 0, 0)): Poly.const(3, Fraction(-1, 3)),
        ((0, 1, 0), (1, 0, 0)): x(3, 3)})
    derived = []
    derive_multi = Poly.derive_multi

    def counting(self, alpha):
        derived.append(tuple(alpha))
        return derive_multi(self, alpha)

    monkeypatch.setattr(Poly, "derive_multi", counting)
    args = (square_sum, x(3, 1) + x(3, 3) * x(3, 3))
    value = op.apply(args)
    assert (1, 1, 0) not in derived
    monkeypatch.setattr(Poly, "derive_multi", derive_multi)
    assert value == brute_force_apply(op, args)
    # x2 * 2 * 2 x3  -  1/3 * 2 * (x1 + x3^2)  +  x3 * 2 x2 * 1
    assert value == 6 * x(3, 2) * x(3, 3) - Fraction(2, 3) * args[1]
    # a compiled graph and a coboundary on the same kind of argument
    p = so3()
    sym = compile_graph(parse_graph(SYMMETRIC), p)
    assert any((1, 1, 0) in key for key in sym.terms)
    for pair in ((square_sum, x(3, 1) * x(3, 1) + x(3, 2) * x(3, 3)),
                 (x(3, 2) * x(3, 2) - x(3, 3), square_sum)):
        assert sym.apply(pair) == brute_force_apply(sym, pair)
    columns = [GraphSum.single(rep) for rep in order4_wheel_free_basis()]
    args = (square_sum, x(3, 1) * x(3, 3), x(3, 2) * x(3, 2) + x(3, 3))
    assert (CoboundaryColumns(columns, p).values(args)
            == brute_force_columns(columns, preset_poisson("so3"))(args))


def test_zero_argument_reaches_no_key():
    p = so3()
    zero = Poly.zero(3)
    for spec in (POISSON, SYMMETRIC, TRIDIFF):
        op = compile_graph(parse_graph(spec), p)
        others = [x(3, 1) * x(3, 2), x(3, 3) + Poly.const(3, 2), x(3, 2)]
        for slot in range(op.arity):
            args = tuple(others[:slot]) + (zero,) + tuple(others[slot + 1:op.arity])
            assert op.apply(args).is_zero
            assert brute_force_apply(op, args).is_zero
    # each inner tuple of the coboundary has a zero argument
    columns = [GraphSum.single(rep) for rep in order4_wheel_free_basis()]
    delta, expected = CoboundaryColumns(columns, p), brute_force_columns(columns, p)
    for args in ((zero, x(3, 1), x(3, 2) * x(3, 3)), (x(3, 1) * x(3, 1), zero, x(3, 3))):
        values = delta.values(args)
        assert all(value.is_zero for value in values)
        assert values == expected(args)


# -- oracle_delta -------------------------------------------------------------

@functools.cache
def order4_wheel_free_basis():
    """The 90 wheel-free arity-2 classes with 1..4 internal vertices: the
    unknowns of the order-4 evaluation route."""
    return tuple(rep for n in (1, 2, 3, 4)
                 for rep in enumerate_graphs(n, 2, "wheel_free").classes)


def coboundary_triples(d):
    """Three monomial triples, and two triples with a constant and a
    multi-term rational argument (some derivative products vanish)."""
    rng = random.Random(67)
    monos = monomials_up_to_degree(d, 2)
    rational = parse_poly("2/3*x1^2 - 1/5*x1*x%d + 7/2*x%d" % (d, d), d)
    const = Poly.const(d, Fraction(-3, 4))
    triples = [tuple(rng.choice(monos) for _ in range(3)) for _ in range(3)]
    return triples + [(monos[0] * monos[-1], const, rational),
                      (rational, monos[1], const)]


@pytest.mark.parametrize("spec", ("so3", "sl2", "symplectic2",
                                  "jacobian:x1^3 + 2*x2^3 - x1^2*x3"))
def test_coboundary_columns_match_brute_force_delta(spec):
    p = preset_from_string(spec)
    basis = order4_wheel_free_basis()
    assert len(basis) == 90
    columns = [GraphSum.single(rep) for rep in basis]
    delta, reference = CoboundaryColumns(columns, p), brute_force_columns(columns, p)
    nonzero = 0
    for args in coboundary_triples(p.d):
        values = delta.values(args)
        assert len(values) == 90
        assert values == reference(args)
        nonzero += sum(not value.is_zero for value in values)
        # the one-column case is the same pass
        assert oracle_delta(columns[-1], p, args) == values[-1]
    assert nonzero
    # apply, the one-tuple case, against the term-by-term oracle
    for col in columns[::9]:
        op = compile_sum(col, p)
        for f, g, _h in coboundary_triples(p.d):
            assert op.apply((f, g)) == brute_force_apply(op, (f, g))


@pytest.mark.parametrize("spec", ("so3", "sl2", "jacobian:x1^3 + 2*x2^3 - x1^2*x3"))
def test_integer_fixtures_compile_to_int_coefficients(spec):
    # integral fixtures and arguments keep the evaluation route in int
    # arithmetic up to the reducer
    p = preset_from_string(spec)
    basis = order4_wheel_free_basis()
    nonzero = 0
    for rep in basis:
        op = compile_graph(rep, p)
        nonzero += not op.is_zero
        for poly in op.terms.values():
            assert all(type(c) is int for c in poly.terms.values())
    assert nonzero
    delta = CoboundaryColumns([GraphSum.single(rep) for rep in basis], p)
    for args in coboundary_triples(p.d)[:3]:
        for value in delta.values(args):
            assert all(type(c) is int for c in value.terms.values())


def fresh_copies(args):
    """New Poly objects equal to ``args``, without derivative jets."""
    return tuple(Poly(f.d, dict(f.sorted_terms())) for f in args)


def normal_values(values):
    """Whether every coefficient of the Polys ``values`` is in normal form."""
    return all(is_normal(c) for value in values for c in value.terms.values())


def typed_terms(value):
    """The terms of a Poly with the type of each coefficient."""
    return {e: (type(c), c) for e, c in value.terms.items()}


@pytest.mark.parametrize("spec", ("so3", "sl2", "jacobian:x1^3 + 2*x2^3 - x1^2*x3"))
def test_jets_give_the_brute_force_values_on_every_use(spec):
    # derivatives kept on the argument objects give the term-by-term values
    # on first use, on a second use with the jets warm, and on fresh copies
    # without jets, with the same coefficient types on every use, all in
    # normal form
    p = preset_from_string(spec)
    rng = random.Random(73)
    pool = list(small_classes())
    for _ in range(8):
        arity = rng.choice((2, 3))
        reps = [g for g in pool if g.m == arity]
        s = GraphSum(arity, [(g, Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 6)))
                             for g in rng.sample(reps, 3)])
        op = compile_sum(s, p)
        args = tuple(rational_args(rng, p.d, arity) + list(mono_args(rng, p.d, arity, 2)))
        for first in range(0, 2 * arity, arity):
            use = args[first:first + arity]
            assert all(f._jet is None for f in use)
            expected = brute_force_apply(op, use)
            values = [op.apply(same) for same in (use, use, fresh_copies(use))]
            assert values == [expected] * 3
            assert typed_terms(values[1]) == typed_terms(values[2]) == typed_terms(values[0])
            assert normal_values(values)
            assert use[0]._jet is not None
    columns = [GraphSum.single(rep) for rep in order4_wheel_free_basis()]
    delta = CoboundaryColumns(columns, p)
    reference = brute_force_columns(columns, preset_from_string(spec))
    nonzero = 0
    for args in coboundary_triples(p.d):
        expected = reference(args)
        for same in (args, args, fresh_copies(args)):
            values = delta.values(same)
            assert values == expected and normal_values(values)
            nonzero += any(not value.is_zero for value in values)
        assert args[0]._jet is not None
    assert nonzero


@pytest.mark.parametrize("spec", ("so3", "jacobian:x1^3 + 2*x2^3 - x1^2*x3"))
def test_touched_terms_are_the_nonzero_columns_in_order(spec, monkeypatch):
    # the evaluation route reads only the columns a pass touches, in
    # ascending order; every other column is zero, and the touched ones
    # hold the brute-force values, each coefficient in normal form
    p = preset_from_string(spec)
    columns = [GraphSum.single(rep) for rep in order4_wheel_free_basis()]
    delta = CoboundaryColumns(columns, p)
    reference = brute_force_columns(columns, preset_from_string(spec))
    quadratic = monomials_up_to_degree(p.d, 2, min_degree=2)
    untouched = 0
    for args in coboundary_triples(p.d) + [tuple(quadratic[:3]), tuple(quadratic[-3:])]:
        touched = delta.touched_terms(args)
        expected = reference(args)
        cols = [col for col, _ in touched]
        assert cols == sorted(set(cols))
        for col, terms in touched:
            assert terms == expected[col].terms and all(map(is_normal, terms.values()))
        assert all(value.is_zero for col, value in enumerate(expected) if col not in cols)
        untouched += len(columns) - len(cols)
        assert all(f._jet[2] == f.degree() for f in args)
    assert untouched
    # once every group is compiled, no pass reads the argument degrees
    for orders in list(delta.pending):
        delta._compile(orders)
    monkeypatch.setattr(operators, "_fits", None)
    assert delta.values(args) == expected


def test_vertex_without_admissible_pair_compiles_to_zero_without_search(monkeypatch):
    # so3 has linear entries, so a vertex with two incoming edges takes no
    # pair at all: the operator is zero before any entry derivative is taken
    p = so3()
    calls = []
    entry_derivative = PoissonStructure.entry_derivative

    def counting(self, i, j, alpha):
        calls.append(alpha)
        return entry_derivative(self, i, j, alpha)

    monkeypatch.setattr(PoissonStructure, "entry_derivative", counting)
    dead = 0
    for g in order4_wheel_free_basis():
        internal_in = [sum(v in pair for pair in g.out_edges)
                       for v in range(g.m + 1, g.m + g.n + 1)]
        del calls[:]
        op = compile_graph(g, p)
        if max(internal_in) >= 2:
            dead += 1
            assert op.is_zero and not calls
            assert brute_force_compile_graph(g, p).is_zero
    assert dead == 59


# -- compile on demand ---------------------------------------------------------

CUBIC = "jacobian:x1^3 + 2*x2^3 - x1^2*x3"


def in_degrees(g):
    """How many edges end on each argument vertex, counted from the pairs."""
    return tuple(sum(t in pair for pair in g.out_edges) for t in range(1, g.m + 1))


def degree_one_triples(d):
    return list(itertools.product([x(d, i) for i in range(1, d + 1)], repeat=3))


def admitted(g, patterns):
    """Whether some inner argument tuple, given by its argument degrees, has
    each degree at least the in-degree of its slot."""
    return any(all(k <= deg for k, deg in zip(in_degrees(g), degs)) for degs in patterns)


def relabel_args(g, perm):
    """g with argument t renamed perm[t - 1]."""
    return DirectedGraph(g.n, g.m, tuple(tuple(perm[t - 1] if t <= g.m else t for t in pair)
                                         for pair in g.out_edges))


def orbit_anchor(g):
    """The least class representative key over the argument relabelings of
    g: the one graph of its orbit that gets compiled."""
    return min(canonical_form(relabel_args(g, perm))[0].key
               for perm in itertools.permutations(range(1, g.m + 1)))


@pytest.fixture
def compiled_keys(monkeypatch):
    """compiled_keys(p): the keys of the graphs ``compile_graph`` was called
    on for the Poisson structure p, in call order."""
    calls = []
    compile_graph_ = operators.compile_graph

    def counting(g, p):
        calls.append((p, g.key))
        return compile_graph_(g, p)

    monkeypatch.setattr(operators, "compile_graph", counting)
    return lambda p: [key for q, key in calls if q is p]


def test_coboundary_columns_compile_only_graphs_the_arguments_feed(compiled_keys):
    # on degree-1 triples the inner tuples have argument degrees (1, 1),
    # (2, 1) and (1, 2), so only graphs whose argument in-degrees fit under
    # one of them can contribute
    p = preset_from_string(CUBIC)
    basis = order4_wheel_free_basis()
    columns = [GraphSum.single(rep) for rep in basis]
    delta = CoboundaryColumns(columns, p)
    triples = degree_one_triples(3)
    assert len(triples) == 27
    values = [delta.values(args) for args in triples]
    fits = {rep for rep in basis if admitted(rep, [(1, 1), (2, 1), (1, 2)])}
    assert len(fits) == 11
    # one compile per argument-relabeling orbit of a graph that can be fed
    anchors = {orbit_anchor(g) for g in fits}
    assert len(anchors) == 6
    assert sorted(compiled_keys(p)) == sorted(anchors)
    # the reference on a structure of its own
    reference = brute_force_columns(columns, preset_from_string(CUBIC))
    for args, row in zip(triples[::5], values[::5]):
        assert row == reference(args)
    # a tuple of argument degrees (2, 3, 2) forces more groups: the inner
    # tuples have degrees (2, 3), (3, 2), (5, 2) and (2, 5)
    args = (x(3, 1) * x(3, 1), x(3, 2) * x(3, 3) * x(3, 3), x(3, 1) * x(3, 3))
    row = delta.values(args)
    assert row == reference(args)
    assert any(not value.is_zero for value in row)
    forced = {rep for rep in basis
              if admitted(rep, [(2, 3), (3, 2), (5, 2), (2, 5)])}
    waiting = set(basis) - fits - forced
    assert waiting  # the (3, 3) graphs and up still wait
    anchors = {orbit_anchor(g) for g in fits | forced}
    assert not anchors & {orbit_anchor(g) for g in waiting}
    assert sorted(compiled_keys(p)) == sorted(anchors)
    # lower-degree tuples compile nothing more, and the values still agree
    for args in triples[:3]:
        assert delta.values(args) == reference(args)
    assert sorted(compiled_keys(p)) == sorted(anchors)


def test_coboundary_columns_compile_sums_and_labeled_graphs_by_group(compiled_keys):
    p = preset_from_string(CUBIC)
    by_degrees = {}
    for rep in order4_wheel_free_basis():
        by_degrees.setdefault(in_degrees(rep), []).append(rep)
    a, b, c = by_degrees[(1, 1)][0], by_degrees[(2, 1)][0], by_degrees[(2, 2)][0]
    labeled = flip_first_pair(by_degrees[(1, 2)][0])  # not canonical
    columns = [GraphSum(2, [(a, Fraction(2, 3)), (b, -5), (c, Fraction(1, 7))]),
               GraphSum(2, [(b, 3), (c, Fraction(-4, 9))]),
               labeled,
               GraphSum(2, [(c, 1)])]
    delta = CoboundaryColumns(columns, p)
    reference = brute_force_columns(columns, preset_from_string(CUBIC))
    low = (x(3, 2), x(3, 1), x(3, 3))
    assert delta.values(low) == reference(low)
    # the (2, 2) graph c is not compiled until a tuple can feed it, and an
    # orbit is compiled once
    fed = {orbit_anchor(g) for g in (a, b, labeled)}
    assert orbit_anchor(c) not in fed
    assert sorted(compiled_keys(p)) == sorted(fed)
    high = (x(3, 1) * x(3, 3), x(3, 2) * x(3, 2), x(3, 3))
    row = delta.values(high)
    assert row == reference(high)
    assert not row[1].is_zero
    assert sorted(compiled_keys(p)) == sorted(fed | {orbit_anchor(c)})
    # a labeled graph enters as its class with its sign: flipping a pair
    # flips the sign
    rep_value = CoboundaryColumns([by_degrees[(1, 2)][0]], p).values(low)[0]
    assert delta.values(low)[2] == -rep_value


def trie_leaves(node):
    """The leaves of a per-slot trie, each a [(column, terms)] list."""
    if isinstance(node, list):
        return [node]
    return [leaf for child in node.values() for leaf in trie_leaves(child)]


def test_coboundary_columns_trie_grows_between_calls(compiled_keys):
    # a degree-1 triple compiles the low groups, a degree-2 triple adds keys
    # to the same trie, and the first triple then reads the grown trie
    p = so3()
    columns = [GraphSum.single(rep) for rep in order4_wheel_free_basis()]
    delta = CoboundaryColumns(columns, p)
    reference = brute_force_columns(columns, so3())
    low = (x(3, 1), x(3, 3), x(3, 2))
    high = (x(3, 1) * x(3, 2), x(3, 3) * x(3, 3), x(3, 2) * x(3, 1))
    first = delta.values(low)
    assert first == reference(low)
    keys, compiled = len(trie_leaves(delta.trie)), len(compiled_keys(p))
    second = delta.values(high)
    assert second == reference(high)
    assert any(not value.is_zero for value in second)
    assert len(trie_leaves(delta.trie)) > keys and len(compiled_keys(p)) > compiled
    assert delta.values(low) == first
    # every leaf lists its columns once, in ascending order
    for leaf in trie_leaves(delta.trie):
        cols = [col for col, _ in leaf]
        assert cols == sorted(set(cols))


def mixed_sum():
    """An arity-2 sum with two graphs from each argument in-degree group of
    the order-4 wheel-free basis, under assorted coefficients (some not
    integral), and the groups it spans."""
    by_degrees = {}
    for rep in order4_wheel_free_basis():
        by_degrees.setdefault(in_degrees(rep), []).append(rep)
    coeffs = itertools.cycle([Fraction(2, 3), -5, Fraction(-1, 7), 3])
    terms = [(g, next(coeffs)) for graphs in by_degrees.values() for g in graphs[:2]]
    return GraphSum(2, terms), set(by_degrees)


def key_orders(key):
    """The derivative order of each slot of an operator key."""
    return tuple(sum(alpha) for alpha in key)


def brute_force_compose(op1, op2, args):
    """Insertion composition op1 o op2 on ``args``, term by term by
    ``brute_force_apply``."""
    m2, k2 = op2.arity, op2.arity - 1
    total = Poly.zero(op1.d)
    for j in range(op1.arity):
        inner = brute_force_apply(op2, args[j:j + m2])
        value = brute_force_apply(op1, args[:j] + (inner,) + args[j + m2:])
        total = total + (value.scale(-1) if (j * k2) % 2 else value)
    return total


def test_gated_values_match_the_reference_as_groups_compile(compiled_keys):
    # low, then high, then low argument degrees: each value matches the
    # reference operator, the memo's low values still match once the high
    # groups have compiled, and the gated operator's terms are exactly the
    # reference's terms of the groups compiled so far
    p = preset_from_string(CUBIC)
    s, groups = mixed_sum()
    assert s._denom != 1
    reference = reference_operator(s, preset_from_string(CUBIC))
    gated = operators._gated(s, p)
    inner = operators.InnerValues()
    low = [(x(3, 1), x(3, 2)), (x(3, 3), x(3, 1))]
    high = [(x(3, 1) * x(3, 2), x(3, 3) * x(3, 3) * x(3, 2)),
            (x(3, 2) * x(3, 2) * x(3, 2), x(3, 1) * x(3, 3))]

    def compiled_part():
        orders = {o for o in groups if o not in gated._trie.pending}
        return {key: poly for key, poly in reference.terms.items() if key_orders(key) in orders}

    first = [inner(s, p, args) for args in low]
    assert first == [brute_force_apply(reference, args) for args in low]
    assert any(not value.is_zero for value in first)
    assert gated.terms == compiled_part()
    compiled = len(compiled_keys(p))
    for args in high:
        assert apply_graph(s, p, args) == brute_force_apply(reference, args)
    assert len(compiled_keys(p)) > compiled
    assert gated.terms == compiled_part()
    assert gated._trie.pending  # the (3, 3)-and-up groups still wait
    for args, value in zip(low, first):
        assert inner(s, p, args) is value
        assert value == apply_graph(s, p, fresh_copies(args)) == brute_force_apply(reference, args)


def test_gated_evaluations_compile_only_admitted_groups(compiled_keys):
    # apply_graph and the outer pass of a composition compile exactly the
    # orbits of the graphs that some evaluated tuple's argument degrees admit
    s, _ = mixed_sum()
    reps = [rep for rep, _ in s._nums.items()]
    reference = reference_operator(s, preset_from_string(CUBIC))
    p = preset_from_string(CUBIC)
    pairs = [(x(3, 1), x(3, 2)), (x(3, 2) * x(3, 2), x(3, 3))]
    for args in pairs:
        assert apply_graph(s, p, args) == brute_force_apply(reference, args)
    fed = {orbit_anchor(g) for g in reps if admitted(g, [(1, 1), (2, 1)])}
    assert sorted(compiled_keys(p)) == sorted(fed)
    assert fed != {orbit_anchor(g) for g in reps}
    # a composition on degree-1 arguments: the inner tuples have degrees
    # (1, 1), the outer ones the inner value's degree in one slot
    q = preset_from_string(CUBIC)
    args = (x(3, 1), x(3, 2), x(3, 3))
    assert oracle_compose(s, s, q, args) == brute_force_compose(reference, reference, args)
    inner = [brute_force_apply(reference, args[j:j + 2]).degree() for j in range(2)]
    degrees = [(1, 1), (inner[0], 1), (1, inner[1])]
    fed = {orbit_anchor(g) for g in reps if admitted(g, degrees)}
    assert sorted(compiled_keys(q)) == sorted(fed)
    assert fed != {orbit_anchor(g) for g in reps}


@pytest.mark.parametrize("evaluate", ["apply_graph", "compile_sum"])
def test_a_compile_that_raises_leaves_its_group_pending(evaluate, monkeypatch):
    # the second compile raises, after the first group of the evaluation
    # has compiled: the failing group stays pending and no degree vector is
    # checked, so the retry compiles every admitted group and matches the
    # reference operator
    s, _ = mixed_sum()
    reference = reference_operator(s, preset_from_string(CUBIC))
    p = preset_from_string(CUBIC)
    args = (x(3, 1) * x(3, 2), x(3, 3) * x(3, 3) * x(3, 2))
    calls = []
    compile_graph_ = operators.compile_graph

    def failing_once(g, q):
        calls.append(g.key)
        if len(calls) == 2:
            raise DimensionError("compile failed")
        return compile_graph_(g, q)

    monkeypatch.setattr(operators, "compile_graph", failing_once)
    run = {"apply_graph": lambda: apply_graph(s, p, args),
           "compile_sum": lambda: compile_sum(s, p).terms}[evaluate]
    with pytest.raises(DimensionError, match="compile failed"):
        run()
    gate = operators._gated(s, p)._trie
    assert not gate.checked
    assert any(operators._fits(o, [tuple(f.degree() for f in args)]) for o in gate.pending)
    run()
    assert len(calls) > 2
    assert apply_graph(s, p, args) == brute_force_apply(reference, args)
    if evaluate == "compile_sum":
        assert compile_sum(s, p).terms == reference.terms


def test_coboundary_columns_compile_each_group_once(compiled_keys, monkeypatch):
    # many triples, with repeated degree vectors: every group is compiled
    # at most once, every orbit once, and each degree vector is checked
    # against the pending groups once
    p = preset_from_string(CUBIC)
    columns = [GraphSum.single(rep) for rep in order4_wheel_free_basis()]
    delta = CoboundaryColumns(columns, p)
    compiled, checked = [], []
    compile_, fits = operators._Gate._compile, operators._fits

    def counting_compile(self, orders):
        compiled.append(orders)
        compile_(self, orders)

    def counting_fits(orders, degrees):
        checked.append(frozenset(degrees))
        return fits(orders, degrees)

    monkeypatch.setattr(operators._Gate, "_compile", counting_compile)
    monkeypatch.setattr(operators, "_fits", counting_fits)
    reference = brute_force_columns(columns, preset_from_string(CUBIC))
    triples = degree_one_triples(3)
    high = (x(3, 1) * x(3, 1), x(3, 2) * x(3, 3) * x(3, 3), x(3, 1) * x(3, 3))
    for args in triples[:9] + [high] + triples[9:] + [high]:
        row = delta.values(args)
        if args is high or args in triples[::9]:
            assert row == reference(args)
    assert compiled and len(compiled) == len(set(compiled))
    assert not set(compiled) & set(delta.pending)
    keys = compiled_keys(p)
    assert len(keys) == len(set(keys))
    # one check per pending group and new degree set: no degree vector twice
    vectors = [v for degrees in dict.fromkeys(checked) for v in degrees]
    assert len(vectors) == len(set(vectors))
    assert set(vectors) == delta.checked


def test_delta_of_poisson_class_vanishes():
    rng = random.Random(3)
    s = GraphSum.single(POISSON)
    for p in (so3(), preset_poisson("symplectic2")):
        for _ in range(4):
            args = mono_args(rng, p.d, 3)
            assert oracle_delta(s, p, args).is_zero


def test_delta_symmetric_graph_fixtures():
    s = GraphSum.single(SYMMETRIC)
    p = so3()
    # the derived value on coordinate args is zero: every slot of the
    # symmetric graph carries two derivatives
    assert oracle_delta(s, p, (x(3, 1), x(3, 2), x(3, 3))).is_zero
    # nonzero regression fixture on quadratic arguments
    sq = (x(3, 1) * x(3, 1), x(3, 2) * x(3, 2), x(3, 3) * x(3, 3))
    assert oracle_delta(s, p, sq) == parse_poly("-16*x1^2*x2^2 + 16*x2^2*x3^2", 3)


def test_delta_vanishes_on_constants():
    rng = random.Random(7)
    s = GraphSum.single(SYMMETRIC)
    p = so3()
    const = Poly.const(3, Fraction(5, 2))
    for slot in range(3):
        args = list(mono_args(rng, 3, 3))
        args[slot] = const
        assert oracle_delta(s, p, tuple(args)).is_zero


def test_delta_squared_is_zero():
    rng = random.Random(29)
    pool = [rep for n in (1, 2) for rep in enumerate_graphs(n, 2).classes]
    p = so3()
    for _ in range(6):
        s = GraphSum(2, [(rng.choice(pool), Fraction(rng.randint(1, 4)))])
        args = mono_args(rng, 3, 4, max_degree=3)

        def delta1(fs):
            return oracle_delta(s, p, fs)

        # delta of (delta s) evaluated literally via the alternating formula
        m = 3
        total = delta1(args[:m]) * args[m]
        total = total + (args[0] * delta1(args[1:])).scale(1 if (m - 1) % 2 == 0 else -1)
        sgn = 1 if (m - 1) % 2 == 0 else -1
        for j in range(m):
            merged = list(args[:j]) + [args[j] * args[j + 1]] + list(args[j + 2:])
            total = total + delta1(tuple(merged)).scale(-sgn if j % 2 == 0 else sgn)
        assert total.is_zero


# -- orbit reuse and integer sums against compile_graph, and it against brute force

ORBIT_FIXTURES = ("so3", "sl2", CUBIC)


def small_sizes():
    """(n, m) for every K_{n,m} with n <= 4 and n + m <= 6 that has graphs
    (each argument needs an incoming edge, so m <= 2n)."""
    return [(n, m) for n in range(1, 5) for m in range(1, min(2 * n, 6 - n) + 1)]


def labeled_variants(g):
    """g, g with its first L/R pair flipped, and g under every argument
    relabeling but the identity: labeled graphs that are mostly not
    canonical."""
    yield g
    yield flip_first_pair(g)
    for perm in itertools.permutations(range(1, g.m + 1)):
        if perm != tuple(range(1, g.m + 1)):
            yield relabel_args(g, perm)


def assert_same_operator(op, reference):
    assert set(op.terms) == set(reference.terms)
    assert op.terms == reference.terms


@functools.lru_cache(maxsize=None)
def orbit_series():
    return solve_up_to(3)[0]


def small_reps():
    return [rep for n, m in small_sizes() for rep in enumerate_graphs(n, m).classes]


@pytest.mark.parametrize("spec", ORBIT_FIXTURES)
def test_compiled_matches_compile_graph_on_small_classes(spec, compiled_keys):
    # a fresh structure per spec, so that anchors and the classes whose
    # terms are read from them by slot permutation both occur; the reference
    # compiles every labeled graph itself on a structure of its own
    p, reference = preset_from_string(spec), preset_from_string(spec)
    reps = small_reps()
    count = 0
    for rep in reps:
        for g in labeled_variants(rep):
            assert_same_operator(compile_sum(GraphSum.single(g), p),
                                 compile_graph(g, reference))
            count += 1
    assert count > 1000
    # exactly one compile per argument-relabeling orbit
    assert sorted(compiled_keys(p)) == sorted({orbit_anchor(rep) for rep in reps})


def reference_graphs():
    """The class representatives whose ``compile_graph`` operators are
    references in this module: every class of the small sizes and every
    term of the orbit sums."""
    reps = set(small_reps())
    reps.update(rep for s in orbit_sums() for rep, _ in s.terms())
    return sorted(reps, key=lambda g: g.key)


def test_compile_graph_matches_brute_force_on_the_reference_graphs():
    # once per representative, on the fixture of the three whose quadratic
    # entries leave the most operators nonzero (635 of 810; 267 on so3, sl2)
    p = preset_from_string(CUBIC)
    reps = reference_graphs()
    assert len(reps) == 810
    nonzero = 0
    for g in reps:
        op = compile_graph(g, p)
        assert_same_operator(op, brute_force_compile_graph(g, p))
        nonzero += not op.is_zero
    assert nonzero == 635


def test_compile_graph_matches_brute_force_on_labeled_variants():
    # the labeled graphs of the orbit check, on a fixture with two index
    # pairs, so that the brute force is cheap, and cubic entries, so that
    # most operators are nonzero
    p = preset_from_string("free2:2/3*x1^2*x2 - 1/2*x2^3")
    nonzero = 0
    for rep in small_reps():
        for g in labeled_variants(rep):
            op = compile_graph(g, p)
            assert_same_operator(op, brute_force_compile_graph(g, p))
            nonzero += not op.is_zero
    assert nonzero > 1000


@pytest.mark.parametrize("spec", ORBIT_FIXTURES)
def test_sign_zero_classes_compile_to_zero_without_a_search(spec, compiled_keys):
    p, reference = preset_from_string(spec), preset_from_string(spec)
    graphs = [g for n, m in small_sizes() for rep in zero_classes(n, m)
              for g in labeled_variants(rep)]
    assert len(graphs) > 50
    for g in graphs:
        assert compile_sum(GraphSum.single(g), p).is_zero
        assert brute_force_compile_graph(g, reference).is_zero
    assert compiled_keys(p) == []


def residual_graphs():
    """Representatives of the arity-3 sums delta(c_k) and defect_k, k = 2, 3,
    of the wheel-free series, whose residuals the evaluation route checks."""
    series = orbit_series()
    sums = [graph_delta(series.order(k)) for k in (2, 3)] + [mc_defect(series, k) for k in (2, 3)]
    return sorted({rep for s in sums for rep, _ in s.terms()}, key=lambda g: g.key)


@pytest.mark.parametrize("spec", ["so3", CUBIC])
def test_compiled_records_each_orbit_once(spec, monkeypatch):
    # a fresh orbit table and a count of the class lookups made by
    # ``compile_sum``; ``GraphSum.single`` counts its term through
    # ``add_labeled_graphs``, which makes no lookup
    monkeypatch.setattr(graphs_module, "_ORBITS", {})
    lookups = []
    lookup = graphs_module._lookup

    def counting(*key):
        lookups.append(key)
        return lookup(*key)

    monkeypatch.setattr(graphs_module, "_lookup", counting)
    p, reference = preset_from_string(spec), preset_from_string(spec)
    reps = residual_graphs()
    assert len(reps) > 20 and {g.m for g in reps} == {3}
    graphs = {relabel_args(g, perm).key: relabel_args(g, perm)
              for g in reps for perm in itertools.permutations((1, 2, 3))}
    orbits = {orbit_anchor(g) for g in reps}
    costs = []
    nonzero = 0
    for g in graphs.values():
        known = canonical_form(g)[0] in graphs_module._ORBITS
        before = len(lookups)
        op = compile_sum(GraphSum.single(g), p)
        costs.append(len(lookups) - before)
        # a graph of a known orbit costs no lookup; a new orbit 3!
        assert costs[-1] == (0 if known else 6)
        assert_same_operator(op, compile_graph(g, reference))
        nonzero += not op.is_zero
    assert nonzero > 20
    assert sum(costs) == 6 * len(orbits)


def orbit_sums():
    """Sums of arities 2 and 3 with Fraction coefficients: the orders of
    the wheel-free series, their graph coboundaries and the defects."""
    series = orbit_series()
    return ([series.order(k) for k in (1, 2, 3)]
            + [graph_delta(series.order(k)) for k in (1, 2, 3)]
            + [mc_defect(series, k) for k in (2, 3, 4)])


@pytest.mark.parametrize("spec", ORBIT_FIXTURES)
def test_compile_sum_matches_the_reference_operator(spec):
    p, reference = preset_from_string(spec), preset_from_string(spec)
    sums = orbit_sums()
    assert {s.arity for s in sums} == {2, 3}
    nonzero = 0
    for s in sums:
        op = compile_sum(s, p)
        assert_same_operator(op, reference_operator(s, reference))
        assert normal_values(op.terms.values())
        nonzero += not op.is_zero
    assert nonzero >= 4


@pytest.mark.parametrize("spec", ["so3", CUBIC])
def test_compile_sum_builds_no_operator_per_labeled_graph(spec, compiled_keys):
    # a sum's terms are added from the orbit anchors' operators under
    # permuted slot keys, so the structure caches only the anchors and the
    # sums, and each anchor is compiled once
    p = preset_from_string(spec)
    sums = orbit_sums()
    for s in sums:
        compile_sum(s, p)
    anchors = {orbit_anchor(rep) for s in sums for rep, _ in s.terms()}
    assert any(rep.key not in anchors for s in sums for rep, _ in s.terms())
    graphs = {key for key in p._op_cache if isinstance(key, DirectedGraph)}
    assert {g.key for g in graphs} == anchors
    assert sorted(compiled_keys(p)) == sorted(anchors)
    assert len(p._op_cache) == len(anchors) + len(set(sums))


def is_normal(c):
    """An exact coefficient in its normal form: ``int``, or a ``Fraction``
    that is not integral."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def test_compile_sum_and_columns_keep_integral_coefficients_int():
    p = so3()
    s = orbit_series().order(3)
    assert any(coeff.denominator != 1 for _, coeff in s.terms())
    op = compile_sum(s, p)
    coeffs = [c for poly in op.terms.values() for c in poly.terms.values()]
    assert len(coeffs) == 180
    assert all(map(is_normal, coeffs))
    # the reference sums the Fraction coefficients term by term in Poly
    # arithmetic, which gives integral values as int too
    reference = reference_operator(s, so3())
    assert normal_values(reference.terms.values())
    by_degrees = {}
    for rep in order4_wheel_free_basis():
        by_degrees.setdefault(in_degrees(rep), []).append(rep)
    a, b, c = by_degrees[(1, 1)][0], by_degrees[(2, 1)][0], by_degrees[(2, 2)][0]
    series = orbit_series()
    columns = [GraphSum(2, [(a, Fraction(2, 3)), (b, -5), (c, Fraction(1, 7))]),
               GraphSum(2, [(b, Fraction(3, 2)), (c, Fraction(-4, 9))]),
               series.order(2), series.order(3), GraphSum.single(a)]
    for spec in ORBIT_FIXTURES:
        p = preset_from_string(spec)
        delta = CoboundaryColumns(columns, p)
        reference = brute_force_columns(columns, preset_from_string(spec))
        monos = monomials_up_to_degree(3, 2)
        for args in itertools.islice(itertools.product(monos, repeat=3), 0, None, 97):
            values = delta.values(args)
            assert values == reference(args)
            assert normal_values(values)


# -- oracle_compose -----------------------------------------------------------

def test_compose_hand_value_symplectic():
    s = GraphSum.single(POISSON)
    p = preset_poisson("symplectic2")
    f, g, h = x(2, 1), x(2, 2), x(2, 1) * x(2, 2)
    # p(p(f,g),h) - p(f,p(g,h)) = 0 - (-1) = 1
    assert oracle_compose(s, s, p, (f, g, h)) == Poly.const(2, 1)


def test_compose_bilinearity():
    rng = random.Random(37)
    p = so3()
    s = GraphSum.single(POISSON)
    t = GraphSum.single(SYMMETRIC)
    args = mono_args(rng, 3, 3)
    lhs = oracle_compose(s, t.scale(Fraction(2, 5)), p, args)
    assert lhs == oracle_compose(s, t, p, args).scale(Fraction(2, 5))


def test_gerstenhaber_antisymmetry_degree_one():
    rng = random.Random(41)
    p = so3()
    pool = list(enumerate_graphs(2, 2).classes)
    for _ in range(4):
        s1 = GraphSum(2, [(rng.choice(pool), rng.randint(1, 3))])
        s2 = GraphSum(2, [(rng.choice(pool), rng.randint(1, 3))])
        args = mono_args(rng, 3, 3)
        assert oracle_gerstenhaber(s1, s2, p, args) == oracle_gerstenhaber(s2, s1, p, args)
        # odd degrees: [s1,s2] = s1 o s2 + s2 o s1 is symmetric


def test_compiled_operator_cache():
    p = so3()
    s = GraphSum.single(POISSON)
    op1 = compile_sum(s, p)
    op2 = compile_sum(s, p)
    assert op1 is op2
    # an equal sum built separately is served from the same entry
    assert compile_sum(GraphSum.single(POISSON), p) is op1
    assert compile_sum(s.scale(2), p) is not op1
