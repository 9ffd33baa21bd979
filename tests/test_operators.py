import functools
import itertools
import random
from fractions import Fraction

import pytest

from oracles import (brute_force_apply, brute_force_compile_graph, brute_force_delta,
                     transcribed_tridiff)
from stargraphs.errors import DimensionError
from stargraphs.graphs import (DirectedGraph, GraphSum, canonical_form, enumerate_graphs,
                               parse_graph, zero_classes)
from stargraphs.operators import (CoboundaryColumns, apply_graph, compile_graph, compile_sum,
                                  oracle_compose, oracle_delta, oracle_gerstenhaber)
from stargraphs.poisson import PoissonStructure, preset_from_string, preset_poisson
from stargraphs.poly import Poly, monomials_up_to_degree, parse_poly

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
    for cls in classes:
        g = cls.rep
        flipped = flip_first_pair(g)
        args = mono_args(rng, 3, 2)
        assert apply_graph(flipped, p, args) == -apply_graph(g, p, args)
        fc = canonical_form(flipped)
        assert fc.rep == g
        assert fc.sign == -1


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
    for cls in small_classes():
        for g in (cls.rep, flip_first_pair(cls.rep)):
            assert compile_graph(g, p).terms == brute_force_compile_graph(g, p).terms


@pytest.mark.parametrize("spec", ORACLE_FIXTURES)
def test_compile_graph_matches_brute_force_k42_wheel_free(spec):
    p = preset_from_string(spec)
    classes = enumerate_graphs(4, 2, "wheel_free").classes
    assert len(classes) == 74
    for cls in classes:
        assert compile_graph(cls.rep, p).terms == brute_force_compile_graph(cls.rep, p).terms


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
            pool = [f for f in monos if all(e[0] == 0 for e in f.terms)]
        total = Poly.zero(d)
        for f in rng.sample(pool, min(3, len(pool))):
            total = total + f.scale(Fraction(rng.randint(-7, 7), rng.randint(1, 5)))
        args.append(total)
    return args


@pytest.mark.parametrize("spec", ORACLE_FIXTURES)
def test_apply_matches_brute_force(spec):
    rng = random.Random(61)
    p = preset_from_string(spec)
    pool = [cls.rep for cls in small_classes()]
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


# -- oracle_delta -------------------------------------------------------------

@functools.cache
def order4_wheel_free_basis():
    """The 90 wheel-free arity-2 classes with 1..4 internal vertices: the
    unknowns of the order-4 evaluation route."""
    return tuple(cls for n in (1, 2, 3, 4)
                 for cls in enumerate_graphs(n, 2, "wheel_free").classes)


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
    columns = [GraphSum.single(cls.rep) for cls in basis]
    delta = CoboundaryColumns(columns, p)
    nonzero = 0
    for args in coboundary_triples(p.d):
        values = delta.values(args)
        assert len(values) == 90
        for col, value in zip(columns, values):
            assert value == brute_force_delta(col, p, args)
            nonzero += not value.is_zero
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
    for cls in basis:
        op = compile_graph(cls.rep, p)
        nonzero += not op.is_zero
        for poly in op.terms.values():
            assert all(type(c) is int for c in poly.terms.values())
    assert nonzero
    delta = CoboundaryColumns([GraphSum.single(cls.rep) for cls in basis], p)
    for args in coboundary_triples(p.d)[:3]:
        for value in delta.values(args):
            assert all(type(c) is int for c in value.terms.values())


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
    pool = [cls.rep for n in (1, 2) for cls in enumerate_graphs(n, 2).classes]
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
    pool = [cls.rep for cls in enumerate_graphs(2, 2).classes]
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
