import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stargraphs.errors import DimensionError
from stargraphs.poly import Poly, _wrap, monomials_up_to_degree, parse_poly


def rand_poly(rng, d, max_degree=3, n_terms=4):
    terms = {}
    for _ in range(n_terms):
        exps = tuple(rng.randint(0, max_degree) for _ in range(d))
        if sum(exps) > max_degree:
            continue
        terms[exps] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return Poly(d, terms)


def test_difference_of_squares():
    x1, x2 = Poly.variable(2, 1), Poly.variable(2, 2)
    assert (x1 + x2) * (x1 - x2) == x1 * x1 - x2 * x2


def test_zero_absorbs():
    p = parse_poly("x1^2*x2 - 3*x1", 2)
    assert (Poly.zero(2) * p).is_zero
    assert (p * Poly.zero(2)).is_zero


def test_monomial_product_d3():
    assert Poly.monomial(3, (1, 1, 0)) * Poly.variable(3, 3) == Poly.monomial(3, (1, 1, 1))


def test_dimension_mismatch():
    with pytest.raises(DimensionError):
        Poly.variable(2, 1) * Poly.variable(3, 1)


def test_power_rule():
    p = Poly.monomial(3, (2, 1, 0))  # x1^2 x2
    assert p.derive(1) == Poly.monomial(3, (1, 1, 0), 2)


def test_missing_variable_derivative():
    p = parse_poly("x1 + x2", 3)
    assert p.derive(3).is_zero


def test_derivative_index_range():
    with pytest.raises(DimensionError):
        Poly.variable(2, 1).derive(3)


def test_leibniz_rule_random():
    rng = random.Random(7)
    for _ in range(25):
        a = rand_poly(rng, 3)
        b = rand_poly(rng, 3)
        lhs = (a * b).derive(1)
        rhs = a.derive(1) * b + a * b.derive(1)
        assert lhs == rhs


def test_ring_axioms_random():
    rng = random.Random(13)
    for _ in range(20):
        a, b, c = (rand_poly(rng, 2) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_mixed_partials_commute():
    rng = random.Random(29)
    for _ in range(20):
        a = rand_poly(rng, 3, max_degree=4)
        assert a.derive(1).derive(2) == a.derive(2).derive(1)


def test_constants_derive_to_zero():
    assert Poly.const(4, Fraction(5, 3)).derive(2).is_zero


def test_parse_print_round_trip():
    rng = random.Random(41)
    for _ in range(20):
        p = rand_poly(rng, 3)
        assert parse_poly(str(p), 3) == p


def test_parse_examples():
    p = parse_poly("1/2*x1^2*x2 - x3 + 2", 3)
    assert p.coefficient((2, 1, 0)) == Fraction(1, 2)
    assert p.coefficient((0, 0, 1)) == -1
    assert p.coefficient((0, 0, 0)) == 2
    with pytest.raises(DimensionError):
        parse_poly("x4", 3)
    with pytest.raises(DimensionError):
        parse_poly("2**x1", 3)
    with pytest.raises(DimensionError):
        parse_poly("x1 + y2", 3)


def test_monomials_up_to_degree():
    monos = monomials_up_to_degree(2, 2)
    assert len(monos) == 5  # x1, x2, x1^2, x1*x2, x2^2
    assert len(monomials_up_to_degree(3, 4)) == 3 + 6 + 10 + 15


def test_derive_multi():
    p = Poly.monomial(2, (2, 2))
    assert p.derive_multi((1, 1)) == Poly.monomial(2, (1, 1), 4)
    assert p.derive_multi((3, 0)).is_zero


def test_derive_multi_examples():
    p = parse_poly("1/2*x1^3*x2 - 2/3*x2^2*x3 + 5", 3)
    assert p.derive_multi((0, 0, 0)) == p
    assert p.derive_multi((2, 1, 0)) == parse_poly("3*x1", 3)
    assert p.derive_multi((0, 2, 1)) == Poly.const(3, Fraction(-4, 3))
    assert p.derive_multi((4, 0, 0)).is_zero
    assert p.derive_multi((0, 0, 2)).is_zero
    assert Poly.zero(3).derive_multi((1, 0, 0)).is_zero
    with pytest.raises(DimensionError):
        p.derive_multi((1, 0))


def _iterated_derive(p, alpha):
    for var, k in enumerate(alpha, start=1):
        for _ in range(k):
            p = p.derive(var)
    return p


@st.composite
def _poly_and_multi_index(draw):
    d = draw(st.sampled_from((2, 3)))
    exps = st.tuples(*[st.integers(0, 4)] * d)
    coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=7)
    p = Poly(d, draw(st.dictionaries(exps, coeffs, max_size=5)))
    alpha = draw(st.tuples(*[st.integers(0, 6)] * d))
    return p, alpha


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_poly_and_multi_index())
def test_derive_multi_closed_form_matches_iterated_derive(case):
    p, alpha = case
    result = p.derive_multi(alpha)
    assert result == _iterated_derive(p, alpha)
    if not any(alpha):
        assert result == p
    if sum(alpha) > p.degree():
        assert result.is_zero


# -- int when integral, never float ---------------------------------------------

def coefficient_types(p):
    return {type(c) for c in p.terms.values()}


def test_integral_coefficients_stay_int():
    p = Poly(3, {(1, 0, 0): Fraction(4, 2), (0, 1, 1): -3, (2, 0, 0): Fraction(1, 2)})
    assert p.terms == {(1, 0, 0): 2, (0, 1, 1): -3, (2, 0, 0): Fraction(1, 2)}
    assert [type(c) for c in p.terms.values()] == [int, int, Fraction]
    f = Poly(3, {(1, 0, 0): Fraction(4, 2), (0, 1, 1): -3}) + Poly.const(3, Fraction(5))
    g = Poly.variable(3, 2) * Poly.monomial(3, (1, 2, 0), Fraction(-6, 2)) - f
    assert coefficient_types(f) == coefficient_types(g) == {int}
    for value in (f + g, f * g, g.derive(2), (f * g).derive_multi((1, 2, 0)),
                  g.scale(Fraction(6, 3)), g * Fraction(-4, 2), -g):
        assert not value.is_zero and coefficient_types(value) == {int}
    assert coefficient_types(g.scale(Fraction(1, 3))) == {Fraction}


def test_int_and_fraction_coefficients_compare_and_print_alike():
    ints = parse_poly("2*x1^2*x3 - x2 + 7", 3)
    assert coefficient_types(ints) == {int}
    fracs = _wrap(3, {e: Fraction(c) for e, c in ints.terms.items()})
    assert coefficient_types(fracs) == {Fraction}
    assert ints == fracs and fracs == ints
    assert str(ints) == str(fracs) == "2*x1^2*x3 - x2 + 7"
    assert ints * fracs == fracs * fracs
    assert ints.coefficient((0, 0, 0)) == 7 and ints.coefficient((1, 1, 1)) == 0


@pytest.mark.parametrize("make", [
    lambda: Poly(3, {(1, 0, 0): 0.1}),
    lambda: Poly(3, {(1, 0, 0): 1, (0, 1, 0): 2.0}),
    lambda: Poly.const(3, 0.5),
    lambda: Poly.monomial(3, (1, 0, 0), 3.0),
    lambda: Poly.variable(3, 1).scale(0.25),
    lambda: Poly.variable(3, 1) * 0.5,
    lambda: 2.0 * Poly.variable(3, 1),
], ids=["init", "integral-float", "const", "monomial", "scale", "mul", "rmul"])
def test_float_coefficients_are_rejected(make):
    with pytest.raises(TypeError, match="inexact coefficient"):
        make()
