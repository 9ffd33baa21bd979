import itertools
import random
from fractions import Fraction

import pytest

from oracles import operator_jacobiator
from stargraphs.errors import DimensionError, PresetError
from stargraphs.poisson import (PoissonStructure, jacobiator, preset_from_string,
                                preset_poisson)
from stargraphs.poly import Poly, parse_poly

x3 = lambda i: Poly.variable(3, i)


def rand_bivector(rng, d=3, max_degree=2):
    entries = {}
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            terms = {}
            for _ in range(2):
                exps = tuple(rng.randint(0, 1) for _ in range(d))
                if sum(exps) <= max_degree:
                    terms[exps] = Fraction(rng.randint(-2, 2))
            entries[(i, j)] = Poly(d, terms)
    return PoissonStructure(d, entries, label="random")


# -- structure basics ---------------------------------------------------------

def test_antisymmetric_storage():
    p = PoissonStructure(3, {(2, 1): x3(3)})
    assert p.entry(1, 2) == -x3(3)
    assert p.entry(2, 1) == x3(3)
    assert p.entry(1, 1).is_zero
    assert p.is_poisson


def test_duplicate_entry_rejected():
    with pytest.raises(DimensionError):
        PoissonStructure(3, [((1, 2), x3(3)), ((2, 1), x3(3))])
    # a position whose first value is zero is given too: in the other
    # orientation, and again in the same one
    with pytest.raises(DimensionError):
        PoissonStructure(3, {(1, 2): Poly.zero(3), (2, 1): x3(1)})
    with pytest.raises(DimensionError):
        PoissonStructure(3, [((1, 2), Poly.zero(3)), ((1, 2), x3(3))])


# -- jacobiator ---------------------------------------------------------------

def test_so3_jacobiator_vanishes():
    p = preset_poisson("so3")
    assert jacobiator(p) == {}
    assert p.is_poisson


def test_jacobian_family_always_poisson():
    rng = random.Random(5)
    for _ in range(5):
        terms = {}
        for _ in range(3):
            exps = tuple(rng.randint(0, 2) for _ in range(3))
            terms[exps] = Fraction(rng.randint(-3, 3))
        phi = Poly(3, terms)
        if phi.is_zero:
            continue
        p = preset_poisson("jacobian", phi)
        assert p.is_poisson


def test_nonzero_jacobiator():
    # p12 = x2, p23 = x1 fails the Jacobi identity: J^123 = -x1
    p = PoissonStructure(3, {(1, 2): x3(2), (2, 3): x3(1)})
    assert jacobiator(p) == {(1, 2, 3): -x3(1)}
    assert not p.is_poisson


def test_spec_fixture_is_actually_poisson():
    # direct expansion of J^123 for p12=x1, p13=0, p23=x1 gives zero; the
    # structure satisfies the Jacobi identity
    p = PoissonStructure(3, {(1, 2): x3(1), (2, 3): x3(1)})
    assert jacobiator(p) == {}
    assert p.is_poisson


# -- operator-level oracle ----------------------------------------------------

def test_jacobiator_matches_operator_level_brackets():
    rng = random.Random(23)
    presets = [preset_poisson("symplectic2"), preset_poisson("so3"), preset_poisson("sl2"),
               preset_poisson("jacobian", Poly.monomial(3, (1, 1, 1))),
               preset_poisson("free2", parse_poly("x1^2*x2", 2))]
    for p in presets:
        assert operator_jacobiator(p) == jacobiator(p) == {}
    non_poisson = 0
    for _ in range(8):
        p = rand_bivector(rng)
        expected = operator_jacobiator(p)
        assert jacobiator(p) == expected
        assert p.is_poisson == (not expected)
        non_poisson += not p.is_poisson
    assert non_poisson > 4
    p = rand_bivector(random.Random(41), d=4)
    expected = operator_jacobiator(p)
    assert sorted(expected) == list(itertools.combinations(range(1, 5), 3))
    assert jacobiator(p) == expected


def test_degree3_vanishes_in_d2():
    p = preset_poisson("free2", parse_poly("x1^3", 2))
    assert jacobiator(p) == {}


# -- presets ------------------------------------------------------------------

def test_symplectic2():
    p = preset_poisson("symplectic2")
    assert p.entry(1, 2) == Poly.const(2, 1)
    assert p.is_poisson


def test_jacobian_sphere_components():
    p = preset_poisson("jacobian", parse_poly("x1^2+x2^2+x3^2", 3))
    assert p.entry(1, 2) == x3(3).scale(2)
    assert p.entry(2, 3) == x3(1).scale(2)
    assert p.entry(3, 1) == x3(2).scale(2)


def test_preset_errors():
    with pytest.raises(PresetError):
        preset_poisson("nope")
    with pytest.raises(PresetError):
        preset_poisson("jacobian")  # missing parameter
    with pytest.raises(PresetError):
        preset_poisson("jacobian", Poly.variable(2, 1))  # wrong dimension
    # a parameter of a preset that takes none is rejected before it is parsed
    for name in ("symplectic2", "so3", "sl2"):
        with pytest.raises(PresetError, match="takes no parameter"):
            preset_poisson(name, Poly.variable(3, 1))
        for param in ("x1", "x3", "1/0*x1"):
            with pytest.raises(PresetError, match="takes no parameter"):
                preset_from_string("%s:%s" % (name, param))
    for spec in ("nope", "nope:x1", "nope:1/0*x1"):
        with pytest.raises(PresetError, match="unknown preset"):
            preset_from_string(spec)
    with pytest.raises(PresetError, match="unknown preset"):
        preset_poisson("nope", Poly.variable(2, 1))


def test_preset_from_string():
    p = preset_from_string("jacobian:x1*x2*x3")
    assert p.entry(1, 2) == Poly.monomial(3, (1, 1, 0))
    q = preset_from_string("free2:x1^3")
    assert q.entry(1, 2) == Poly.monomial(2, (3, 0))
    assert preset_from_string("so3").label == "so3"
