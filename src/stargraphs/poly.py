"""Exact multivariate polynomials over the rationals.

A polynomial in d variables is a sparse map from exponent vectors to nonzero
exact rationals: ``int`` when integral, else ``Fraction``; no floats (a
``float`` coefficient raises ``TypeError``).  Sums, products and derivatives
of ``int`` coefficients stay ``int``, so integer polynomials never pay for
``Fraction`` arithmetic.  All arithmetic is exact; there is no floating point
anywhere in this package.

Each exponent vector (e_1, .., e_d) is held as one packed ``int`` key: every
variable has a field of ``FIELD_BITS`` bits, x1 in the most significant one,
so the key is sum_i e_i * 2^(FIELD_BITS * (d - i)).  The top bit of every
field is a guard bit that a stored key never sets, so an exponent is at most
``EXPONENT_BOUND`` = 2^(FIELD_BITS - 1) - 1.  Hence:

* ``int`` order of keys is the lexicographic order of the exponent tuples;
* the key of a monomial product is the sum of the keys: two fields below the
  guard bit add without a carry into the next field, and a field that passes
  the bound sets its guard bit, which the product loop tests on every key
  it forms (``_mul_terms``), so an overflow raises ``DimensionError`` and
  never wraps;
* d^alpha x^e is nonzero exactly when alpha <= e fieldwise, which one
  subtraction tests: (e | guards) - alpha keeps every guard bit exactly then,
  and clearing the guards leaves the key of e - alpha.

Exponent tuples appear only at the interface: the constructor's input,
``coefficient``, ``monomial``, ``sorted_terms``, ``str``/``parse_poly`` and the
multi-index of ``derive_multi``.  An exponent above the bound raises
``DimensionError`` there.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from math import perm
from typing import Iterable, Mapping

from .errors import DimensionError

Exponents = tuple  # length-d tuple of nonnegative ints, at the interface only

FIELD_BITS = 16
EXPONENT_BOUND = (1 << (FIELD_BITS - 1)) - 1
_FIELD_MASK = (1 << FIELD_BITS) - 1


@cache
def _guards(d: int) -> int:
    """The guard bits of all d fields."""
    return sum((EXPONENT_BOUND + 1) << (FIELD_BITS * i) for i in range(d))


def _pack(exps: Iterable[int], d: int) -> int:
    """The key of the exponent vector ``exps``; a vector of the wrong length,
    or with an exponent below 0 or above ``EXPONENT_BOUND``, raises
    ``DimensionError``."""
    exps = tuple(int(e) for e in exps)
    if len(exps) != d or any(e < 0 for e in exps):
        raise DimensionError("bad exponent vector %r for d=%d" % (exps, d))
    key = 0
    for e in exps:
        if e > EXPONENT_BOUND:
            raise DimensionError("exponent %d above the bound %d in %r"
                                 % (e, EXPONENT_BOUND, exps))
        key = key << FIELD_BITS | e
    return key


def _unpack(key: int, d: int) -> Exponents:
    """The exponent vector of the key ``key``."""
    return tuple([key >> (FIELD_BITS * i) & _FIELD_MASK for i in range(d - 1, -1, -1)])


def _rational(c):
    """c as an exact rational: ``int`` when integral, else ``Fraction``; a
    ``float`` raises ``TypeError``.  The one exact-value rule of the
    package."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        if isinstance(c, float):
            raise TypeError("inexact coefficient %r: use int or Fraction" % (c,))
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _term_sort_key(exps: Exponents):
    # graded order, highest degree first, then x1-major
    return (-sum(exps), tuple(-e for e in exps))


class Poly:
    """Immutable sparse polynomial with exact rational coefficients: ``int``
    when integral, else ``Fraction``; no floats.

    ``terms`` maps the packed key of each exponent vector (see the module
    docstring: ``FIELD_BITS``-bit fields, x1 most significant, a guard bit
    per field, exponents at most ``EXPONENT_BOUND``) to its coefficient; the
    constructor takes exponent tuples, and ``sorted_terms`` and
    ``coefficient`` speak tuples.  A product adds keys, a derivative
    subtracts them, and a product that would pass the bound raises
    ``DimensionError``.

    A Poly hashes by value, consistently with ``==``, so equal polynomials
    built apart share one entry of a value-keyed cache (``operators``).
    Being immutable, a Poly can carry its own derivative jet: ``_jet`` is
    None until the polynomial first enters an operator evaluation as an
    argument (``operators._jet``), and then holds its downset, a table
    alpha -> derivative terms that is only ever extended, as keys reach it,
    and its degree; no reader mutates a derivative dict in it."""

    __slots__ = ("d", "terms", "_jet")

    def __init__(self, d: int, terms: Mapping[Exponents, int | Fraction] | None = None):
        if d < 1:
            raise DimensionError("polynomial needs at least one variable, got d=%d" % d)
        clean: dict[int, int | Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                key = _pack(exps, d)
                coeff = _rational(coeff)
                if coeff:
                    acc = clean.get(key)
                    if acc is None:
                        clean[key] = coeff
                    else:
                        acc += coeff
                        if acc:
                            clean[key] = acc
                        else:
                            del clean[key]
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_jet", None)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, d: int) -> "Poly":
        return cls(d)

    @classmethod
    def const(cls, d: int, c) -> "Poly":
        return cls(d, {(0,) * d: c})

    @classmethod
    def variable(cls, d: int, index: int) -> "Poly":
        """x_index, 1-based."""
        if not 1 <= index <= d:
            raise DimensionError("variable index %d out of range 1..%d" % (index, d))
        exps = [0] * d
        exps[index - 1] = 1
        return cls(d, {tuple(exps): 1})

    @classmethod
    def monomial(cls, d: int, exps: Iterable[int], coeff=1) -> "Poly":
        return cls(d, {tuple(exps): coeff})

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(_unpack(key, self.d)) for key in self.terms)

    def coefficient(self, exps: Iterable[int]) -> int | Fraction:
        return self.terms.get(_pack(exps, self.d), 0)

    def sorted_terms(self) -> list:
        """[(exponent tuple, coefficient)] in graded order, highest degree
        first, then x1-major."""
        d = self.d
        return sorted([(_unpack(key, d), coeff) for key, coeff in self.terms.items()],
                      key=lambda kv: _term_sort_key(kv[0]))

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Poly"):
        if self.d != other.d:
            raise DimensionError("mixed dimensions %d and %d" % (self.d, other.d))

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        res = dict(self.terms)
        _add_terms(res, other.terms)
        return _wrap(self.d, _exact(res))

    def __neg__(self) -> "Poly":
        return _wrap(self.d, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def scale(self, c) -> "Poly":
        c = _rational(c)
        if not c:
            return Poly.zero(self.d)
        return _wrap(self.d, _exact({e: k * c for e, k in self.terms.items()}))

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        self._check(other)
        return _wrap(self.d, _exact(_mul_terms(self.terms, other.terms, {}, _guards(self.d))))

    __rmul__ = __mul__

    def derive(self, var: int) -> "Poly":
        """Partial derivative with respect to x_var, 1-based."""
        if not 1 <= var <= self.d:
            raise DimensionError("derivative index %d out of range 1..%d" % (var, self.d))
        shift = FIELD_BITS * (self.d - var)
        unit = 1 << shift
        res: dict[int, int | Fraction] = {}
        for key, coeff in self.terms.items():
            e = key >> shift & _FIELD_MASK
            if e:
                res[key - unit] = coeff * e
        return _wrap(self.d, _exact(res))

    def derive_multi(self, alpha: Iterable[int]) -> "Poly":
        """Apply the multi-derivative with multiplicity vector alpha (length
        d) in closed form: d^alpha x^e = e!/(e-alpha)! x^(e-alpha), zero
        where some alpha_i > e_i, which one guard-bit subtraction tests."""
        alpha = tuple(alpha)
        d = self.d
        if len(alpha) != d or min(alpha) < 0:
            raise DimensionError("bad derivative multi-index %r for d=%d" % (alpha, d))
        if not any(alpha):
            return self
        if max(alpha) > EXPONENT_BOUND:
            return Poly.zero(d)  # above every exponent
        a = 0
        orders = []  # (shift, order) of each differentiated variable
        for i, k in enumerate(alpha):
            a = a << FIELD_BITS | k
            if k:
                orders.append((FIELD_BITS * (d - 1 - i), k))
        guards = _guards(d)
        res: dict[int, int | Fraction] = {}
        for key, coeff in self.terms.items():
            diff = (key | guards) - a
            if diff & guards == guards:
                for shift, k in orders:
                    coeff *= perm(key >> shift & _FIELD_MASK, k)
                res[diff ^ guards] = coeff
        return _wrap(d, _exact(res))

    # -- comparison / text -------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Poly) and self.d == other.d and self.terms == other.terms

    def __hash__(self):
        return hash((self.d, frozenset(self.terms.items())))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in self.sorted_terms():
            factors = ["x%d^%d" % (i + 1, e) if e > 1 else "x%d" % (i + 1)
                       for i, e in enumerate(exps) if e]
            mono = "*".join(factors)
            mag = abs(coeff)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = "%s*%s" % (mag, mono)
            else:
                body = str(mag)
            if not parts:
                parts.append(body if coeff > 0 else "-" + body)
            else:
                parts.append((" + " if coeff > 0 else " - ") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return "Poly(%d, %s)" % (self.d, str(self))


def _wrap(d: int, terms: dict) -> Poly:
    """Poly over a dict of packed keys to nonzero coefficients, adopted
    without a copy."""
    out = Poly.__new__(Poly)
    object.__setattr__(out, "d", d)
    object.__setattr__(out, "terms", terms)
    object.__setattr__(out, "_jet", None)
    return out


def _exact(terms: dict) -> dict:
    """``terms`` with each integral ``Fraction`` replaced by its ``int``, in
    place: the normal form of a result of ``Fraction`` arithmetic, formed
    once per result rather than per product in ``_mul_terms``."""
    for key, coeff in terms.items():
        if type(coeff) is Fraction and coeff.denominator == 1:
            terms[key] = coeff.numerator
    return terms


def _add_terms(acc: dict, terms: Mapping[int, Fraction], c=1) -> None:
    """acc += c * terms in place, dropping coefficients that cancel."""
    if c != 1:
        terms = {key: coeff * c for key, coeff in terms.items()}
    for key, coeff in terms.items():
        value = acc.get(key)
        value = coeff if value is None else value + coeff
        if value:
            acc[key] = value
        else:
            del acc[key]


def _mul_terms(a: Mapping[int, Fraction], b: Mapping[int, Fraction], acc: dict,
               guards: int) -> dict:
    """acc += a * b in place for term dicts of d variables, ``guards`` being
    ``_guards(d)``: the one polynomial product loop, one key addition per
    pair of terms.  A key with a guard bit set, an exponent above
    ``EXPONENT_BOUND``, raises ``DimensionError`` before it is stored."""
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = e1 + e2
            if key & guards:
                raise DimensionError("a product has an exponent above the bound %d"
                                     % EXPONENT_BOUND)
            value = acc.get(key)
            value = c1 * c2 if value is None else value + c1 * c2
            if value:
                acc[key] = value
            else:
                del acc[key]
    return acc


_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")
_VAR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def parse_poly(text: str, d: int) -> Poly:
    """Parse ``c*x1^a1*...*xd^ad`` sums; terms are separated by + and -."""
    s = text.replace(" ", "")
    if not s:
        raise DimensionError("empty polynomial text")
    # split into signed terms at top level
    chunks: list[str] = []
    cur = ""
    for i, ch in enumerate(s):
        if ch in "+-" and i > 0 and s[i - 1] not in "+-*/^":
            chunks.append(cur)
            cur = ch
        else:
            cur += ch
    chunks.append(cur)
    total = Poly.zero(d)
    for chunk in chunks:
        if chunk in ("", "+", "-"):
            raise DimensionError("malformed polynomial term in %r" % text)
        sign = 1
        while chunk and chunk[0] in "+-":
            if chunk[0] == "-":
                sign = -sign
            chunk = chunk[1:]
        coeff = Fraction(sign)
        exps = [0] * d
        for factor in chunk.split("*"):
            if not factor:
                raise DimensionError("malformed polynomial term in %r" % text)
            if _RATIONAL_RE.match(factor):
                try:
                    coeff *= Fraction(factor)
                except ZeroDivisionError:
                    raise DimensionError("zero denominator in %r" % text) from None
                continue
            m = _VAR_RE.match(factor)
            if not m:
                raise DimensionError("unrecognized factor %r in %r" % (factor, text))
            idx = int(m.group(1))
            if not 1 <= idx <= d:
                raise DimensionError("variable x%d out of range for d=%d" % (idx, d))
            exps[idx - 1] += int(m.group(2) or 1)
        total = total + Poly.monomial(d, exps, coeff)
    return total


def _compositions(total: int, slots: int):
    if slots == 1:
        yield (total,)
        return
    for e in range(total + 1):
        for rest in _compositions(total - e, slots - 1):
            yield (e,) + rest


def monomials_up_to_degree(d: int, max_degree: int, min_degree: int = 1) -> list[Poly]:
    """All monic monomials with min_degree <= total degree <= max_degree, sorted."""
    exps: list[Exponents] = []
    for deg in range(min_degree, max_degree + 1):
        exps.extend(_compositions(deg, d))
    exps.sort(key=_term_sort_key)
    return [Poly.monomial(d, e) for e in exps]
