"""Exact multivariate polynomials over the rationals.

A polynomial in d variables is a sparse map from exponent vectors (length-d
tuples of nonnegative ints) to nonzero exact rationals: ``int`` when integral,
else ``Fraction``; no floats (a ``float`` coefficient raises ``TypeError``).
Sums, products and derivatives of ``int`` coefficients stay ``int``, so
integer polynomials never pay for ``Fraction`` arithmetic.  All arithmetic is
exact; there is no floating point anywhere in this package.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import perm
from operator import add, sub
from typing import Iterable, Mapping

from .errors import DimensionError

Exponents = tuple  # length-d tuple of nonnegative ints


def _rational(c):
    """c as an exact rational: ``int`` when integral, else ``Fraction``."""
    if type(c) is int:
        return c
    if isinstance(c, float):
        raise TypeError("inexact coefficient %r: use int or Fraction" % (c,))
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _term_sort_key(exps: Exponents):
    # graded order, highest degree first, then x1-major
    return (-sum(exps), tuple(-e for e in exps))


class Poly:
    """Immutable sparse polynomial with exact rational coefficients: ``int``
    when integral, else ``Fraction``; no floats."""

    __slots__ = ("d", "terms")

    def __init__(self, d: int, terms: Mapping[Exponents, int | Fraction] | None = None):
        if d < 1:
            raise DimensionError("polynomial needs at least one variable, got d=%d" % d)
        clean: dict[Exponents, int | Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(int(e) for e in exps)
                if len(exps) != d or any(e < 0 for e in exps):
                    raise DimensionError("bad exponent vector %r for d=%d" % (exps, d))
                coeff = _rational(coeff)
                if coeff:
                    acc = clean.get(exps)
                    if acc is None:
                        clean[exps] = coeff
                    else:
                        acc += coeff
                        if acc:
                            clean[exps] = acc
                        else:
                            del clean[exps]
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "terms", clean)

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
        return max(sum(e) for e in self.terms)

    def coefficient(self, exps: Iterable[int]) -> int | Fraction:
        return self.terms.get(tuple(exps), 0)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _term_sort_key(kv[0]))

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
        return _wrap(self.d, res)

    def __neg__(self) -> "Poly":
        return _wrap(self.d, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def scale(self, c) -> "Poly":
        c = _rational(c)
        if not c:
            return Poly.zero(self.d)
        return _wrap(self.d, {e: k * c for e, k in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        self._check(other)
        return _wrap(self.d, _mul_terms(self.terms, other.terms, {}))

    __rmul__ = __mul__

    def derive(self, var: int) -> "Poly":
        """Partial derivative with respect to x_var, 1-based."""
        if not 1 <= var <= self.d:
            raise DimensionError("derivative index %d out of range 1..%d" % (var, self.d))
        i = var - 1
        res: dict[Exponents, Fraction] = {}
        for exps, coeff in self.terms.items():
            e = exps[i]
            if e:
                key = exps[:i] + (e - 1,) + exps[i + 1:]
                res[key] = coeff * e
        return _wrap(self.d, res)

    def derive_multi(self, alpha: Iterable[int]) -> "Poly":
        """Apply the multi-derivative with multiplicity vector alpha (length
        d) in closed form: d^alpha x^a = a!/(a-alpha)! x^(a-alpha), zero
        where some alpha_i > a_i."""
        alpha = tuple(alpha)
        if len(alpha) != self.d:
            raise DimensionError("bad derivative multi-index %r for d=%d" % (alpha, self.d))
        if not any(alpha):
            return self
        res: dict[Exponents, Fraction] = {}
        for exps, coeff in self.terms.items():
            factor = 1
            for e, k in zip(exps, alpha):
                factor *= perm(e, k)  # 0 when k > e
            if factor:
                res[tuple(map(sub, exps, alpha))] = coeff * factor
        return _wrap(self.d, res)

    # -- comparison / text -------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Poly) and self.d == other.d and self.terms == other.terms

    def __ne__(self, other):
        return not self.__eq__(other)

    __hash__ = None  # mutable-dict backed; not usable as a dict key

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
    """Poly over a dict of nonzero coefficients, adopted without a copy."""
    out = Poly.__new__(Poly)
    object.__setattr__(out, "d", d)
    object.__setattr__(out, "terms", terms)
    return out


def _add_terms(acc: dict, terms: Mapping[Exponents, Fraction], c=1) -> None:
    """acc += c * terms in place, dropping coefficients that cancel."""
    if c != 1:
        terms = {exps: coeff * c for exps, coeff in terms.items()}
    for exps, coeff in terms.items():
        value = acc.get(exps)
        value = coeff if value is None else value + coeff
        if value:
            acc[exps] = value
        else:
            del acc[exps]


def _mul_terms(a: Mapping[Exponents, Fraction], b: Mapping[Exponents, Fraction],
               acc: dict) -> dict:
    """acc += a * b in place for term dicts: the one polynomial product loop."""
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(map(add, e1, e2))
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
