"""Translation of graphs into polydifferential operators and exact evaluation.

A graph acts on m functions by summing over all assignments of a coordinate
index to every edge: each internal vertex contributes its Poisson-tensor entry
differentiated along the incoming edge indices, each argument vertex its
function differentiated likewise.  ``compile_graph`` produces the symbolic
m-linear operator once so repeated evaluations stay cheap: it searches the
index pairs depth first, vertex by vertex, multiplies each vertex factor into
the shared prefix coefficient once and cuts a subtree at its first zero
factor.  ``compile_sum`` accumulates into one exponent dict.  ``Poly`` keeps
integral coefficients as ``int``, and ``compile_sum`` applies an integral
``GraphSum`` coefficient as an ``int``, so integral cochains on an integral
fixture evaluate on integral arguments without any ``Fraction`` arithmetic.

Evaluation is one pass, ``_accumulate``, over operator terms indexed as
key -> [(column, coefficient)] and grouped by the derivative order of each
slot.  For each key it forms the product of the argument derivatives once
(closed-form ``Poly.derive_multi``, each derivative taken once per argument)
and multiplies it into every column that has the key; groups whose orders
exceed the argument degrees are skipped.  ``PolyDiffOperator.apply`` is the
one-operator, one-tuple case.  ``CoboundaryColumns`` is the many-column
case: the Hochschild coboundaries of many cochains on one argument tuple,
whose m + 2 inner argument tuples enter each key as one signed combination.

``oracle_delta``, ``oracle_compose`` and ``oracle_gerstenhaber`` evaluate the
Hochschild coboundary, the insertion composition and the Gerstenhaber bracket
at operator level (no graph rewriting): ``oracle_delta`` is the one-column
case of ``CoboundaryColumns``, the other two substitute slot values.  They
are the reference implementations that the graph-level constructions in
``homology`` are tested against, and they also state the equations of the
solver's evaluation route: its unknown columns are ``CoboundaryColumns`` of
the basis graphs and its right-hand side is made of ``oracle_gerstenhaber``
values.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DimensionError
from .graphs import DirectedGraph, GraphClass, GraphSum
from .poisson import PoissonStructure
from .poly import Poly, _add_terms, _mul_terms, _wrap


class PolyDiffOperator:
    """m-linear differential operator: map from m-tuples of derivative
    multi-indices to Poly coefficients."""

    __slots__ = ("d", "arity", "terms", "_groups")

    def __init__(self, d: int, arity: int, terms=None):
        clean: dict[tuple, Poly] = {}
        if terms:
            for key, poly in terms.items():
                if not poly.is_zero:
                    clean[key] = poly
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_groups", None)

    def __setattr__(self, name, value):
        raise AttributeError("PolyDiffOperator is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def apply(self, args: Sequence[Poly]) -> Poly:
        """The operator's value: the one-column, one-tuple case of
        ``_accumulate``."""
        _check_args(self.d, self.arity, args)
        if self._groups is None:
            object.__setattr__(self, "_groups", _group_terms([self]))
        return _wrap(self.d, _accumulate(self._groups, 1, [(args, None)])[0])


def _check_args(d: int, arity: int, args: Sequence[Poly]) -> None:
    if len(args) != arity:
        raise DimensionError("operator arity %d, got %d arguments" % (arity, len(args)))
    for f in args:
        if f.d != d:
            raise DimensionError("argument dimension %d does not match d=%d" % (f.d, d))


def _group_terms(ops: Sequence[PolyDiffOperator]) -> list:
    """The terms of the operators ops[0], ops[1], .. (the columns), indexed
    once as key -> [(column, coefficient terms)] and grouped by the
    derivative order of each slot: [(slot orders, [(key, entries)])]."""
    index: dict[tuple, list] = {}
    for col, op in enumerate(ops):
        for key, poly in op.terms.items():
            index.setdefault(key, []).append((col, poly.terms))
    groups: dict[tuple, list] = {}
    for key, entries in index.items():
        groups.setdefault(tuple(map(sum, key)), []).append((key, entries))
    return list(groups.items())


def _slot_products(args: Sequence[Poly], derivatives: dict):
    """key -> product of the argument derivatives the key names, as a term
    dict (empty when it vanishes).  ``derivatives`` maps id(argument) ->
    {alpha: terms}, so each derivative of an argument is taken once however
    many tuples and slots it fills."""
    caches = [derivatives.setdefault(id(f), {}) for f in args]
    degrees = [f.degree() for f in args]

    def product(key):
        out = None
        for slot, alpha in enumerate(key):
            der = caches[slot].get(alpha)
            if der is None:
                # a derivative of order above the degree vanishes
                der = caches[slot][alpha] = (
                    {} if sum(alpha) > degrees[slot]
                    else args[slot].derive_multi(alpha).terms)
            if not der:
                return der
            out = der if out is None else _mul_terms(out, der, {})
        return out

    return product


def _accumulate(groups: list, width: int, tuples: list) -> list:
    """The one evaluation pass of grouped terms (``_group_terms``) on a
    linear combination of argument tuples.  ``tuples`` holds (argument
    tuple, factor terms); a key's argument value is the sum over the tuples
    of the product of their derivatives times the factor (None: one tuple,
    factor 1).  The value is formed once per key and multiplied into every
    column that has the key; a group whose slot orders exceed the argument
    degrees in every tuple is skipped.  Returns one term dict per column."""
    degrees = [[f.degree() for f in args] for args, _ in tuples]
    derivatives: dict = {}
    products = [(_slot_products(args, derivatives), factor) for args, factor in tuples]
    if tuples[0][1] is None:
        value_of = products[0][0]
    else:
        def value_of(key):
            acc: dict = {}
            for product, factor in products:
                value = product(key)
                if value:
                    _mul_terms(value, factor, acc)
            return acc
    totals: list[dict] = [{} for _ in range(width)]
    for orders, items in groups:
        if not any(all(map(int.__le__, orders, degs)) for degs in degrees):
            continue
        for key, entries in items:
            value = value_of(key)
            if value:
                for col, coeff in entries:
                    _mul_terms(value, coeff, totals[col])
    return totals


def compile_graph(g: DirectedGraph, p: PoissonStructure) -> PolyDiffOperator:
    """Exact operator of one labeled graph (no canonicalization: transposing
    an L/R pair flips the sign of the result).

    Depth-first over the index pair assigned to each internal vertex, from
    the last position to the first (canonical representatives point at low
    labels, so a vertex's edge sources mostly sit at later positions).  A
    vertex's factor is multiplied into the prefix coefficient as soon as the
    vertex and all its edge sources are assigned, and a zero factor cuts the
    whole subtree.  A vertex with k incoming edges only takes the pairs
    whose entry has degree >= k."""
    d, n, m = p.d, g.n, g.m
    pairs = p.nonzero_ordered_pairs()
    if not pairs:
        return PolyDiffOperator(d, m, {})
    in_edges = g.in_edges
    arg_sources = [in_edges.get(t, ()) for t in range(1, m + 1)]
    vertex_sources = [in_edges.get(m + 1 + pos, ()) for pos in range(n)]
    degree = {(i, j): p.entry(i, j).degree() for i, j in pairs}
    choices = [[pair for pair in pairs if degree[pair] >= len(sources)]
               for sources in vertex_sources]
    # ready[t]: the vertices whose factor is fixed once positions t..n-1
    # are assigned
    ready: list[list[int]] = [[] for _ in range(n)]
    for pos, sources in enumerate(vertex_sources):
        ready[min([pos] + [src for src, _side in sources])].append(pos)
    assign: list = [None] * n
    acc: dict[tuple, dict] = {}

    def alpha_of(sources):
        alpha = [0] * d
        for src, side in sources:
            alpha[assign[src][side] - 1] += 1
        return tuple(alpha)

    def visit(pos: int, prefix):
        if pos < 0:
            key = tuple(alpha_of(sources) for sources in arg_sources)
            _add_terms(acc.setdefault(key, {}), prefix)
            return
        for pair in choices[pos]:
            assign[pos] = pair
            coeff = prefix
            for v in ready[pos]:
                i, j = assign[v]
                factor = p.entry_derivative(i, j, alpha_of(vertex_sources[v])).terms
                if not factor:
                    break
                coeff = factor if coeff is None else _mul_terms(coeff, factor, {})
            else:
                visit(pos - 1, coeff)

    visit(n - 1, None)
    return PolyDiffOperator(d, m, {key: _wrap(d, terms) for key, terms in acc.items()})


def compile_sum(s: GraphSum, p: PoissonStructure) -> PolyDiffOperator:
    """Operator of a whole graph sum; cached on the Poisson structure."""
    cache = p._op_cache
    key = s.cache_key()
    op = cache.get(key)
    if op is not None:
        return op
    acc: dict[tuple, dict] = {}
    for cls, coeff in s.terms():
        gop = cache.get(cls.rep.key)
        if gop is None:
            gop = compile_graph(cls.rep, p)
            cache[cls.rep.key] = gop
        if coeff.denominator == 1:
            coeff = coeff.numerator  # integral operators stay in int arithmetic
        for op_key, poly in gop.terms.items():
            _add_terms(acc.setdefault(op_key, {}), poly.terms, coeff)
    total = PolyDiffOperator(p.d, s.arity,
                             {op_key: _wrap(p.d, terms) for op_key, terms in acc.items()})
    cache[key] = total
    return total


def _arity(s) -> int:
    if isinstance(s, DirectedGraph):
        return s.m
    if isinstance(s, GraphClass):
        return s.rep.m
    if isinstance(s, GraphSum):
        return s.arity
    raise TypeError("expected GraphSum, GraphClass or DirectedGraph")


def _operator_of(s, p: PoissonStructure) -> PolyDiffOperator:
    """Operator of a GraphSum, a GraphClass or a labeled graph (the latter
    compiled as labeled, without canonicalization)."""
    if isinstance(s, DirectedGraph):
        return compile_graph(s, p)
    return compile_sum(GraphSum.single(s.rep) if isinstance(s, GraphClass) else s, p)


def apply_graph(s, p: PoissonStructure, args: Sequence[Poly]) -> Poly:
    """Evaluate a GraphSum (or a single labeled graph / class) on concrete
    polynomial arguments."""
    for f in args:
        if f.d != p.d:
            raise DimensionError("argument dimension %d does not match d=%d"
                                 % (f.d, p.d))
    arity = _arity(s)
    if len(args) != arity:
        raise DimensionError("%s arity %d, got %d arguments"
                             % ("graph" if isinstance(s, DirectedGraph) else "sum",
                                arity, len(args)))
    return _operator_of(s, p).apply(args)


class CoboundaryColumns:
    """Hochschild coboundaries [m0, .] of many cochains of one arity m on one
    Poisson structure, evaluated side by side:

    (delta C)(f_0..f_m) = C(f_0..f_{m-1}) f_m + (-1)^{m-1} f_0 C(f_1..f_m)
                          - (-1)^{m-1} sum_j (-1)^j C(.., f_j f_{j+1}, ..).

    The cochains are compiled and their terms grouped once
    (``_group_terms``).  ``values`` forms each f_j f_{j+1} once and makes
    one ``_accumulate`` pass over the m + 2 argument tuples, each with its
    outer factor and sign, for all the columns at once."""

    __slots__ = ("d", "arity", "width", "groups")

    def __init__(self, sums: Sequence, p: PoissonStructure):
        arities = {_arity(s) for s in sums}
        if len(arities) != 1:
            raise DimensionError("coboundary columns need one common arity, got %s"
                                 % sorted(arities))
        self.d = p.d
        self.arity = arities.pop()
        self.width = len(sums)
        self.groups = _group_terms([_operator_of(s, p) for s in sums])

    def values(self, args: Sequence[Poly]) -> list:
        """[(delta C_col)(args) for every column], as Polys."""
        d, m = self.d, self.arity
        if len(args) != m + 1:
            raise DimensionError("coboundary of arity-%d cochain needs %d arguments, got %d"
                                 % (m, m + 1, len(args)))
        args = tuple(args)
        _check_args(d, m + 1, args)
        sgn = 1 if (m - 1) % 2 == 0 else -1
        tuples = [(args[:m], args[m].terms), (args[1:], args[0].scale(sgn).terms)]
        for j in range(m):
            merged = args[:j] + (args[j] * args[j + 1],) + args[j + 2:]
            tuples.append((merged, {(0,) * d: -sgn if j % 2 == 0 else sgn}))
        return [_wrap(d, terms) for terms in _accumulate(self.groups, self.width, tuples)]


# ---------------------------------------------------------------------------
# operator-level oracles


def oracle_delta(s, p: PoissonStructure, args: Sequence[Poly]) -> Poly:
    """Hochschild coboundary of one cochain: the one-column case of
    ``CoboundaryColumns``."""
    return CoboundaryColumns([s], p).values(args)[0]


def oracle_compose(s1, s2, p: PoissonStructure, args: Sequence[Poly]) -> Poly:
    """Insertion composition evaluated by slot substitution:

    (D1 o D2)(f_0..f_{k1+k2}) =
        sum_{0<=j<=k1} (-1)^{j k2} D1(f_0.., D2(f_j..f_{j+k2}), ..f_{k1+k2}).
    """
    m1, m2 = _arity(s1), _arity(s2)
    k1, k2 = m1 - 1, m2 - 1
    if len(args) != m1 + m2 - 1:
        raise DimensionError("composition of arities (%d, %d) needs %d arguments, got %d"
                             % (m1, m2, m1 + m2 - 1, len(args)))
    total = Poly.zero(p.d)
    for j in range(k1 + 1):
        inner = apply_graph(s2, p, args[j:j + m2])
        outer_args = list(args[:j]) + [inner] + list(args[j + m2:])
        value = apply_graph(s1, p, outer_args)
        if (j * k2) % 2:
            value = -value
        total = total + value
    return total


def oracle_gerstenhaber(s1, s2, p: PoissonStructure, args: Sequence[Poly]) -> Poly:
    """[D1, D2] = D1 o D2 - (-1)^{k1 k2} D2 o D1, evaluated (D o D once when
    D1 == D2)."""
    m1, m2 = _arity(s1), _arity(s2)
    k1, k2 = m1 - 1, m2 - 1
    left = oracle_compose(s1, s2, p, args)
    right = left if s1 == s2 else oracle_compose(s2, s1, p, args)
    return left - right if (k1 * k2) % 2 == 0 else left + right
