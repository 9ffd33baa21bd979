"""Translation of graphs into polydifferential operators and exact evaluation.

A graph acts on m functions by summing over all assignments of a coordinate
index to every edge: each internal vertex contributes its bivector entry
differentiated along the incoming edge indices, each argument vertex its
function differentiated likewise.  ``compile_graph`` produces the symbolic
m-linear operator once so repeated evaluations stay cheap: it searches the
index pairs depth first, vertex by vertex, multiplies each vertex factor into
the shared prefix coefficient once and cuts a subtree at its first zero
factor.  ``compile_sum`` and ``PolyDiffOperator.apply`` accumulate into one
exponent dict each; ``apply`` multiplies the argument derivatives (closed-form
``Poly.derive_multi``) before the coefficient polynomial.

``oracle_delta`` and ``oracle_compose`` evaluate the Hochschild coboundary and
the insertion composition purely at operator level (no graph rewriting); they
are the reference implementations that the graph-level constructions in
``homology`` are tested against.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import DimensionError
from .graphs import DirectedGraph, GraphClass, GraphSum
from .poisson import PoissonStructure
from .poly import Poly, _add_terms, _mul_terms, _wrap


class PolyDiffOperator:
    """m-linear differential operator: map from m-tuples of derivative
    multi-indices to Poly coefficients."""

    __slots__ = ("d", "arity", "terms")

    def __init__(self, d: int, arity: int, terms=None):
        clean: dict[tuple, Poly] = {}
        if terms:
            for key, poly in terms.items():
                if not poly.is_zero:
                    clean[key] = poly
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("PolyDiffOperator is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def apply(self, args: Sequence[Poly]) -> Poly:
        if len(args) != self.arity:
            raise DimensionError("operator arity %d, got %d arguments"
                                 % (self.arity, len(args)))
        for f in args:
            if f.d != self.d:
                raise DimensionError("argument dimension %d does not match d=%d"
                                     % (f.d, self.d))
        total: dict[tuple, Fraction] = {}
        deriv_caches: list[dict] = [{} for _ in args]  # per slot: alpha -> terms
        degrees = [f.degree() for f in args]
        for key, coeff in self.terms.items():
            # the product of the argument derivatives first (one term each on
            # monomial arguments), the coefficient polynomial last
            product = None
            for slot, alpha in enumerate(key):
                der = deriv_caches[slot].get(alpha)
                if der is None:
                    # a derivative of order above the degree vanishes
                    der = deriv_caches[slot][alpha] = (
                        {} if sum(alpha) > degrees[slot]
                        else args[slot].derive_multi(alpha).terms)
                if not der:
                    break
                product = der if product is None else _mul_terms(product, der, {})
            else:
                _mul_terms(product, coeff.terms, total)
        return _wrap(self.d, total)


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
        for op_key, poly in gop.terms.items():
            _add_terms(acc.setdefault(op_key, {}), poly.terms, coeff)
    total = PolyDiffOperator(p.d, s.arity,
                             {op_key: _wrap(p.d, terms) for op_key, terms in acc.items()})
    cache[key] = total
    return total


def apply_graph(s, p: PoissonStructure, args: Sequence[Poly]) -> Poly:
    """Evaluate a GraphSum (or a single labeled graph / class) on concrete
    polynomial arguments."""
    for f in args:
        if f.d != p.d:
            raise DimensionError("argument dimension %d does not match d=%d"
                                 % (f.d, p.d))
    if isinstance(s, DirectedGraph):
        if len(args) != s.m:
            raise DimensionError("graph arity %d, got %d arguments" % (s.m, len(args)))
        return compile_graph(s, p).apply(args)
    if isinstance(s, GraphClass):
        s = GraphSum.single(s.rep)
    if not isinstance(s, GraphSum):
        raise TypeError("expected GraphSum, GraphClass or DirectedGraph")
    if len(args) != s.arity:
        raise DimensionError("sum arity %d, got %d arguments" % (s.arity, len(args)))
    return compile_sum(s, p).apply(args)


# ---------------------------------------------------------------------------
# operator-level oracles


def oracle_delta(s, p: PoissonStructure, args: Sequence[Poly]) -> Poly:
    """Hochschild coboundary [m0, .] evaluated literally:

    (delta C)(f_0..f_m) = C(f_0..f_{m-1}) f_m + (-1)^{m-1} f_0 C(f_1..f_m)
                          - (-1)^{m-1} sum_j (-1)^j C(.., f_j f_{j+1}, ..).
    """
    arity = s.m if isinstance(s, DirectedGraph) else (
        s.rep.m if isinstance(s, GraphClass) else s.arity)
    if len(args) != arity + 1:
        raise DimensionError("coboundary of arity-%d cochain needs %d arguments, got %d"
                             % (arity, arity + 1, len(args)))
    m = arity
    sgn = 1 if (m - 1) % 2 == 0 else -1
    total = apply_graph(s, p, args[:m]) * args[m]
    total = total + (args[0] * apply_graph(s, p, args[1:])).scale(sgn)
    for j in range(m):
        merged = list(args[:j]) + [args[j] * args[j + 1]] + list(args[j + 2:])
        inner = apply_graph(s, p, merged)
        term_sign = -sgn if j % 2 == 0 else sgn
        total = total + inner.scale(term_sign)
    return total


def oracle_compose(s1, s2, p: PoissonStructure, args: Sequence[Poly]) -> Poly:
    """Insertion composition evaluated by slot substitution:

    (D1 o D2)(f_0..f_{k1+k2}) =
        sum_{0<=j<=k1} (-1)^{j k2} D1(f_0.., D2(f_j..f_{j+k2}), ..f_{k1+k2}).
    """
    m1 = s1.arity if isinstance(s1, GraphSum) else s1.m
    m2 = s2.arity if isinstance(s2, GraphSum) else s2.m
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
    """[D1, D2] = D1 o D2 - (-1)^{k1 k2} D2 o D1, evaluated."""
    m1 = s1.arity if isinstance(s1, GraphSum) else s1.m
    m2 = s2.arity if isinstance(s2, GraphSum) else s2.m
    k1, k2 = m1 - 1, m2 - 1
    left = oracle_compose(s1, s2, p, args)
    right = oracle_compose(s2, s1, p, args)
    return left - right if (k1 * k2) % 2 == 0 else left + right
