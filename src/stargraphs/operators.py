"""Translation of graphs into polydifferential operators and exact evaluation.

A graph acts on m functions by summing over all assignments of a coordinate
index to every edge: each internal vertex contributes its Poisson-tensor entry
differentiated along the incoming edge indices, each argument vertex its
function differentiated likewise.  ``compile_graph`` produces the symbolic
m-linear operator once so repeated evaluations stay cheap: it searches the
index pairs depth first, vertex by vertex, keeps per vertex a count of the
indices on its incoming edges, multiplies each vertex factor into the
shared prefix coefficient once and cuts a subtree at its first zero factor;
a graph with a vertex of more incoming edges than any entry has degree is
zero without a search.  Relabeling the arguments of a graph only permutes
the slots of its operator, so a graph is compiled once per orbit of
argument relabelings (``_anchored``): the orbit's least class
representative, its anchor, is compiled and cached on the Poisson
structure, and each class of the orbit is the anchor's operator with its
slots permuted and the orbit sign applied.  The orbit of a class is looked
up once (``graphs._orbit``) and recorded beside the class tables for every
class in it, so a class of a known orbit costs no lookup.  The in-degree
gate (``_Gate``) adds the anchor's terms under the permuted slot keys, with
the sign folded into the sum's ``int`` numerator, into one dict per key in
``int`` arithmetic, and divides by the sum's denominator once at the end;
no permuted operator is built.  A sum's operator (``_gated``) is cached
under the sum.  Every entry point that takes a labeled graph
(``apply_graph``, the oracles, ``CoboundaryColumns``) turns it into
``GraphSum.single`` once, which carries its class sign, so nothing is
compiled or cached per labeled graph.  ``Poly`` keeps integral
coefficients as ``int``, so integral cochains on an integral fixture
evaluate on integral arguments without any ``Fraction`` arithmetic, and
its packed exponent keys make every monomial product of compilation and
evaluation one ``int`` addition.

Evaluation is one pass, ``_accumulate``, over operator terms stored in a
per-slot trie: slot-1 derivative multi-index -> slot-2 multi-index -> .. ->
[(column, coefficient)] in column order.  A derivative of an argument is
nonzero exactly when its multi-index lies in the argument's downset (below
some exponent of it), so each argument tuple walks the trie along its
arguments' downsets and reaches only the keys whose product of derivatives
is nonzero; a subtree is cut at its first vanishing slot.  Each argument's
downset and derivatives (closed-form ``Poly.derive_multi``) are settled once
per argument object: a ``Poly`` is immutable, so they are kept on it as its
jet (``_jet``) and serve every later pass, tuple and slot it fills.  A
reached key's value is formed once and multiplied into every column of its
leaf; only the columns touched are returned.  ``PolyDiffOperator.apply`` is
the one-operator, one-tuple case.  ``CoboundaryColumns`` is the many-column
case: the Hochschild coboundaries of many cochains on one argument tuple,
whose m + 2 inner argument tuples enter each key as one signed
combination; it forms each argument product f_j f_{j+1} once per argument
pair.

Every evaluation goes through one in-degree gate (``_Gate``), which
compiles a group of graphs only once some argument tuple admits it:
``CoboundaryColumns`` is a gate over many columns, and ``apply_graph``,
``InnerValues`` and the outer pass of ``_compose`` use a sum's gated
operator (``_gated``).  ``compile_sum`` is the same operator with every
group compiled: the full operator, for ``is_zero``, the residual checks
and the CLI.

``oracle_delta``, ``oracle_compose`` and ``oracle_gerstenhaber`` evaluate the
Hochschild coboundary, the insertion composition and the Gerstenhaber bracket
at operator level (no graph rewriting): ``oracle_delta`` is the one-column
case of ``CoboundaryColumns``, the other two substitute slot values by one
composition formula (``_compose``) that takes the inner values from
``apply_graph`` and evaluates the outer gated operator on all its
substitutions in one signed ``_accumulate`` pass.  They are the reference
implementations that the graph-level constructions in ``homology`` are
tested against, and they also state the equations of the solver's
evaluation route: its unknown columns are ``CoboundaryColumns`` of the
basis graphs and its right-hand side is the same bracket formula
(``_bracket``) with the inner values taken from a memo (``InnerValues``),
so each is formed once per argument pair.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Sequence

from .errors import DimensionError
from .graphs import DirectedGraph, GraphSum, _orbit
from .poisson import PoissonStructure
from .poly import Poly, _add_terms, _exact, _guards, _mul_terms, _rational, _unpack, _wrap


class PolyDiffOperator:
    """m-linear differential operator: map from m-tuples of derivative
    multi-indices to Poly coefficients.  A gated operator (``_gated``) holds
    in ``terms`` only the groups of its graphs compiled so far."""

    __slots__ = ("d", "arity", "terms", "_trie")

    def __init__(self, d: int, arity: int, terms=None):
        clean: dict[tuple, Poly] = {}
        if terms:
            for key, poly in terms.items():
                if not poly.is_zero:
                    clean[key] = poly
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_trie", None)

    def __setattr__(self, name, value):
        raise AttributeError("PolyDiffOperator is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def apply(self, args: Sequence[Poly]) -> Poly:
        """The operator's value: the one-tuple case of ``_value``."""
        _check_args(self.d, self.arity, args)
        return _wrap(self.d, _exact(_value(self, [(args, None)])))


def _check_args(d: int, arity: int, args: Sequence[Poly]) -> None:
    if len(args) != arity:
        raise DimensionError("operator arity %d, got %d arguments" % (arity, len(args)))
    for f in args:
        if f.d != d:
            raise DimensionError("argument dimension %d does not match d=%d" % (f.d, d))


def _insert(trie: dict, key: tuple, col: int, coeffs: dict) -> None:
    """Add (column, coefficient terms) to the leaf of ``key`` in a per-slot
    trie: slot-1 multi-index -> slot-2 multi-index -> .. -> [(column,
    terms)]."""
    node = trie
    for alpha in key[:-1]:
        node = node.setdefault(alpha, {})
    node.setdefault(key[-1], []).append((col, coeffs))


def _value(op: PolyDiffOperator, tuples: list) -> dict:
    """The terms of op's value on a linear combination of argument tuples:
    one ``_accumulate`` pass over its terms (column 0) in a per-slot trie,
    built on first use and kept on the operator.  A gated operator
    (``_gated``) keeps a ``_Gate`` there instead, which first compiles the
    groups of graphs that the tuples admit."""
    trie = op._trie
    if isinstance(trie, _Gate):
        return trie.evaluate(tuples).get(0, {})
    if trie is None:
        trie = {}
        for key, poly in op.terms.items():
            _insert(trie, key, 0, poly.terms)
        object.__setattr__(op, "_trie", trie)
    return _accumulate(trie, tuples).get(0, {})


def _downset(f: Poly) -> set:
    """The multi-indices alpha <= some exponent of f: those whose derivative
    of f is nonzero (distinct exponents stay distinct under d^alpha).  Each
    packed exponent of f is decoded once, here."""
    down: set = set()
    for key in f.terms:
        down.update(product(*[range(k + 1) for k in _unpack(key, f.d)]))
    return down


def _jet(f: Poly) -> tuple:
    """f's jet: (downset, {alpha: derivative terms}, degree).  A Poly is
    immutable, so the jet is formed on f's first use as an argument and
    kept on f (``Poly._jet``); the table is filled as keys reach it, and no
    reader mutates a derivative dict."""
    jet = f._jet
    if jet is None:
        jet = (_downset(f), {}, f.degree())
        object.__setattr__(f, "_jet", jet)
    return jet


def _reach(trie: dict, args: Sequence[Poly]) -> list:
    """[(leaf, product of the argument derivatives its key names)] for the
    leaves whose key has each slot's multi-index in the downset of that
    slot's argument, which are exactly the keys whose product is nonzero.
    The trie is walked slot by slot along the downsets, each node through
    the smaller of its children and the downset.  Downsets and derivatives
    are read from each argument's jet (``_jet``), so each is formed once
    per argument object however many tuples, slots and passes it fills."""
    frontier = [(trie, None)]
    guards = _guards(args[0].d)
    for f in args:
        if not frontier:
            break
        down, table, _ = _jet(f)
        reached = []
        for node, prefix in frontier:
            if len(down) < len(node):
                hits = [(alpha, node[alpha]) for alpha in down if alpha in node]
            else:
                hits = [(alpha, child) for alpha, child in node.items() if alpha in down]
            for alpha, child in hits:
                der = table.get(alpha)
                if der is None:
                    der = table[alpha] = f.derive_multi(alpha).terms
                reached.append((child, der if prefix is None
                                else _mul_terms(prefix, der, {}, guards)))
        frontier = reached
    return frontier


def _fits(orders: tuple, degrees: list) -> bool:
    """Whether some argument tuple, given by the degrees of its arguments,
    has each slot's degree at least that slot's derivative order."""
    return any(all(map(int.__le__, orders, degs)) for degs in degrees)


def _accumulate(trie: dict, tuples: list) -> dict:
    """The one evaluation pass of a per-slot trie of operator terms
    (``_insert``) on a linear combination of argument tuples.  ``tuples``
    holds (argument tuple, factor terms); a key's argument value is the sum
    over the tuples of the product of their derivatives times the factor
    (None: one tuple, factor 1).  Each tuple reaches only the keys that its
    arguments' downsets admit (``_reach``); the value of a reached key is
    formed once and multiplied into every column of its leaf.  Returns
    {column: term dict} for the columns of the reached leaves."""
    guards = _guards(tuples[0][0][0].d)
    totals: dict = {}
    if tuples[0][1] is None:
        reached = _reach(trie, tuples[0][0])
    else:
        values: dict = {}  # id(leaf) -> (leaf, value terms)
        for args, factor in tuples:
            for leaf, value in _reach(trie, args):
                entry = values.get(id(leaf))
                if entry is None:
                    entry = values[id(leaf)] = (leaf, {})
                _mul_terms(value, factor, entry[1], guards)
        reached = values.values()
    for leaf, value in reached:
        if value:
            for col, coeff in leaf:
                acc = totals.get(col)
                if acc is None:
                    acc = totals[col] = {}
                _mul_terms(value, coeff, acc, guards)
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
    whose entry has degree >= k; when no pair is left for some vertex, the
    operator is zero and no search is made.  Every vertex keeps a count of
    the indices its incoming edges carry, raised when a position is
    assigned and lowered on backtrack, so a factor's derivative multi-index
    and a leaf's key are read off these counts."""
    d, n, m = p.d, g.n, g.m
    pairs = p.nonzero_ordered_pairs()
    in_edges = g.in_edges
    vertex_sources = [in_edges.get(m + 1 + pos, ()) for pos in range(n)]
    degree = {(i, j): p.entry(i, j).degree() for i, j in pairs}
    choices = [[pair for pair in pairs if degree[pair] >= len(sources)]
               for sources in vertex_sources]
    if not all(choices):
        # a vertex with more incoming edges than any entry has degree
        return PolyDiffOperator(d, m, {})
    # ready[t]: the vertices whose factor is fixed once positions t..n-1
    # are assigned
    ready: list[list[int]] = [[] for _ in range(n)]
    for pos, sources in enumerate(vertex_sources):
        ready[min([pos] + [src for src, _side in sources])].append(pos)
    # counts[v - 1][i - 1]: edges into vertex v that carry index i, over the
    # assigned positions
    counts = [[0] * d for _ in range(m + n)]
    targets = [(counts[left - 1], counts[right - 1]) for left, right in g.out_edges]
    arg_counts, vertex_counts = counts[:m], counts[m:]
    assign: list = [None] * n
    derivatives = p._deriv_cache
    guards = _guards(d)
    acc: dict[tuple, dict] = {}

    def visit(pos: int, prefix):
        if pos < 0:
            key = tuple([tuple(c) for c in arg_counts])
            _add_terms(acc.setdefault(key, {}), prefix)
            return
        left, right = targets[pos]
        for pair in choices[pos]:
            i, j = pair
            left[i - 1] += 1
            right[j - 1] += 1
            assign[pos] = pair
            coeff = prefix
            for v in ready[pos]:
                # (i, j, alpha): the key of ``entry_derivative``'s cache
                key = (*assign[v], tuple(vertex_counts[v]))
                factor = derivatives.get(key)
                if factor is None:
                    factor = p.entry_derivative(*key)
                if not factor.terms:
                    break
                coeff = (factor.terms if coeff is None
                         else _mul_terms(coeff, factor.terms, {}, guards))
            else:
                visit(pos - 1, coeff)
            left[i - 1] -= 1
            right[j - 1] -= 1

    visit(n - 1, None)
    return PolyDiffOperator(d, m, {key: _wrap(d, terms) for key, terms in acc.items()})


def _anchored(rep: DirectedGraph, p: PoissonStructure) -> tuple:
    """(base, slots, sign) with the operator of ``rep``, the representative
    of a nonzero class, equal to ``sign`` times the operator ``base`` of the
    anchor of its orbit of argument relabelings, the least class
    representative in it, with slot t of each key taken from slot
    ``slots[t]`` of ``base``'s key (``slots`` None: the identity).

    Relabeling the arguments of a graph by a permutation s moves the
    derivatives of slot t to slot s(t) and changes nothing else, and a
    relabeled graph stays admissible.  So only the anchor is compiled, once
    per orbit and structure, and cached on the structure under the anchor.
    ``rep``'s record (``_orbit``) gives the relabeling ``perm`` that takes
    it to the anchor's class, with its sign, so ``rep``'s operator is the
    anchor's with the slots of every key permuted back, times that sign."""
    anchor, perm, sign = _orbit(rep)
    cache = p._op_cache
    base = cache.get(anchor)
    if base is None:
        # through the module global, so that a wrapper sees every compile
        base = cache[anchor] = compile_graph(anchor, p)
    slots = None if perm == tuple(range(1, rep.m + 1)) else [s - 1 for s in perm]
    return base, slots, sign


def _divided(terms: dict, denom: int) -> dict:
    """The term dict ``terms`` divided by ``denom``, each coefficient an
    ``int`` when the quotient is integral."""
    if denom == 1:
        return terms
    return {e: _rational(Fraction(c, denom)) for e, c in terms.items()}


def _add_graph_terms(acc: dict, terms, p: PoissonStructure) -> None:
    """acc[key] += coeff * (operator of rep)[key] for every (rep, coeff) in
    terms, class representatives with ``int`` numerators, in place: the
    terms of the anchor of rep's orbit (``_anchored``), added under the
    permuted slot keys with the sign folded into the numerator, so no
    permuted operator is built."""
    for rep, coeff in terms:
        base, slots, sign = _anchored(rep, p)
        coeff *= sign
        for key, poly in base.terms.items():
            if slots is not None:
                key = tuple([key[s] for s in slots])
            _add_terms(acc.setdefault(key, {}), poly.terms, coeff)


def compile_sum(s: GraphSum, p: PoissonStructure) -> PolyDiffOperator:
    """Operator of a whole graph sum: its gated operator (``_gated``) with
    every pending group compiled, so ``terms`` holds all of it.  The sum's
    ``int`` numerators are accumulated in ``int`` arithmetic (on an
    integral structure), and each coefficient is divided by the sum's
    denominator once, so it is an ``int`` when integral."""
    op = _gated(s, p)
    gate = op._trie
    for orders in list(gate.pending):
        gate._compile(orders)
    return op


def _as_sum(s) -> GraphSum:
    """``s`` as a GraphSum: a labeled graph becomes ``GraphSum.single``,
    which carries its class sign, once, at an entry point."""
    if isinstance(s, DirectedGraph):
        return GraphSum.single(s)
    if isinstance(s, GraphSum):
        return s
    raise TypeError("expected GraphSum or DirectedGraph")


def apply_graph(s, p: PoissonStructure, args: Sequence[Poly]) -> Poly:
    """Evaluate a GraphSum, or a single labeled graph (as the sum of its
    class with its sign), on concrete polynomial arguments, through its
    gated operator (``_gated``)."""
    return _gated(_as_sum(s), p).apply(args)


class _Gate:
    """Graph sums of one arity, one column each, compiled on demand into one
    per-slot trie (``_insert``): the in-degree gate of every evaluation.

    A graph puts derivatives of order indeg(t) on argument slot t, whatever
    indices its edges take, so the columns' (representative, numerator)
    terms are grouped by these slot orders before compiling, and
    ``evaluate`` compiles a group the first time some argument tuple's
    degrees admit it (``_fits``).  Groups only ever leave the pending set,
    so a degree vector once checked admits nothing new and is skipped.  The
    trie holds a column's terms times its ``int`` numerators, and each
    value is divided by the column's denominator once.  ``op_terms``, when
    given, receives the coefficient of every compiled key of column 0: the
    ``terms`` of a gated operator."""

    __slots__ = ("p", "arity", "width", "denoms", "pending", "checked", "trie", "op_terms")

    def __init__(self, sums: Sequence[GraphSum], p: PoissonStructure, op_terms=None):
        arities = {s.arity for s in sums}
        if len(arities) != 1:
            raise DimensionError("coboundary columns need one common arity, got %s"
                                 % sorted(arities))
        self.p = p
        self.arity = m = arities.pop()
        self.width = len(sums)
        self.op_terms = op_terms
        # slot orders -> {column: [(representative, numerator)]}, not yet compiled
        self.pending: dict[tuple, dict] = {}
        self.checked: set = set()  # argument degree vectors checked against pending
        # column -> the denominator its trie terms are scaled by, when not 1
        self.denoms: dict[int, int] = {}
        for col, s in enumerate(sums):
            if s._denom != 1:
                self.denoms[col] = s._denom
            for rep, coeff in s._nums.items():
                orders = tuple(len(rep.in_edges.get(t, ())) for t in range(1, m + 1))
                self.pending.setdefault(orders, {}).setdefault(col, []).append((rep, coeff))
        self.trie: dict = {}  # compiled terms, see ``_insert``

    def _compile(self, orders: tuple) -> None:
        """Compile one pending group into the trie.  Its keys have the slot
        orders ``orders`` and no other group's keys do, so each leaf is
        filled by one call, column by column in ascending order.  The group
        leaves the pending set only once all its graphs are compiled, so a
        compile that raises leaves the gate as it was."""
        accs = []
        for col, terms in self.pending[orders].items():
            acc: dict[tuple, dict] = {}
            _add_graph_terms(acc, terms, self.p)
            accs.append((col, acc))
        del self.pending[orders]
        for col, acc in accs:
            for key, coeffs in acc.items():
                if coeffs:
                    _insert(self.trie, key, col, coeffs)
                    if self.op_terms is not None:
                        self.op_terms[key] = _wrap(self.p.d,
                                                   _divided(coeffs, self.denoms.get(col, 1)))

    def evaluate(self, tuples: list) -> dict:
        """{column: value terms} for the columns that one ``_accumulate``
        pass over ``tuples`` touches, once every pending group that some
        tuple's argument degrees (kept in the jets) admit is compiled."""
        if self.pending:
            degrees = {tuple([_jet(f)[2] for f in args]) for args, _ in tuples} - self.checked
            if degrees:
                for orders in [o for o in self.pending if _fits(o, degrees)]:
                    self._compile(orders)
                self.checked |= degrees
        return {col: _divided(terms, self.denoms.get(col, 1))
                for col, terms in _accumulate(self.trie, tuples).items()}


def _gated(s: GraphSum, p: PoissonStructure) -> PolyDiffOperator:
    """The operator of ``s`` behind a one-column ``_Gate``, its ``terms``
    the groups compiled so far; cached on the Poisson structure under the
    sum itself, which hashes once."""
    cache = p._op_cache
    op = cache.get(s)
    if op is None:
        op = cache[s] = PolyDiffOperator(p.d, s.arity)
        object.__setattr__(op, "_trie", _Gate([s], p, op.terms))
    return op


class CoboundaryColumns(_Gate):
    """Hochschild coboundaries [m0, .] of many cochains of one arity m on one
    Poisson structure, evaluated side by side:

    (delta C)(f_0..f_m) = C(f_0..f_{m-1}) f_m + (-1)^{m-1} f_0 C(f_1..f_m)
                          - (-1)^{m-1} sum_j (-1)^j C(.., f_j f_{j+1}, ..).

    The cochains are the columns of one ``_Gate``, so a graph is compiled
    only once some inner argument tuple's degrees admit it.
    ``touched_terms`` makes one ``_accumulate`` pass over the m + 2
    argument tuples, each with its outer factor and sign, for all the
    columns at once, and returns the columns it touches.  Each product
    f_j f_{j+1} is formed once per argument pair for the lifetime of the
    columns (``products``), so the product object keeps its jet from one
    argument tuple to the next."""

    __slots__ = ("products",)

    def __init__(self, sums: Sequence, p: PoissonStructure):
        super().__init__([_as_sum(s) for s in sums], p)
        # (id(f), id(g)) -> (f, g, f * g): the entry holds f and g, so no id
        # is reused while it lives
        self.products: dict[tuple, tuple] = {}

    def values(self, args: Sequence[Poly]) -> list:
        """[(delta C_col)(args) for every column], as Polys."""
        touched = dict(self.touched_terms(args))
        return [_wrap(self.p.d, touched.get(col, {})) for col in range(self.width)]

    def touched_terms(self, args: Sequence[Poly]) -> list:
        """[(column, terms of (delta C_col)(args))] for the columns that the
        pass touches, in ascending order; every other column is zero."""
        d, m = self.p.d, self.arity
        args = tuple(args)
        _check_args(d, m + 1, args)
        sgn = 1 if (m - 1) % 2 == 0 else -1
        tuples = [(args[:m], args[m].terms), (args[1:], args[0].scale(sgn).terms)]
        for j in range(m):
            f, g = args[j], args[j + 1]
            entry = self.products.get((id(f), id(g)))
            if entry is None:
                entry = self.products[id(f), id(g)] = (f, g, f * g)
            merged = args[:j] + (entry[2],) + args[j + 2:]
            tuples.append((merged, {0: -sgn if j % 2 == 0 else sgn}))
        return sorted(self.evaluate(tuples).items())


# ---------------------------------------------------------------------------
# operator-level oracles


def oracle_delta(s, p: PoissonStructure, args: Sequence[Poly]) -> Poly:
    """Hochschild coboundary of one cochain: the one-column case of
    ``CoboundaryColumns``."""
    return CoboundaryColumns([s], p).values(args)[0]


def _compose(s1, s2, p: PoissonStructure, args: Sequence[Poly], inner) -> Poly:
    """Insertion composition evaluated by slot substitution:

    (D1 o D2)(f_0..f_{k1+k2}) =
        sum_{0<=j<=k1} (-1)^{j k2} D1(f_0.., D2(f_j..f_{j+k2}), ..f_{k1+k2}),

    with each inner value D2(f_j..f_{j+k2}) taken from
    ``inner(s2, p, args)``: ``apply_graph`` itself, or a memo of its
    values (``InnerValues``).  The k1 + 1 outer evaluations are one
    ``_value`` pass of D1's gated operator (``_gated``) on the signed
    argument tuples, so a key reached by several substitutions multiplies
    its coefficient once, and a group of D1 is compiled only once some
    substituted tuple admits it."""
    m1, m2 = s1.arity, s2.arity
    k1, k2 = m1 - 1, m2 - 1
    if len(args) != m1 + m2 - 1:
        raise DimensionError("composition of arities (%d, %d) needs %d arguments, got %d"
                             % (m1, m2, m1 + m2 - 1, len(args)))
    args = tuple(args)
    _check_args(p.d, m1 + m2 - 1, args)
    tuples = [(args[:j] + (inner(s2, p, args[j:j + m2]),) + args[j + m2:],
               {0: -1 if (j * k2) % 2 else 1})
              for j in range(k1 + 1)]
    return _wrap(p.d, _exact(_value(_gated(s1, p), tuples)))


def _bracket(s1, s2, p: PoissonStructure, args: Sequence[Poly], inner) -> Poly:
    """[D1, D2] = D1 o D2 - (-1)^{k1 k2} D2 o D1 by ``_compose`` with the
    inner-value step ``inner`` (D o D once when D1 == D2)."""
    k1, k2 = s1.arity - 1, s2.arity - 1
    left = _compose(s1, s2, p, args, inner)
    right = left if s1 == s2 else _compose(s2, s1, p, args, inner)
    return left - right if (k1 * k2) % 2 == 0 else left + right


class InnerValues:
    """``apply_graph`` with a memo: each value D(f_0..f_{m-1}) is formed once
    per (cochain, Poisson structure, argument objects).  Entries are keyed
    by identity and hold the objects of their key, so no id is reused while
    an entry lives; the memo lives as long as its owner keeps it (the
    evaluation route keeps one per fixture feed).  A returned value is the
    same object on every hit, so its jet stays warm.  A value stays right
    when later groups of D compile: a group its arguments did not admit
    vanishes on them."""

    __slots__ = ("values",)

    def __init__(self):
        self.values: dict[tuple, tuple] = {}

    def __call__(self, s, p: PoissonStructure, args: Sequence[Poly]) -> Poly:
        key = (id(s), id(p), *map(id, args))
        entry = self.values.get(key)
        if entry is None:
            entry = self.values[key] = (s, p, tuple(args), apply_graph(s, p, args))
        return entry[3]


def oracle_compose(s1, s2, p: PoissonStructure, args: Sequence[Poly]) -> Poly:
    """Insertion composition evaluated by slot substitution (``_compose``),
    each inner value by ``apply_graph``."""
    return _compose(_as_sum(s1), _as_sum(s2), p, args, apply_graph)


def oracle_gerstenhaber(s1, s2, p: PoissonStructure, args: Sequence[Poly]) -> Poly:
    """[D1, D2] = D1 o D2 - (-1)^{k1 k2} D2 o D1, evaluated (D o D once when
    D1 == D2), each inner value by ``apply_graph``."""
    return _bracket(_as_sum(s1), _as_sum(s2), p, args, apply_graph)
