"""Admissible directed graphs and their rational linear combinations.

Vertex convention: argument vertices are 1..m, internal vertices are
m+1..m+n.  Every internal vertex carries an ordered pair of outgoing edges
(L, R); the L edge feeds the first index of the Poisson tensor at that
vertex, the R edge the second, so transposing (L, R) flips the sign of the
associated operator.

Text encoding (bit-exact): ``n m ; v1: a b / v2: a b / ...`` with internal
vertices listed in increasing index order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator

from .errors import BudgetExceededError, GraphError

Pair = tuple  # (L, R) targets of one internal vertex
Pairs = tuple  # tuple of n Pair entries

DEFAULT_VERTEX_BUDGET = 9  # cap on n + m for enumeration


def _reject_pair(vid: int, left: int, right: int, top: int):
    """Raise the GraphError for an invalid (L, R) pair of internal vertex vid."""
    for target in (left, right):
        if not 1 <= target <= top:
            raise GraphError("vertex %d: target %d out of range 1..%d" % (vid, target, top))
        if target == vid:
            raise GraphError("vertex %d: loop edge" % vid)
    raise GraphError("vertex %d: repeated target %d (multiple edge)" % (vid, left))


@dataclass(frozen=True)
class DirectedGraph:
    """A labeled admissible graph with n internal and m argument vertices."""

    n: int
    m: int
    out_edges: Pairs

    def __post_init__(self):
        n, m = self.n, self.m
        if n < 1 or m < 1:
            raise GraphError("need n >= 1 and m >= 1, got n=%d m=%d" % (n, m))
        if len(self.out_edges) != n:
            raise GraphError("expected %d internal vertex records, got %d"
                             % (n, len(self.out_edges)))
        top = m + n
        covered = 0  # bit t set: argument t has an incoming edge
        for vid, (left, right) in enumerate(self.out_edges, m + 1):
            if not (0 < left <= top and 0 < right <= top and left != vid != right != left):
                _reject_pair(vid, left, right, top)
            if left <= m:
                covered |= 1 << left
            if right <= m:
                covered |= 1 << right
        if covered != (1 << (m + 1)) - 2:
            arg = next(t for t in range(1, m + 1) if not covered >> t & 1)
            raise GraphError("argument vertex %d has indegree 0" % arg)
        # the encoding key, used for every cache lookup and sort
        object.__setattr__(self, "key", (n, m, self.out_edges))

    @cached_property
    def in_edges(self) -> dict:
        """Map vertex id -> tuple of (source position, side) with side 0=L, 1=R."""
        acc: dict[int, list] = {}
        for pos, (left, right) in enumerate(self.out_edges):
            acc.setdefault(left, []).append((pos, 0))
            acc.setdefault(right, []).append((pos, 1))
        return {v: tuple(lst) for v, lst in acc.items()}

    def encode(self) -> str:
        return encode_graph(self)

    def __str__(self) -> str:
        return self.encode()


@dataclass(frozen=True)
class GraphClass:
    """A canonical representative together with the sign relating a labeled
    graph to it; sign 0 marks classes that are the zero cochain."""

    rep: DirectedGraph
    sign: int

    @property
    def key(self):
        return self.rep.key


# ---------------------------------------------------------------------------
# parsing and encoding


def encode_graph(g: DirectedGraph) -> str:
    body = " / ".join("%d: %d %d" % (g.m + 1 + pos, left, right)
                      for pos, (left, right) in enumerate(g.out_edges))
    return "%d %d ; %s" % (g.n, g.m, body)


def parse_graph(text: str) -> DirectedGraph:
    head, sep, body = text.partition(";")
    if not sep:
        raise GraphError("missing ';' separator in %r" % text)
    head_tokens = head.split()
    if len(head_tokens) != 2:
        raise GraphError("header must be 'n m', got %r" % head.strip())
    try:
        n, m = int(head_tokens[0]), int(head_tokens[1])
    except ValueError:
        raise GraphError("non-integer header in %r" % text) from None
    if n < 1 or m < 1:
        raise GraphError("need n >= 1 and m >= 1, got n=%d m=%d" % (n, m))
    records = [r for r in (chunk.strip() for chunk in body.split("/"))]
    if len(records) != n:
        raise GraphError("expected %d vertex records, got %d" % (n, len(records)))
    pairs = []
    for pos, record in enumerate(records):
        vid = m + 1 + pos
        name, sep, targets = record.partition(":")
        if not sep:
            raise GraphError("missing ':' in record %r" % record)
        try:
            declared = int(name.strip())
        except ValueError:
            raise GraphError("non-integer vertex id in record %r" % record) from None
        if declared <= m:
            raise GraphError("argument vertex %d cannot have outgoing edges" % declared)
        if declared != vid:
            raise GraphError("internal vertices must be listed in order; "
                             "expected %d, got %d" % (vid, declared))
        target_tokens = targets.split()
        if len(target_tokens) != 2:
            raise GraphError("vertex %d: expected two targets, got %r" % (vid, targets))
        try:
            left, right = int(target_tokens[0]), int(target_tokens[1])
        except ValueError:
            raise GraphError("vertex %d: non-integer target in %r" % (vid, targets)) from None
        pairs.append((left, right))
    return DirectedGraph(n, m, tuple(pairs))


# ---------------------------------------------------------------------------
# canonical forms


def _canonical_raw(n: int, m: int, pairs: Pairs):
    """Minimum of the orbit under internal relabeling x per-vertex L/R swap.

    Returns (canonical pairs, sign, |Aut|) with sign in {-1, 0, +1}: the
    parity of L/R swaps needed to reach the canonical labeling, or 0 when
    the orbit reaches it with both parities (the class is the zero cochain).

    The key is the tuple of sorted pairs in new-label order, so it is built
    one entry at a time.  A frontier holds the partial labelings (old
    vertices in new-label order, swap parity so far) that give the minimal
    prefix.  For entry e, a labeling whose new vertex e is not yet fixed
    tries every unlabeled old vertex there; the still unlabeled internal
    targets of that vertex then take the next free labels, in both orders
    when there are two.  Only extensions whose sorted pair equals the least
    pair over the whole frontier survive.

    This is exact: giving an unlabeled target any label other than the next
    free one makes entry e strictly larger while leaving the earlier entries
    alone, so every labeling that reaches the orbit minimum survives every
    level.  The final frontier is exactly the set of those labelings, and
    their parities give the sign.  The work is proportional to the number
    of labelings that tie with the minimum along the way, not to n!.

    Also returns the frontier's size, |Aut|: the number of internal
    relabelings that fix the graph with its pairs unordered.  Each one,
    with the L/R swaps it forces, is one element of the stabilizer of the
    labeled graph, so the labeled orbit has 2^n n! / |Aut| members.
    """
    base = m + 1
    key = []
    frontier = [((), 0)]
    everyone = range(n)
    for e in range(n):
        lo = hi = None  # least pair for entry e over the whole frontier
        survivors = []
        for order, parity in frontier:
            if e < len(order):
                candidates = (order[e],)
                grow = False
            else:
                candidates = [u for u in everyone if u not in order]
                grow = True
            for u in candidates:
                labeled = order + (u,) if grow else order
                left, right = pairs[u]
                free = base + len(labeled)
                open_left = open_right = -1  # old index of an unlabeled target
                if left > m:
                    open_left = left - base
                    if open_left in labeled:
                        left = base + labeled.index(open_left)
                        open_left = -1
                    else:
                        left = free
                if right > m:
                    open_right = right - base
                    if open_right in labeled:
                        right = base + labeled.index(open_right)
                        open_right = -1
                    else:
                        right = free + 1 if open_left >= 0 else free
                flip = left > right
                if flip:
                    left, right = right, left
                if lo is None or left < lo or (left == lo and right < hi):
                    lo, hi = left, right
                    survivors = []
                elif left != lo or right != hi:
                    continue
                if open_left >= 0:
                    if open_right >= 0:
                        survivors.append((labeled + (open_left, open_right), parity))
                        survivors.append((labeled + (open_right, open_left), parity ^ 1))
                        continue
                    labeled += (open_left,)
                elif open_right >= 0:
                    labeled += (open_right,)
                survivors.append((labeled, parity ^ flip))
        key.append((lo, hi))
        frontier = survivors
    parities = {parity for _, parity in frontier}
    if len(parities) == 2:
        sign = 0
    elif 0 in parities:
        sign = 1
    else:
        sign = -1
    return tuple(key), sign, len(frontier)


_CANON_CACHE: dict = {}
_CANON_CACHE_LIMIT = 120_000


def canonical_form(g: DirectedGraph) -> GraphClass:
    """Class of ``g``: its orbit-minimal relabeling and the relating sign.

    The representative is the lexicographically least tuple of sorted
    (L, R) pairs over all internal relabelings, found by the pruned
    level-wise search in ``_canonical_raw``; it depends only on the orbit,
    so isomorphic graphs get the same representative.  The sign is +1 or -1
    by the parity of L/R swaps that reach it, and 0 when both parities do.
    Results are memoised per labeled graph.
    """
    cached = _CANON_CACHE.get(g.key)
    if cached is not None:
        return cached
    pairs, sign, _ = _canonical_raw(g.n, g.m, g.out_edges)
    rep = g if pairs == g.out_edges else DirectedGraph(g.n, g.m, pairs)
    cls = GraphClass(rep, sign)
    if len(_CANON_CACHE) >= _CANON_CACHE_LIMIT:
        _CANON_CACHE.clear()
    _CANON_CACHE[g.key] = cls
    return cls


# ---------------------------------------------------------------------------
# wheels


def _has_cycle(succ: list) -> bool:
    """Iterative three-colour DFS over a successor list on vertices 0..len-1."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = [WHITE] * len(succ)
    for root in range(len(succ)):
        if color[root] != WHITE:
            continue
        stack = [(root, iter(succ[root]))]
        color[root] = GREY
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if color[w] == GREY:
                    return True
                if color[w] == WHITE:
                    color[w] = GREY
                    stack.append((w, iter(succ[w])))
                    advanced = True
                    break
            if not advanced:
                color[v] = BLACK
                stack.pop()
    return False


def _has_wheel_pairs(n: int, m: int, pairs: Pairs) -> bool:
    # cycles can only run through internal vertices
    succ = [[] for _ in range(n)]
    for pos, (left, right) in enumerate(pairs):
        if left > m:
            succ[pos].append(left - m - 1)
        if right > m:
            succ[pos].append(right - m - 1)
    return _has_cycle(succ)


def has_wheel(g: DirectedGraph) -> bool:
    """True iff the graph contains a directed cycle."""
    return _has_wheel_pairs(g.n, g.m, g.out_edges)


# ---------------------------------------------------------------------------
# enumeration

FILTERS = ("all", "wheel_free", "wheels_only", "arg_indegree_exactly_one")


def _passes_filter(n: int, m: int, pairs: Pairs, which: str) -> bool:
    if which == "all":
        return True
    if which == "wheel_free":
        return not _has_wheel_pairs(n, m, pairs)
    if which == "wheels_only":
        return _has_wheel_pairs(n, m, pairs)
    if which == "arg_indegree_exactly_one":
        indeg = [0] * (m + 1)
        for left, right in pairs:
            if left <= m:
                indeg[left] += 1
            if right <= m:
                indeg[right] += 1
        return all(indeg[a] == 1 for a in range(1, m + 1))
    raise ValueError("unknown filter %r (expected one of %s)" % (which, ", ".join(FILTERS)))


def _restricted_growth(n: int, m: int) -> Iterator[Pairs]:
    """Every K_{n,m} graph in restricted-growth form, in lexicographic order.

    Entry e holds the targets of internal vertex e as a sorted pair L < R.
    Vertex e counts as introduced at entry e; each internal target is an
    introduced label or the next free one, and both targets may take the
    next two.  Every orbit minimum of ``_canonical_raw`` has this shape,
    because its unlabeled targets take the next free labels, so every class
    has its representative among these graphs.  Graphs that leave an
    argument without an incoming edge are not yielded.
    """
    base = m + 1
    full = (1 << (m + 1)) - 2  # bits 1..m: every argument covered
    entries: list = []

    def extend(e, introduced, covered):
        if e == n:
            if covered == full:
                yield tuple(entries)
            return
        if (full & ~covered).bit_count() > 2 * (n - e):
            return  # the remaining entries cannot cover the open arguments
        introduced = max(introduced, e + 1)
        free = base + introduced
        old = [*range(1, base), *(t for t in range(base, free) if t != base + e)]
        for i, left in enumerate(old):
            bit = 1 << left if left <= m else 0
            for right in old[i + 1:]:
                entries.append((left, right))
                yield from extend(e + 1, introduced,
                                  covered | bit | (1 << right if right <= m else 0))
                entries.pop()
            if introduced < n:
                entries.append((left, free))
                yield from extend(e + 1, introduced + 1, covered | bit)
                entries.pop()
        if introduced + 1 < n:
            entries.append((free, free + 1))
            yield from extend(e + 1, introduced + 2, covered)
            entries.pop()

    return extend(0, 0, 0)


def _classes(n: int, m: int, filter: str) -> Iterator[tuple]:
    """(canonical pairs, sign, labeled orbit size) of every class of K_{n,m}
    passing the filter, once each, in lexicographic order of the pairs.

    Orderly generation (Read 1978; McKay 1998): a restricted-growth
    candidate is kept only when it is its own orbit minimum, and the
    labeled graphs of its class are counted from |Aut| by the orbit-
    stabilizer theorem instead of being listed.
    """
    group_order = 2 ** n * math.factorial(n)
    for pairs in _restricted_growth(n, m):
        if not _passes_filter(n, m, pairs, filter):
            continue
        best, sign, automorphisms = _canonical_raw(n, m, pairs)
        if best == pairs:
            yield pairs, sign, group_order // automorphisms


def _check_size(n: int, m: int, vertex_budget: int):
    if n < 1 or m < 1:
        raise GraphError("need n >= 1 and m >= 1, got n=%d m=%d" % (n, m))
    if n + m > vertex_budget:
        raise BudgetExceededError("K_{%d,%d} exceeds the vertex budget n+m <= %d"
                                  % (n, m, vertex_budget))


@dataclass(frozen=True)
class EnumerationResult:
    classes: tuple  # nonzero GraphClass entries, sorted by encoding
    labeled_count: int  # labeled graphs passing the filter


def enumerate_graphs(n: int, m: int, filter: str = "all",
                     vertex_budget: int = DEFAULT_VERTEX_BUDGET) -> EnumerationResult:
    """Complete duplicate-free list of nonzero canonical classes of K_{n,m}
    passing the filter, plus the number of labeled graphs passing it (zero
    classes included)."""
    _check_size(n, m, vertex_budget)
    if filter not in FILTERS:
        raise ValueError("unknown filter %r (expected one of %s)" % (filter, ", ".join(FILTERS)))
    labeled = 0
    classes = []
    for pairs, sign, orbit in _classes(n, m, filter):
        labeled += orbit
        if sign:
            classes.append(GraphClass(DirectedGraph(n, m, pairs), 1))
    return EnumerationResult(tuple(classes), labeled)


def zero_classes(n: int, m: int,
                 vertex_budget: int = DEFAULT_VERTEX_BUDGET) -> tuple:
    """Canonical representatives of the sign-0 (zero cochain) classes of K_{n,m}."""
    _check_size(n, m, vertex_budget)
    return tuple(DirectedGraph(n, m, pairs)
                 for pairs, sign, _ in _classes(n, m, "all") if not sign)


# ---------------------------------------------------------------------------
# rational combinations of classes


def _merge(acc: dict, items: Iterable) -> dict:
    """Add (canonical representative, coefficient) items into ``acc`` in
    place; a coefficient that cancels drops its representative."""
    for rep, coeff in items:
        value = acc.get(rep)
        if value is None:
            acc[rep] = coeff
        else:
            value += coeff
            if value:
                acc[rep] = value
            else:
                del acc[rep]
    return acc


def _fraction(c) -> Fraction:
    """c as a Fraction; a float is rejected, since its binary value is
    rarely the rational that was meant."""
    if isinstance(c, Fraction):
        return c
    if isinstance(c, float):
        raise TypeError("inexact coefficient %r: use int or Fraction" % (c,))
    return Fraction(c)


def _canonical_terms(arity: int, terms: Iterable) -> Iterator[tuple]:
    """(representative, signed nonzero Fraction) for each (graph-like,
    coefficient) item, checked against the arity; sign-0 classes vanish."""
    for item, coeff in terms:
        coeff = _fraction(coeff)
        if not coeff:
            continue
        if isinstance(item, str):
            item = parse_graph(item)
        if isinstance(item, DirectedGraph):
            cls = canonical_form(item)
        elif isinstance(item, GraphClass):
            cls = item
        else:
            raise TypeError("expected graph encoding, DirectedGraph or GraphClass")
        if cls.rep.m != arity:
            raise GraphError("term arity %d does not match sum arity %d"
                             % (cls.rep.m, arity))
        if cls.sign:
            yield cls.rep, (coeff if cls.sign > 0 else -coeff)


def add_labeled_graphs(acc: dict, graphs: Iterable, weight: Fraction) -> dict:
    """Add ``weight`` times each labeled graph of ``graphs`` into ``acc``, a
    dict from canonical representative to nonzero Fraction, and return it.

    Each graph is canonicalized once and its sign added into an integer
    count per representative; the weight is multiplied in once per class
    whose count is nonzero.  Every producer of labeled graphs that share one
    weight (grafting, slot splitting, Jacobiator expansion) goes through
    here, so the graph-level algebra does no Fraction arithmetic per graph.
    """
    counts: dict = {}
    for g in graphs:
        cls = canonical_form(g)
        if cls.sign:
            counts[cls.rep] = counts.get(cls.rep, 0) + cls.sign
    return _merge(acc, ((rep, weight * count) for rep, count in counts.items() if count))


class GraphSum:
    """Finite QQ-linear combination of canonical graph classes of one arity.

    Terms are stored against canonical representatives; the sign produced by
    canonicalization is absorbed into the coefficient, and zero classes are
    dropped.  Internal vertex counts may differ between terms.  Coefficients
    are Fractions; a float coefficient raises ``TypeError``.
    """

    __slots__ = ("arity", "_terms", "_key")

    def __init__(self, arity: int, terms: Iterable = ()):  # terms: (graph-like, coeff)
        if arity < 1:
            raise GraphError("arity must be >= 1, got %d" % arity)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "_terms", _merge({}, _canonical_terms(arity, terms)))
        object.__setattr__(self, "_key", None)

    @classmethod
    def _wrap(cls, arity: int, terms: dict) -> "GraphSum":
        """The sum over ``terms``, a dict from canonical representative to
        nonzero Fraction that the new sum owns; nothing is checked."""
        s = object.__new__(cls)
        object.__setattr__(s, "arity", arity)
        object.__setattr__(s, "_terms", terms)
        object.__setattr__(s, "_key", None)
        return s

    def __setattr__(self, name, value):
        raise AttributeError("GraphSum is immutable")

    @classmethod
    def zero(cls, arity: int) -> "GraphSum":
        return cls(arity)

    @classmethod
    def single(cls, graph, coeff=1) -> "GraphSum":
        if isinstance(graph, str):
            graph = parse_graph(graph)
        arity = graph.rep.m if isinstance(graph, GraphClass) else graph.m
        return cls(arity, [(graph, coeff)])

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def terms(self) -> list:
        """Sorted list of (GraphClass with sign +1, coefficient)."""
        return [(GraphClass(rep, 1), self._terms[rep])
                for rep in sorted(self._terms, key=lambda g: g.key)]

    def coefficient_of(self, graph) -> Fraction:
        """Effective coefficient of the given labeled graph (sign included)."""
        if isinstance(graph, str):
            graph = parse_graph(graph)
        cls = canonical_form(graph) if isinstance(graph, DirectedGraph) else graph
        if cls.sign == 0:
            return Fraction(0)
        return self._terms.get(cls.rep, Fraction(0)) * cls.sign

    def internal_counts(self) -> tuple:
        return tuple(sorted({rep.n for rep in self._terms}))

    def restrict_count(self, n: int) -> "GraphSum":
        return GraphSum._wrap(self.arity,
                              {rep: c for rep, c in self._terms.items() if rep.n == n})

    # -- algebra -----------------------------------------------------------
    # the terms are canonical already, so sums and multiples merge the dicts

    def _check_arity(self, other: "GraphSum"):
        if self.arity != other.arity:
            raise GraphError("cannot add sums of arity %d and %d"
                             % (self.arity, other.arity))

    def __add__(self, other: "GraphSum") -> "GraphSum":
        self._check_arity(other)
        return GraphSum._wrap(self.arity, _merge(dict(self._terms), other._terms.items()))

    def __sub__(self, other: "GraphSum") -> "GraphSum":
        self._check_arity(other)
        return GraphSum._wrap(self.arity, _merge(
            dict(self._terms), ((rep, -c) for rep, c in other._terms.items())))

    def scale(self, c) -> "GraphSum":
        c = _fraction(c)
        if not c:
            return GraphSum.zero(self.arity)
        return GraphSum._wrap(self.arity, {rep: coeff * c for rep, coeff in self._terms.items()})

    def __eq__(self, other):
        return (isinstance(other, GraphSum) and self.arity == other.arity
                and self._terms == other._terms)

    def __ne__(self, other):
        return not self.__eq__(other)

    def cache_key(self):
        """(arity, (encoding key, coefficient) sorted by key); built once."""
        if self._key is None:
            object.__setattr__(self, "_key", (self.arity,) + tuple(
                (rep.key, self._terms[rep]) for rep in sorted(self._terms, key=lambda g: g.key)))
        return self._key

    def __hash__(self):
        return hash(self.cache_key())

    def permute_args(self, perm: tuple) -> "GraphSum":
        """Relabel argument slots: old slot i becomes perm[i-1] (1-based values)."""
        if sorted(perm) != list(range(1, self.arity + 1)):
            raise GraphError("bad argument permutation %r" % (perm,))
        items = []
        for rep, coeff in self._terms.items():
            pairs = tuple(
                (perm[left - 1] if left <= rep.m else left,
                 perm[right - 1] if right <= rep.m else right)
                for left, right in rep.out_edges)
            items.append((DirectedGraph(rep.n, rep.m, pairs), coeff))
        return GraphSum(self.arity, items)

    # -- text --------------------------------------------------------------

    def to_lines(self) -> list:
        return ["%s\t%s" % (coeff, cls.rep.encode()) for cls, coeff in self.terms()]

    def __str__(self) -> str:
        return "\n".join(self.to_lines()) if self._terms else "(empty sum of arity %d)" % self.arity

    def __repr__(self) -> str:
        return "GraphSum(arity=%d, terms=%d)" % (self.arity, len(self._terms))

    @classmethod
    def from_lines(cls, lines: Iterable, arity: int | None = None) -> "GraphSum":
        items = []
        for line in lines:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            coeff_text, sep, enc = line.partition("\t")
            if not sep:
                coeff_text, _, enc = line.partition(" ")
                enc = enc.strip()
            graph = parse_graph(enc)
            try:
                coeff = Fraction(coeff_text.strip())
            except ZeroDivisionError:
                raise GraphError("zero denominator in coefficient %r" % coeff_text) from None
            items.append((graph, coeff))
        if arity is None:
            if not items:
                raise GraphError("cannot infer arity of an empty graph-sum file")
            arity = items[0][0].m
        return cls(arity, items)
