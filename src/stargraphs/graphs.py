"""Admissible directed graphs and their rational linear combinations.

Vertex convention: argument vertices are 1..m, internal vertices are
m+1..m+n.  Every internal vertex carries an ordered pair of outgoing edges
(L, R); the L edge feeds the first index of the bivector sitting at that
vertex, the R edge the second, so transposing (L, R) flips the sign of the
associated operator.

Text encoding (bit-exact): ``n m ; v1: a b / v2: a b / ...`` with internal
vertices listed in increasing index order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator

from .errors import BudgetExceededError, GraphError

Pair = tuple  # (L, R) targets of one internal vertex
Pairs = tuple  # tuple of n Pair entries

DEFAULT_VERTEX_BUDGET = 9  # cap on n + m for enumeration


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
        indegree = [0] * (m + 1)
        for pos, (left, right) in enumerate(self.out_edges):
            vid = m + 1 + pos
            for target in (left, right):
                if not 1 <= target <= m + n:
                    raise GraphError("vertex %d: target %d out of range 1..%d"
                                     % (vid, target, m + n))
                if target == vid:
                    raise GraphError("vertex %d: loop edge" % vid)
                if target <= m:
                    indegree[target] += 1
            if left == right:
                raise GraphError("vertex %d: repeated target %d (multiple edge)"
                                 % (vid, left))
        for arg in range(1, m + 1):
            if indegree[arg] == 0:
                raise GraphError("argument vertex %d has indegree 0" % arg)

    @cached_property
    def key(self):
        return (self.n, self.m, self.out_edges)

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

    Returns (canonical pairs, sign) with sign in {-1, 0, +1}: the parity of
    L/R swaps needed to reach the canonical labeling, or 0 when the orbit
    reaches it with both parities (the class is the zero cochain).

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
    return tuple(key), sign


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
    pairs, sign = _canonical_raw(g.n, g.m, g.out_edges)
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


def _labeled_pairs(n: int, m: int) -> Iterator[Pairs]:
    """All valid labeled graphs of K_{n,m} as raw out-edge tuples."""
    total = n + m
    options = []
    for pos in range(n):
        vid = m + 1 + pos
        targets = [t for t in range(1, total + 1) if t != vid]
        options.append(tuple((a, b) for a in targets for b in targets if a != b))
    for combo in itertools.product(*options):
        covered = 0
        for left, right in combo:
            if left <= m:
                covered |= 1 << left
            if right <= m:
                covered |= 1 << right
        if covered == ((1 << (m + 1)) - 2):
            yield combo


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


@dataclass(frozen=True)
class EnumerationResult:
    classes: tuple  # nonzero GraphClass entries, sorted by encoding
    labeled_count: int  # labeled graphs passing the filter


def enumerate_graphs(n: int, m: int, filter: str = "all",
                     vertex_budget: int = DEFAULT_VERTEX_BUDGET) -> EnumerationResult:
    """Complete duplicate-free list of nonzero canonical classes of K_{n,m}
    passing the filter, plus the labeled-graph count before canonicalization."""
    if n < 1 or m < 1:
        raise GraphError("need n >= 1 and m >= 1, got n=%d m=%d" % (n, m))
    if n + m > vertex_budget:
        raise BudgetExceededError("K_{%d,%d} exceeds the vertex budget n+m <= %d"
                                  % (n, m, vertex_budget))
    if filter not in FILTERS:
        raise ValueError("unknown filter %r (expected one of %s)" % (filter, ", ".join(FILTERS)))
    labeled = 0
    reps: set[Pairs] = set()
    for pairs in _labeled_pairs(n, m):
        if not _passes_filter(n, m, pairs, filter):
            continue
        labeled += 1
        best, sign = _canonical_raw(n, m, pairs)
        if sign == 0:
            continue
        reps.add(best)
    classes = tuple(GraphClass(DirectedGraph(n, m, pairs), 1)
                    for pairs in sorted(reps))
    return EnumerationResult(classes, labeled)


def zero_classes(n: int, m: int,
                 vertex_budget: int = DEFAULT_VERTEX_BUDGET) -> tuple:
    """Canonical representatives of the sign-0 (zero cochain) classes of K_{n,m}."""
    if n + m > vertex_budget:
        raise BudgetExceededError("K_{%d,%d} exceeds the vertex budget n+m <= %d"
                                  % (n, m, vertex_budget))
    reps: set[Pairs] = set()
    for pairs in _labeled_pairs(n, m):
        best, sign = _canonical_raw(n, m, pairs)
        if sign == 0:
            reps.add(best)
    return tuple(DirectedGraph(n, m, pairs) for pairs in sorted(reps))


# ---------------------------------------------------------------------------
# rational combinations of classes


class GraphSum:
    """Finite QQ-linear combination of canonical graph classes of one arity.

    Terms are stored against canonical representatives; the sign produced by
    canonicalization is absorbed into the coefficient, and zero classes are
    dropped.  Internal vertex counts may differ between terms.
    """

    __slots__ = ("arity", "_terms", "_key")

    def __init__(self, arity: int, terms: Iterable = ()):  # terms: (graph-like, coeff)
        if arity < 1:
            raise GraphError("arity must be >= 1, got %d" % arity)
        acc: dict[DirectedGraph, Fraction] = {}
        for item, coeff in terms:
            coeff = Fraction(coeff)
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
            if cls.sign == 0:
                continue
            rep = cls.rep
            value = acc.get(rep, Fraction(0)) + coeff * cls.sign
            if value:
                acc[rep] = value
            else:
                acc.pop(rep, None)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "_terms", acc)
        object.__setattr__(self, "_key", None)

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
        return GraphSum(self.arity,
                        [(rep, c) for rep, c in self._terms.items() if rep.n == n])

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "GraphSum") -> "GraphSum":
        if self.arity != other.arity:
            raise GraphError("cannot add sums of arity %d and %d"
                             % (self.arity, other.arity))
        items = list(self._terms.items()) + list(other._terms.items())
        return GraphSum(self.arity, items)

    def __sub__(self, other: "GraphSum") -> "GraphSum":
        return self + other.scale(-1)

    def scale(self, c) -> "GraphSum":
        c = Fraction(c)
        return GraphSum(self.arity, [(rep, coeff * c) for rep, coeff in self._terms.items()])

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
            items.append((graph, Fraction(coeff_text.strip())))
        if arity is None:
            if not items:
                raise GraphError("cannot infer arity of an empty graph-sum file")
            arity = items[0][0].m
        return cls(arity, items)
