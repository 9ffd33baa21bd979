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
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Iterable, Iterator

from .errors import BudgetExceededError, GraphError
from .poly import _rational

Pairs = tuple  # n (L, R) pairs: the targets of each internal vertex

DEFAULT_VERTEX_BUDGET = 9  # cap on n + m for enumeration


class _Interned(dict):
    """(L, R) -> the one shared tuple (L, R), added on first use.  Parsed
    graphs, producers and canonical keys build their out-edge tuples from
    these, so a stored labeled graph is one tuple of shared pointers."""

    def __missing__(self, pair):
        self[pair] = pair
        return pair


_PAIRS = _Interned()


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

    # slots: many graphs are alive at once, and each instance dict would
    # cost more than the fields it holds
    __slots__ = ("n", "m", "out_edges", "_hash", "_in_edges")

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
        self._set_hash()

    def _set_hash(self):
        # the hash of the encoding key (n, m, out_edges), as the dataclass
        # would compute it, kept so that lookups keyed by the graph itself
        # build no key tuple
        object.__setattr__(self, "_hash", hash((self.n, self.m, self.out_edges)))
        object.__setattr__(self, "_in_edges", None)

    @property
    def key(self) -> tuple:
        """The encoding key (n, m, out_edges), the order of sorted output."""
        return self.n, self.m, self.out_edges

    @classmethod
    def _trusted(cls, n: int, m: int, out_edges: Pairs) -> "DirectedGraph":
        """The graph on ``out_edges``, built without the admissibility
        checks of ``__post_init__``: only for pairs that are admissible by
        construction, such as the canonical relabeling of an admissible
        graph."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "m", m)
        object.__setattr__(g, "out_edges", out_edges)
        g._set_hash()
        return g

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # copy and pickle rebuild through __init__, as frozen slots cannot be set
        return DirectedGraph, (self.n, self.m, self.out_edges)

    @property
    def in_edges(self) -> dict:
        """Map vertex id -> tuple of (source position, side) with side 0=L, 1=R;
        built on first use."""
        if self._in_edges is None:
            acc: dict[int, list] = {}
            for pos, (left, right) in enumerate(self.out_edges):
                acc.setdefault(left, []).append((pos, 0))
                acc.setdefault(right, []).append((pos, 1))
            object.__setattr__(self, "_in_edges", {v: tuple(lst) for v, lst in acc.items()})
        return self._in_edges

    def encode(self) -> str:
        return encode_graph(self)

    def __str__(self) -> str:
        return self.encode()


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
    records = [chunk.strip() for chunk in body.split("/")]
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
        pairs.append(_PAIRS[left, right])
    return DirectedGraph(n, m, tuple(pairs))


def parse_terms(lines: Iterable) -> Iterator[tuple]:
    """(DirectedGraph, Fraction) for each term line of a graph-sum text: a
    coefficient, then a tab or a space, then a graph encoding.  Blank lines
    and lines starting with ``#`` are skipped."""
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
        yield graph, coeff


# ---------------------------------------------------------------------------
# canonical forms


def _canonical_raw(n: int, m: int, pairs: Pairs, known: int | None = None):
    """Minimum of the orbit under internal relabeling x per-vertex L/R swap.

    Returns (canonical pairs, sign, |Aut|) with sign in {-1, 0, +1}: the
    parity of L/R swaps needed to reach the canonical labeling, or 0 when
    the orbit reaches it with both parities (the class is the zero cochain).

    The key is the tuple of sorted pairs in new-label order, so it is built
    one entry at a time, from the shared ``_PAIRS``.  A frontier holds the
    partial labelings (old labels in new-label order, swap parity so far)
    that give the minimal prefix.  For entry e, a labeling whose new vertex
    e is not yet fixed tries every unlabeled old vertex there; the still
    unlabeled internal targets of that vertex then take the next free
    labels, in both orders when there are two.  Only extensions whose
    sorted pair equals the least pair over the whole frontier survive.  A
    candidate's targets are read from ``pairs`` as old labels, an argument
    keeping its own, its pair is read off the labeling it would extend, and
    only the candidates that tie with the least pair are extended into new
    labelings.

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

    With ``known`` = k <= n only the prefix pairs[:k] is read: a free level
    tries vertices < k only, a labeling whose forced vertex is >= k is
    dropped, and the search stops at the first level below the prefix.
    Each kept labeling gives the same entries in every completion, so a
    key unequal to the prefix beats them all.  With k = n a key equal to
    ``pairs`` comes from the full search, with its sign and |Aut|.
    """
    base = m + 1
    bound = n if known is None else known
    top = base + bound  # old labels past the prefix read are >= top
    everyone = range(base, top)
    key = []
    frontier = [((), 0)]
    for e in range(bound):
        lo = hi = None  # least pair for entry e over the whole frontier
        survivors = []
        for order, parity in frontier:
            size = len(order)
            if e < size:
                u = order[e]
                if u >= top:
                    continue
                candidates = (u,)
                grow = False
                free = base + size
            else:
                candidates = everyone
                grow = True
                free = base + size + 1  # the candidate itself takes base + size
            for u in candidates:
                if grow and u in order:
                    continue
                # a target still > m after the lookups is an unlabeled
                # internal vertex; a labeled one is set to 0
                a, b = pairs[u - base]
                if a <= m:
                    left = a
                elif a in order:
                    left = base + order.index(a)
                    a = 0
                elif a == u:  # a loop, read as in ``labeled`` below
                    left = free - 1
                    a = 0
                else:
                    left = free
                if b <= m:
                    right = b
                elif b in order:
                    right = base + order.index(b)
                    b = 0
                elif b == u:
                    right = free - 1
                    b = 0
                else:
                    right = free + 1 if a > m else free
                flip = left > right
                if flip:
                    left, right = right, left
                if lo is None or left < lo or (left == lo and right < hi):
                    lo, hi = left, right
                    survivors = []
                elif left != lo or right != hi:
                    continue
                # only a candidate that ties is extended to a labeling
                labeled = order + (u,) if grow else order
                if a > m:
                    if b > m:
                        survivors.append((labeled + (a, b), parity))
                        survivors.append((labeled + (b, a), parity ^ 1))
                        continue
                    labeled += (a,)
                elif b > m:
                    labeled += (b,)
                survivors.append((labeled, parity ^ flip))
        key.append(_PAIRS[lo, hi])
        if known is not None and key[e] < pairs[e]:
            break
        frontier = survivors
    odd = 0
    for _, parity in frontier:
        odd += parity
    return tuple(key), 1 if not odd else -1 if odd == len(frontier) else 0, len(frontier)


# (n, m) -> the table of K_{n,m}: canonical pairs -> the representative of
# their class, or False for a zero class.  One record per class, whatever
# the sign of the labeling it was found from, and none per labeled graph.
# Cleared in place, never replaced, so a caller may hold one across a
# ``_held``.
_TABLES = defaultdict(dict)
_TABLE_ENTRIES = 0  # classes held over all sizes
_CANON_CACHE_LIMIT = 120_000
_ORBITS: dict = {}  # class representative -> (anchor, perm, sign), see ``_orbit``


def _held(n: int, m: int, best: Pairs, sign: int):
    """The record of the class of K_{n,m} with canonical pairs ``best`` and
    sign ``sign``: its representative, or False for a zero class.

    A class not held yet is added, its representative built without
    re-checking admissibility (``DirectedGraph._trusted``) as ``best``
    relabels an admissible graph.  With ``_CANON_CACHE_LIMIT`` classes held,
    adding one more first clears every table and the orbit records."""
    global _TABLE_ENTRIES
    table = _TABLES[n, m]
    rep = table.get(best)
    if rep is None:
        if _TABLE_ENTRIES >= _CANON_CACHE_LIMIT:
            for held in _TABLES.values():
                held.clear()
            _ORBITS.clear()
            _TABLE_ENTRIES = 0
        rep = table[best] = DirectedGraph._trusted(n, m, best) if sign else False
        _TABLE_ENTRIES += 1
    return rep


def _lookup(n: int, m: int, pairs: Pairs) -> tuple:
    """(representative, sign) of the class of the admissible graph of
    K_{n,m} on ``pairs``; a zero class has sign 0 and a representative
    that is not held.  The canonical pairs of a class held are found
    without a search; any other labeling costs one search (``_held``)."""
    rep, sign = _TABLES[n, m].get(pairs), 1
    if rep is None:
        pairs, sign, _ = _canonical_raw(n, m, pairs)
        rep = _held(n, m, pairs, sign)
    return (rep, sign) if rep else (DirectedGraph._trusted(n, m, pairs), 0)


def canonical_form(g: DirectedGraph) -> tuple:
    """(representative, sign) of the class of ``g``: its orbit-minimal
    relabeling and the relating sign.

    The representative is the lexicographically least tuple of sorted
    (L, R) pairs over all internal relabelings, found by the pruned
    level-wise search in ``_canonical_raw``; it depends only on the orbit,
    so isomorphic graphs get the same representative, for a nonzero class
    the one object its table record holds while the cache holds it.  A
    class is its representative: nothing else is stored for it.  The sign
    is +1 or -1 by the parity of L/R swaps that reach it, and 0 when both
    parities do.  The one table per size holds a record per class and none
    per labeled graph (``_lookup``): the canonical labeling of a class held
    is found without a search, and ``enumerate_graphs`` records every class
    it yields; any other labeled graph is searched each time it is seen.
    """
    return _lookup(g.n, g.m, g.out_edges)


def _relabeled_pairs(g: DirectedGraph, perm: tuple) -> tuple:
    """Out-edge tuple of ``g`` with argument t renamed perm[t - 1], built
    from the shared ``_PAIRS``."""
    m = g.m
    return tuple([_PAIRS[perm[left - 1] if left <= m else left,
                         perm[right - 1] if right <= m else right]
                  for left, right in g.out_edges])


def _orbit(rep: DirectedGraph) -> tuple:
    """(anchor, perm, sign) for the representative ``rep`` of a nonzero
    class: ``anchor`` is the least class representative over the argument
    relabelings of ``rep``, and ``perm`` the first relabeling in
    ``permutations`` order whose class is the anchor's, with sign ``sign``.

    Recorded once per orbit, for every class in it.  On a miss every
    relabeling rep o s is looked up once (``_lookup``).  A class c found at
    s with sign e is e (rep o s) up to internal relabeling, and an argument
    relabeling commutes with an internal one, so c o t is e (rep o (t s)):
    c's record is read off the same lookups.  The records are cleared with
    the class tables (``_held``)."""
    record = _ORBITS.get(rep)
    if record is not None:
        return record
    perms = list(permutations(range(1, rep.m + 1)))
    found = {s: _lookup(rep.n, rep.m, _relabeled_pairs(rep, s)) for s in perms}
    anchor = min((c for c, _ in found.values()), key=lambda g: g.key)
    for s, (c, sign) in found.items():
        if c in _ORBITS:
            continue
        for t in perms:
            target, target_sign = found[tuple([t[i - 1] for i in s])]
            if target == anchor:
                _ORBITS[c] = anchor, t, sign * target_sign
                break
    return _ORBITS[rep]


# ---------------------------------------------------------------------------
# wheels


def _joined(reach: tuple, e: int, left: int, right: int) -> tuple:
    """``reach`` after internal vertex e gains its edges to ``left`` and
    ``right``.  ``reach`` holds per label the bitmask of internal vertices
    it reaches (bit v: vertex v, label m+1+v), arguments 0; every label that
    reaches e now also reaches what ``left`` and ``right`` reach.  This is
    the transitive closure as long as neither target already reaches e,
    which is the condition for the new edges to close no cycle."""
    down = reach[left] | reach[right]
    return tuple([r | down if r >> e & 1 else r for r in reach])


def _has_wheel_pairs(n: int, m: int, pairs: Pairs) -> bool:
    # cycles can only run through internal vertices; entry e closes one
    # exactly when a target already reaches e
    reach = (0,) * (m + 1) + tuple(1 << v for v in range(n))
    for e, (left, right) in enumerate(pairs):
        if (reach[left] | reach[right]) >> e & 1:
            return True
        reach = _joined(reach, e, left, right)
    return False


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


def _restricted_growth(n: int, m: int, acyclic: bool = False) -> Iterator[Pairs]:
    """K_{n,m} graphs in restricted-growth form with no beaten prefix, in
    lexicographic order.

    Entry e holds the targets of internal vertex e as a sorted pair L < R.
    Vertex e counts as introduced at entry e; each internal target is an
    introduced label or the next free one, and both targets may take the
    next two.  Every orbit minimum of ``_canonical_raw`` has this shape,
    because its unlabeled targets take the next free labels, and none of
    its prefixes is beaten, so cutting the subtree of a prefix that
    ``_canonical_raw`` beats (``known`` = e) keeps every class.  With
    ``acyclic`` a target that reaches vertex e is refused (the cycle rule
    of ``_has_wheel_pairs``, ``reach`` folded by ``_joined``).  Graphs
    that leave an argument without an incoming edge are not yielded.
    """
    base = m + 1
    full = (1 << (m + 1)) - 2  # bits 1..m: every argument covered
    entries: list = []

    def extend(e, introduced, covered, reach):
        if e == n:
            if covered == full:
                yield tuple(entries)
            return
        if (full & ~covered).bit_count() > 2 * (n - e):
            return  # the remaining entries cannot cover the open arguments
        if e > 1 and _canonical_raw(n, m, prefix := tuple(entries), e)[0] != prefix:
            return
        if acyclic and e:
            reach = _joined(reach, e - 1, *entries[-1])
        introduced = max(introduced, e + 1)
        free = base + introduced
        old = [*range(1, base), *(t for t in range(base, free)
                                  if t != base + e and not reach[t] >> e & 1)]
        for i, left in enumerate(old):
            bit = 1 << left if left <= m else 0
            for right in old[i + 1:]:
                entries.append((left, right))
                yield from extend(e + 1, introduced,
                                  covered | bit | (1 << right if right <= m else 0), reach)
                entries.pop()
            if introduced < n:
                entries.append((left, free))
                yield from extend(e + 1, introduced + 1, covered | bit, reach)
                entries.pop()
        if introduced + 1 < n:
            entries.append((free, free + 1))
            yield from extend(e + 1, introduced + 2, covered, reach)
            entries.pop()

    # without ``acyclic`` every mask is 0, so no target is refused
    return extend(0, 0, 0, (0,) * base + tuple((1 << v) * acyclic for v in range(n)))


def _classes(n: int, m: int, filter: str) -> Iterator[tuple]:
    """(canonical pairs, sign, labeled orbit size) of every class of K_{n,m}
    passing the filter, once each, in lexicographic order of the pairs.

    Orderly generation (Read 1978; McKay 1998): a restricted-growth
    candidate, grown without beaten (and for ``wheel_free`` cyclic)
    prefixes, is kept when it passes the filter and is its own orbit
    minimum, which one ``_canonical_raw`` call with ``known`` = n decides,
    stopping early on a beaten graph; the labeled graphs of its class are
    counted from |Aut| by the orbit-stabilizer theorem instead of being
    listed.
    """
    group_order = 2 ** n * math.factorial(n)
    acyclic = filter == "wheel_free"
    for pairs in _restricted_growth(n, m, acyclic):
        if not acyclic and not _passes_filter(n, m, pairs, filter):
            continue
        best, sign, automorphisms = _canonical_raw(n, m, pairs, n)
        if best == pairs:
            yield best, sign, group_order // automorphisms


def _check_size(n: int, m: int, vertex_budget: int):
    if n < 1 or m < 1:
        raise GraphError("need n >= 1 and m >= 1, got n=%d m=%d" % (n, m))
    if n + m > vertex_budget:
        raise BudgetExceededError("K_{%d,%d} exceeds the vertex budget n+m <= %d"
                                  % (n, m, vertex_budget))


@dataclass(frozen=True)
class EnumerationResult:
    classes: tuple  # representatives of the nonzero classes, sorted by encoding
    labeled_count: int  # labeled graphs passing the filter


def enumerate_graphs(n: int, m: int, filter: str = "all",
                     vertex_budget: int = DEFAULT_VERTEX_BUDGET) -> EnumerationResult:
    """Complete duplicate-free list of nonzero canonical classes of K_{n,m}
    passing the filter, plus the number of labeled graphs passing it (zero
    classes included).

    Every class found, zero classes included, is recorded in the table of
    K_{n,m} (``_held``), and the nonzero ones are returned as their held
    representatives, so ``canonical_form`` on a returned representative
    makes no search."""
    _check_size(n, m, vertex_budget)
    if filter not in FILTERS:
        raise ValueError("unknown filter %r (expected one of %s)" % (filter, ", ".join(FILTERS)))
    labeled = 0
    classes = []
    for pairs, sign, orbit in _classes(n, m, filter):
        labeled += orbit
        rep = _held(n, m, pairs, sign)
        if sign:
            classes.append(rep)
    return EnumerationResult(tuple(classes), labeled)


def zero_classes(n: int, m: int,
                 vertex_budget: int = DEFAULT_VERTEX_BUDGET) -> tuple:
    """Canonical representatives of the sign-0 (zero cochain) classes of K_{n,m}."""
    _check_size(n, m, vertex_budget)
    return tuple(DirectedGraph(n, m, pairs)
                 for pairs, sign, _ in _classes(n, m, "all") if not sign)


# ---------------------------------------------------------------------------
# rational combinations of classes


def add_labeled_graphs(acc: dict, n: int, m: int, pairs: Iterable, weight: int) -> dict:
    """Add ``weight`` times each labeled graph of K_{n,m} into ``acc``, a
    dict from canonical representative to ``int`` numerator, and return it.

    ``pairs`` yields the out-edge tuples of admissible graphs: the ones the
    producers (grafting, slot splitting, Jacobiator expansion) build from
    ``_PAIRS``, for which no ``DirectedGraph`` is made, and those of the
    checked graphs of the ``GraphSum`` constructor.  Every term of a sum
    is counted into its class here, by this one path.  Each is probed
    once in the table of K_{n,m}, which finds a canonical labeling of a
    class held (sign +1, or a zero class), and searched otherwise; its
    signed weight is added into the numerator of its class straight from
    the search's (pairs, sign) and the class record (``_held``), and a
    zero class adds nothing.  Callers scale their coefficients to ``int``
    numerators over one common denominator and pass the accumulator of a
    whole operation to ``GraphSum._from_numerators``, which keeps the
    numerators, so the graph-level algebra makes no Fraction.  Numerators
    that cancel stay in ``acc`` as 0.
    """
    table = _TABLES[n, m]
    for out_edges in pairs:
        rep, sign = table.get(out_edges), 1
        if rep is None:
            best, sign, _ = _canonical_raw(n, m, out_edges)
            rep = _held(n, m, best, sign)
        if rep:
            acc[rep] = acc.get(rep, 0) + (weight if sign > 0 else -weight)
    return acc


class GraphSum:
    """Finite QQ-linear combination of canonical graph classes of one arity.

    Terms are stored against canonical representatives; the sign produced by
    canonicalization is absorbed into the coefficient, and zero classes are
    dropped.  Internal vertex counts may differ between terms.  The
    coefficients are ``int`` numerators over one positive ``int``
    denominator, in normal form: no numerator is 0, the gcd of the
    denominator and all numerators is 1, and the empty sum has denominator
    1.  The form is unique, so equal sums compare and hash equal.  The
    graph-level algebra reads and builds the numerators directly;
    ``terms``, ``coefficient_of`` and the text give each coefficient as a
    ``Fraction``.  The constructor checks each term (an exact coefficient, a
    graph encoding or ``DirectedGraph`` of the sum's arity; a float
    coefficient raises ``TypeError``) and counts it into its class through
    ``add_labeled_graphs``, as the producers of the graph-level algebra do.
    """

    __slots__ = ("arity", "_nums", "_denom", "_hash")

    def __init__(self, arity: int, terms: Iterable = ()):  # terms: (graph-like, coeff)
        if arity < 1:
            raise GraphError("arity must be >= 1, got %d" % arity)
        items = []
        for item, coeff in terms:
            coeff = _rational(coeff)
            if not coeff:
                continue
            if isinstance(item, str):
                item = parse_graph(item)
            if not isinstance(item, DirectedGraph):
                raise TypeError("expected graph encoding or DirectedGraph")
            if item.m != arity:
                raise GraphError("term arity %d does not match sum arity %d" % (item.m, arity))
            items.append((item, coeff))
        denom = math.lcm(*(c.denominator for _, c in items))
        nums: dict = {}
        for g, c in items:
            add_labeled_graphs(nums, g.n, arity, (g.out_edges,),
                               c.numerator * (denom // c.denominator))
        self._set(arity, nums, denom)

    def _set(self, arity: int, nums: dict, denom: int) -> "GraphSum":
        """Hold ``nums`` (zero numerators allowed) over ``denom`` > 0,
        brought to normal form by one gcd pass."""
        nums = {rep: num for rep, num in nums.items() if num}
        if denom != 1:
            common = math.gcd(denom, *nums.values())
            if common != 1:
                denom //= common
                nums = {rep: num // common for rep, num in nums.items()}
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "_nums", nums)
        object.__setattr__(self, "_denom", denom)
        object.__setattr__(self, "_hash", None)
        return self

    @classmethod
    def _from_numerators(cls, arity: int, nums: dict, denom: int) -> "GraphSum":
        """The sum over ``nums``, a dict from canonical representative to
        ``int`` numerator over the common denominator ``denom`` > 0, brought
        to normal form; nothing else is checked."""
        return object.__new__(cls)._set(arity, nums, denom)

    def __setattr__(self, name, value):
        raise AttributeError("GraphSum is immutable")

    @classmethod
    def zero(cls, arity: int) -> "GraphSum":
        return cls(arity)

    @classmethod
    def single(cls, graph, coeff=1) -> "GraphSum":
        if isinstance(graph, str):
            graph = parse_graph(graph)
        return cls(graph.m, [(graph, coeff)])

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._nums

    def __len__(self) -> int:
        return len(self._nums)

    def terms(self) -> list:
        """Sorted list of (class representative, Fraction coefficient): the
        held representatives, so a sum rebuilt from its terms makes no
        canonical search."""
        return [(rep, Fraction(self._nums[rep], self._denom))
                for rep in sorted(self._nums, key=lambda g: g.key)]

    def coefficient_of(self, graph) -> Fraction:
        """Effective coefficient of the given labeled graph (sign included)."""
        if isinstance(graph, str):
            graph = parse_graph(graph)
        rep, sign = canonical_form(graph)
        return Fraction(self._nums.get(rep, 0) * sign, self._denom)

    def internal_counts(self) -> tuple:
        return tuple(sorted({rep.n for rep in self._nums}))

    def restrict_count(self, n: int) -> "GraphSum":
        return GraphSum._from_numerators(
            self.arity, {rep: num for rep, num in self._nums.items() if rep.n == n}, self._denom)

    # -- algebra -----------------------------------------------------------
    # the terms are canonical already, so sums and multiples combine the
    # numerators over the least common denominator

    def _combined(self, other: "GraphSum", sign: int) -> "GraphSum":
        """self + sign * other."""
        if self.arity != other.arity:
            raise GraphError("cannot add sums of arity %d and %d"
                             % (self.arity, other.arity))
        denom = math.lcm(self._denom, other._denom)
        up, factor = denom // self._denom, sign * (denom // other._denom)
        nums = {rep: num * up for rep, num in self._nums.items()}
        for rep, num in other._nums.items():
            nums[rep] = nums.get(rep, 0) + num * factor
        return GraphSum._from_numerators(self.arity, nums, denom)

    def __add__(self, other: "GraphSum") -> "GraphSum":
        return self._combined(other, 1)

    def __sub__(self, other: "GraphSum") -> "GraphSum":
        return self._combined(other, -1)

    def scale(self, c) -> "GraphSum":
        c = _rational(c)
        return GraphSum._from_numerators(
            self.arity, {rep: num * c.numerator for rep, num in self._nums.items()},
            self._denom * c.denominator)

    def __eq__(self, other):
        return (isinstance(other, GraphSum) and self.arity == other.arity
                and self._denom == other._denom and self._nums == other._nums)

    def __hash__(self):
        """Hash of the normal form, computed once."""
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(
                (self.arity, self._denom, frozenset(self._nums.items()))))
        return self._hash

    def permute_args(self, perm: tuple) -> "GraphSum":
        """Relabel argument slots: old slot i becomes perm[i-1] (1-based values)."""
        if sorted(perm) != list(range(1, self.arity + 1)):
            raise GraphError("bad argument permutation %r" % (perm,))
        acc: dict = {}
        for rep, num in self._nums.items():
            add_labeled_graphs(acc, rep.n, rep.m, [_relabeled_pairs(rep, perm)], num)
        return GraphSum._from_numerators(self.arity, acc, self._denom)

    # -- text --------------------------------------------------------------

    def to_lines(self) -> list:
        return ["%s\t%s" % (coeff, rep.encode()) for rep, coeff in self.terms()]

    def __str__(self) -> str:
        return "\n".join(self.to_lines()) if self._nums else "(empty sum of arity %d)" % self.arity

    def __repr__(self) -> str:
        return "GraphSum(arity=%d, terms=%d)" % (self.arity, len(self._nums))

    @classmethod
    def from_lines(cls, lines: Iterable) -> "GraphSum":
        items = list(parse_terms(lines))
        if not items:
            raise GraphError("cannot infer arity of an empty graph-sum file")
        return cls(items[0][0].m, items)
