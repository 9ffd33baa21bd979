"""Graph-level Hochschild differential, Gerstenhaber composition/bracket, and
the Jacobi-ideal generators.

The differential and the composition are built combinatorially (argument-slot
splitting with signs, grafting with Leibniz re-aiming) so that they agree
exactly, as operators, with ``operators.oracle_delta`` and
``operators.oracle_compose``.  Split terms that would leave a new argument
vertex with indegree 0 cancel against the outer multiplication terms of the
normalized complex and are dropped, which keeps every output inside the
admissible graph family.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceededError, GraphError
from .graphs import (DEFAULT_VERTEX_BUDGET, DirectedGraph, GraphSum, canonical_form,
                     has_wheel)

# ---------------------------------------------------------------------------
# Hochschild differential


def _split_terms(g: DirectedGraph, slot: int):
    """All proper splits of the incoming edges of argument ``slot`` over two
    adjacent argument vertices; yields DirectedGraph instances."""
    n, m = g.n, g.m
    incoming = g.in_edges.get(slot, ())
    k = len(incoming)
    if k < 2:
        return
    base_pairs = []
    for left, right in g.out_edges:
        remapped = []
        for target in (left, right):
            if target <= m:
                remapped.append(target if target < slot else (target + 1 if target > slot else None))
            else:
                remapped.append(target + 1)
        base_pairs.append(remapped)
    for mask in range(1, (1 << k) - 1):
        pairs = [list(pair) for pair in base_pairs]
        for bit, (src, side) in enumerate(incoming):
            pairs[src][side] = slot if (mask >> bit) & 1 else slot + 1
        yield DirectedGraph(n, m + 1, tuple((a, b) for a, b in pairs))


def graph_delta(s: GraphSum) -> GraphSum:
    """Graph-level Hochschild differential; arity m -> m + 1.

    For each argument slot t (1-based) the incoming edges are split over two
    adjacent argument vertices in all proper ways, with sign
    (-1)^m (-1)^(t-1) matching [m0, .] on the normalized complex.
    """
    m = s.arity
    out = []
    outer_sign = 1 if m % 2 == 0 else -1
    for cls, coeff in s.terms():
        for slot in range(1, m + 1):
            term_sign = outer_sign if (slot - 1) % 2 == 0 else -outer_sign
            weight = coeff * term_sign
            for split in _split_terms(cls.rep, slot):
                out.append((split, weight))
    return GraphSum(m + 1, out)


# ---------------------------------------------------------------------------
# composition and bracket


def graft_terms(g1: DirectedGraph, slot: int, g2: DirectedGraph):
    """Insert ``g2`` into argument ``slot`` of ``g1``: the grafted graph keeps
    both edge sets, and every edge of g1 that pointed at the slot is re-aimed
    to each vertex of the grafted copy in all combinations (Leibniz rule).
    Yields DirectedGraph instances of arity m1 + m2 - 1."""
    n1, m1 = g1.n, g1.m
    n2, m2 = g2.n, g2.m
    if not 1 <= slot <= m1:
        raise GraphError("slot %d out of range 1..%d" % (slot, m1))
    m = m1 + m2 - 1
    n = n1 + n2

    def map_g1(target):
        if target <= m1:
            if target < slot:
                return target
            if target > slot:
                return target + m2 - 1
            return None  # re-aimed below
        return m + 1 + (target - m1 - 1)

    def map_g2(target):
        if target <= m2:
            return slot - 1 + target
        return m + 1 + n1 + (target - m2 - 1)

    template = []
    aimed_positions = []  # (vertex position in combined list, side)
    for pos, (left, right) in enumerate(g1.out_edges):
        new_left, new_right = map_g1(left), map_g1(right)
        if new_left is None:
            aimed_positions.append((pos, 0))
        if new_right is None:
            aimed_positions.append((pos, 1))
        template.append([new_left, new_right])
    for left, right in g2.out_edges:
        template.append([map_g2(left), map_g2(right)])

    graft_targets = tuple(range(slot, slot + m2)) + tuple(
        m + 1 + n1 + j for j in range(n2))
    for choice in itertools.product(graft_targets, repeat=len(aimed_positions)):
        pairs = [list(pair) for pair in template]
        for (pos, side), target in zip(aimed_positions, choice):
            pairs[pos][side] = target
        yield DirectedGraph(n, m, tuple((a, b) for a, b in pairs))


def graph_compose(s1: GraphSum, s2: GraphSum) -> GraphSum:
    """Insertion composition at graph level; arities (m1, m2) -> m1 + m2 - 1.
    Slot t carries the sign (-1)^((t-1)(m2-1)) of the operator formula."""
    m1, m2 = s1.arity, s2.arity
    out = []
    for cls1, c1 in s1.terms():
        for cls2, c2 in s2.terms():
            base = c1 * c2
            for slot in range(1, m1 + 1):
                weight = base if ((slot - 1) * (m2 - 1)) % 2 == 0 else -base
                for grafted in graft_terms(cls1.rep, slot, cls2.rep):
                    out.append((grafted, weight))
    return GraphSum(m1 + m2 - 1, out)


def graph_gerstenhaber(s1: GraphSum, s2: GraphSum) -> GraphSum:
    """[s1, s2] = s1 o s2 - (-1)^{k1 k2} s2 o s1 with k_i = arity_i - 1."""
    k1, k2 = s1.arity - 1, s2.arity - 1
    left = graph_compose(s1, s2)
    right = graph_compose(s2, s1)
    return left - right if (k1 * k2) % 2 == 0 else left + right


# ---------------------------------------------------------------------------
# Leibniz generators (the Jacobi ideal at graph level)


@dataclass(frozen=True)
class LeibnizGenerator:
    """A skeleton with one outdegree-3 vertex standing for the Jacobiator,
    plus its expansion into admissible graphs.

    Skeleton ids: arguments 1..m, ordinary internal vertices m+1..m+n_ord,
    the special vertex last (id m + n_ord + 1).  ``special_out`` is the
    ordered target triple of the special vertex.
    """

    n_total: int
    m: int
    ordinary_out: tuple  # (L, R) per ordinary vertex
    special_out: tuple  # ordered triple
    expansion: GraphSum

    def skeleton_text(self) -> str:
        n_ord = len(self.ordinary_out)
        body = " / ".join("%d: %d %d" % (self.m + 1 + pos, a, b)
                          for pos, (a, b) in enumerate(self.ordinary_out))
        special = "%d: %d %d %d" % ((self.m + n_ord + 1,) + self.special_out)
        return "%d %d ; %s" % (self.n_total, self.m,
                               " / ".join(filter(None, [body, special])))


def expand_jacobiator_vertex(m: int, ordinary_out: tuple, special_out: tuple) -> GraphSum:
    """Replace the outdegree-3 vertex by the three cyclic two-vertex terms of
    the Jacobiator, redistributing the incoming edges over the two new
    vertices in all ways."""
    n_ord = len(ordinary_out)
    special_id = m + n_ord + 1
    a_id, b_id = m + n_ord + 1, m + n_ord + 2
    n = n_ord + 2
    incoming = [(pos, side) for pos, pair in enumerate(ordinary_out)
                for side in (0, 1) if pair[side] == special_id]
    e1, e2, e3 = special_out
    out = []
    for rot in ((e1, e2, e3), (e2, e3, e1), (e3, e1, e2)):
        head, mid, tail = rot
        for mask in range(1 << len(incoming)):
            pairs = [list(pair) for pair in ordinary_out]
            for bit, (pos, side) in enumerate(incoming):
                pairs[pos][side] = a_id if (mask >> bit) & 1 == 0 else b_id
            pairs.append([head, b_id])   # outer factor p^{i l}: i -> head, l -> inner
            pairs.append([mid, tail])    # inner factor p^{j k}
            out.append((DirectedGraph(n, m, tuple((x, y) for x, y in pairs)), 1))
    return GraphSum(m, out)


def leibniz_generators(n_total: int, m: int, wheel_free_expansions: bool = False) -> list:
    """Complete list of Jacobi-ideal generators with ``n_total`` bivector
    copies and arity ``m``, deduplicated by expansion direction.

    The special vertex's target triple is enumerated in increasing order only:
    the three-term expansion is invariant under cyclic rotations of the triple
    and flips sign under transpositions, so sorted triples cover every
    generator up to sign.
    """
    if n_total < 2:
        raise GraphError("need n_total >= 2, got %d" % n_total)
    if m < 1:
        raise GraphError("need m >= 1, got %d" % m)
    n_ord = n_total - 2
    if n_ord + 1 + m > DEFAULT_VERTEX_BUDGET:
        raise BudgetExceededError("Leibniz skeletons with n_total=%d, m=%d exceed "
                                  "the vertex budget" % (n_total, m))
    special_id = m + n_ord + 1
    all_ids = range(1, special_id + 1)
    generators = []
    seen = set()
    ordinary_options = []
    for pos in range(n_ord):
        vid = m + 1 + pos
        targets = [t for t in all_ids if t != vid]
        ordinary_options.append(tuple((a, b) for a in targets for b in targets if a != b))
    for triple in itertools.combinations([t for t in all_ids if t != special_id], 3):
        for ordinary in itertools.product(*ordinary_options):
            covered = set(t for t in triple if t <= m)
            for left, right in ordinary:
                if left <= m:
                    covered.add(left)
                if right <= m:
                    covered.add(right)
            if len(covered) != m:
                continue
            expansion = expand_jacobiator_vertex(m, ordinary, triple)
            if expansion.is_zero:
                continue
            if wheel_free_expansions and any(
                    has_wheel(cls.rep) for cls, _ in expansion.terms()):
                continue
            terms = expansion.terms()
            lead = terms[0][1]
            key = tuple((cls.rep.key, coeff / lead) for cls, coeff in terms)
            if key in seen:
                continue
            seen.add(key)
            generators.append(LeibnizGenerator(n_total, m, ordinary, triple, expansion))
    return generators
