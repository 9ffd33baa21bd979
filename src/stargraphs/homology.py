"""Graph-level Hochschild differential, Gerstenhaber composition/bracket, and
the Jacobi-ideal generators.

The differential and the composition are built combinatorially (argument-slot
splitting with signs, grafting with Leibniz re-aiming) so that they agree
exactly, as operators, with ``operators.oracle_delta`` and
``operators.oracle_compose``.  Slot splitting, grafting and the Jacobiator
expansion re-aim edges by one shared step (``_reaimed``) and count the
graphs they build into classes through ``graphs.add_labeled_graphs``.
Split terms that would leave a new argument vertex with indegree 0 cancel
against the outer multiplication terms of the normalized complex and are
dropped, which keeps every output inside the admissible graph family.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .errors import BudgetExceededError, GraphError
from .graphs import (_PAIRS, DEFAULT_VERTEX_BUDGET, DirectedGraph, GraphSum,
                     add_labeled_graphs, has_wheel)

# ---------------------------------------------------------------------------
# Hochschild differential


def _reaimed(base: list, aimed, choices):
    """The Leibniz re-aiming step: for each target tuple in ``choices``,
    ``base`` with each edge end (pos, side) of ``aimed`` moved to its
    target; yields out-edge tuples built from the shared ``_PAIRS``."""
    for choice in choices:
        pairs = base.copy()
        for (pos, side), target in zip(aimed, choice):
            left, right = pairs[pos]
            pairs[pos] = _PAIRS[target, right] if side == 0 else _PAIRS[left, target]
        yield tuple(pairs)


def _split_terms(g: DirectedGraph, slot: int):
    """All proper splits of the incoming edges of argument ``slot`` over two
    adjacent argument vertices; yields out-edge tuples of K_{n,m+1} built
    from the shared ``_PAIRS``."""
    incoming = g.in_edges.get(slot, ())
    k = len(incoming)
    if k < 2:
        return
    # targets past the slot move up by one; the slot's own edges are set below
    base = [_PAIRS[left + (left >= slot), right + (right >= slot)]
            for left, right in g.out_edges]
    # the first edge's target varies fastest; the first and last choices
    # aim every edge at one vertex and are no split
    splits = itertools.product((slot + 1, slot), repeat=k)
    yield from _reaimed(base, incoming[::-1], itertools.islice(splits, 1, (1 << k) - 1))


def graph_delta(s: GraphSum) -> GraphSum:
    """Graph-level Hochschild differential; arity m -> m + 1.

    For each argument slot t (1-based) the incoming edges are split over two
    adjacent argument vertices in all proper ways, with sign
    (-1)^m (-1)^(t-1) matching [m0, .] on the normalized complex.  Every
    split adds the signed ``int`` numerator of its term of ``s`` into one
    accumulator (``add_labeled_graphs``), and the result keeps the
    denominator of ``s``.
    """
    m = s.arity
    acc: dict = {}
    outer_sign = 1 if m % 2 == 0 else -1
    for rep, num in s._nums.items():
        for slot in range(1, m + 1):
            term_sign = outer_sign if (slot - 1) % 2 == 0 else -outer_sign
            add_labeled_graphs(acc, rep.n, m + 1, _split_terms(rep, slot), num * term_sign)
    return GraphSum._from_numerators(m + 1, acc, s._denom)


# ---------------------------------------------------------------------------
# composition and bracket


def graft_terms(g1: DirectedGraph, slot: int, g2: DirectedGraph):
    """Insert ``g2`` into argument ``slot`` of ``g1``: the grafted graph keeps
    both edge sets, and every edge of g1 that pointed at the slot is re-aimed
    to each vertex of the grafted copy in all combinations (Leibniz rule).
    Yields out-edge tuples of K_{n1+n2, m1+m2-1} built from the shared
    ``_PAIRS``."""
    n1, m1 = g1.n, g1.m
    m2 = g2.m
    if not 1 <= slot <= m1:
        raise GraphError("slot %d out of range 1..%d" % (slot, m1))
    m = m1 + m2 - 1

    def map_g1(target):
        if target < slot:
            return target
        if target > m1:
            return m + 1 + (target - m1 - 1)
        return target + m2 - 1  # the slot itself is re-aimed below

    def map_g2(target):
        if target <= m2:
            return slot - 1 + target
        return m + 1 + n1 + (target - m2 - 1)

    template = []
    aimed = []  # (vertex position in combined list, side) of edges into the slot
    for pos, (left, right) in enumerate(g1.out_edges):
        if left == slot:
            aimed.append((pos, 0))
        elif right == slot:
            aimed.append((pos, 1))
        template.append(_PAIRS[map_g1(left), map_g1(right)])
    template.extend(_PAIRS[map_g2(left), map_g2(right)] for left, right in g2.out_edges)

    graft_targets = tuple(range(slot, slot + m2)) + tuple(range(m + 1 + n1, m + 1 + n1 + g2.n))
    yield from _reaimed(template, aimed, itertools.product(graft_targets, repeat=len(aimed)))


def _compose_into(acc: dict, s1: GraphSum, s2: GraphSum, sign: int) -> int:
    """Add sign * (s1 o s2) into ``acc`` as ``int`` numerators over
    D = D1 D2, the product of the denominators of s1 and s2, and return D.
    Each term pair's numerators are multiplied once, and every graft adds
    the signed product into ``acc`` (``add_labeled_graphs``)."""
    m1, m2 = s1.arity, s2.arity
    terms2 = s2._nums.items()
    for rep1, num1 in s1._nums.items():
        for rep2, num2 in terms2:
            base = num1 * num2 * sign
            n = rep1.n + rep2.n
            for slot in range(1, m1 + 1):
                weight = base if ((slot - 1) * (m2 - 1)) % 2 == 0 else -base
                add_labeled_graphs(acc, n, m1 + m2 - 1, graft_terms(rep1, slot, rep2), weight)
    return s1._denom * s2._denom


def graph_compose(s1: GraphSum, s2: GraphSum) -> GraphSum:
    """Insertion composition at graph level; arities (m1, m2) -> m1 + m2 - 1.
    Slot t carries the sign (-1)^((t-1)(m2-1)) of the operator formula.
    Each grafted graph is canonicalized once and its signed numerator
    added per class (``_compose_into``)."""
    acc: dict = {}
    denom = _compose_into(acc, s1, s2, 1)
    return GraphSum._from_numerators(s1.arity + s2.arity - 1, acc, denom)


def graph_gerstenhaber(s1: GraphSum, s2: GraphSum) -> GraphSum:
    """[s1, s2] = s1 o s2 - (-1)^{k1 k2} s2 o s1 with k_i = arity_i - 1.

    Both compositions are counted into one accumulator over the same
    denominator D1 D2, as in ``graph_compose``.  For two arity-2 cochains
    k1 k2 = 1, so [s1, s2] = s1 o s2 + s2 o s1 = [s2, s1]."""
    k1, k2 = s1.arity - 1, s2.arity - 1
    acc: dict = {}
    denom = _compose_into(acc, s1, s2, 1)
    _compose_into(acc, s2, s1, 1 if (k1 * k2) % 2 else -1)
    return GraphSum._from_numerators(k1 + k2 + 1, acc, denom)


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


def _jacobiator_terms(m: int, ordinary_out: tuple, special_out: tuple):
    """The three cyclic two-vertex terms of the Jacobiator in place of the
    outdegree-3 vertex, with the incoming edges redistributed over the two
    new vertices in all ways; yields out-edge tuples of K_{n_ord+2, m}
    built from the shared ``_PAIRS``."""
    n_ord = len(ordinary_out)
    special_id = m + n_ord + 1
    a_id, b_id = m + n_ord + 1, m + n_ord + 2
    incoming = [(pos, side) for pos, pair in enumerate(ordinary_out)
                for side in (0, 1) if pair[side] == special_id]
    base = [_PAIRS[pair] for pair in ordinary_out]
    e1, e2, e3 = special_out
    for head, mid, tail in ((e1, e2, e3), (e2, e3, e1), (e3, e1, e2)):
        # outer factor p^{i l}: i -> head, l -> inner; inner factor p^{j k};
        # the first incoming edge's target varies fastest
        yield from _reaimed(base + [_PAIRS[head, b_id], _PAIRS[mid, tail]], incoming[::-1],
                            itertools.product((a_id, b_id), repeat=len(incoming)))


def expand_jacobiator_vertex(m: int, ordinary_out: tuple, special_out: tuple) -> GraphSum:
    """Replace the outdegree-3 vertex by the three cyclic two-vertex terms of
    the Jacobiator, redistributing the incoming edges over the two new
    vertices in all ways.  Every term has weight 1, so the signs are summed
    as ``int`` numerators per class over the denominator 1."""
    n = len(ordinary_out) + 2
    return GraphSum._from_numerators(m, add_labeled_graphs(
        {}, n, m, _jacobiator_terms(m, ordinary_out, special_out), 1), 1)


def _relabeled(m: int, triple: tuple, ordinary: tuple, perm: tuple) -> tuple:
    """(triple, ordinary) of the skeleton with every id t renamed perm[t],
    its pairs and triple sorted again."""
    moved = [()] * len(ordinary)
    for pos, (left, right) in enumerate(ordinary):
        left, right = perm[left], perm[right]
        moved[perm[m + 1 + pos] - m - 1] = (left, right) if left < right else (right, left)
    return tuple(sorted(perm[t] for t in triple)), tuple(moved)


@functools.lru_cache(maxsize=None)
def leibniz_generators(n_total: int, m: int, wheel_free_expansions: bool = False) -> tuple:
    """Complete list of Jacobi-ideal generators with ``n_total`` copies of
    the Poisson tensor and arity ``m``, deduplicated by expansion direction;
    built once per argument tuple.

    Target triples of the special vertex and target pairs of the ordinary
    vertices are enumerated in increasing order only: the three-term
    expansion is invariant under cyclic rotations of the triple, and it
    flips sign under a transposition of the triple or of a pair, so sorted
    targets cover every generator up to sign.  A skeleton with a swapped
    pair comes after its sorted twin in product order, so skipping it
    changes neither the list nor its order.  Likewise a skeleton that a
    permutation of the ordinary vertices maps to an earlier one in product
    order is skipped: its expansion is, up to sign, the earlier one's
    relabeled, so it is already in ``seen``, or was zero or had a wheel.
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
        ordinary_options.append(tuple(itertools.combinations(targets, 2)))
    # each non-identity permutation of the ordinary ids, as a map on all ids
    relabelings = [tuple(range(m + 1)) + perm + (special_id,)
                   for perm in itertools.permutations(range(m + 1, special_id))][1:]
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
            if any(_relabeled(m, triple, ordinary, perm) < (triple, ordinary)
                   for perm in relabelings):
                continue
            expansion = expand_jacobiator_vertex(m, ordinary, triple)
            if expansion.is_zero:
                continue
            nums = expansion._nums
            if wheel_free_expansions and any(map(has_wheel, nums)):
                continue
            # the primitive numerator vector, its sign fixed by the lead term
            common = math.gcd(*nums.values())
            if nums[min(nums, key=lambda g: g.key)] < 0:
                common = -common
            key = frozenset((rep, num // common) for rep, num in nums.items())
            if key in seen:
                continue
            seen.add(key)
            generators.append(LeibnizGenerator(n_total, m, ordinary, triple, expansion))
    return tuple(generators)
