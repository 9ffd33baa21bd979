"""Reference implementations used only by the tests: one per rule of the
library, each stated from first principles with plain loops.

* admissible labeled graphs: ``brute_force_labeled_graphs``;
* canonical form, sign, |Aut| and the prefix cut of the canonical search:
  ``brute_force_canonical``, ``brute_force_automorphisms`` and
  ``brute_force_prefix_key``, each over all n! internal relabelings;
* enumeration, labeled counts and zero classes: ``scan_enumerate_graphs``,
  ``scan_zero_classes``; pruned generation: ``unpruned_restricted_growth``;
* wheel detection: ``brute_force_has_wheel``;
* ``compile_graph``: ``brute_force_compile_graph``, over all |pairs|^n
  index assignments;
* orbit reuse and integer sums (``compile_sum``, and ``apply_graph`` on a
  labeled graph through ``GraphSum.single``): ``reference_operator``;
* the evaluation pass (``apply``): ``brute_force_apply``, by Poly products;
* ``CoboundaryColumns``: ``brute_force_delta``, by ``brute_force_columns``;
  a three-argument operator: ``transcribed_tridiff``;
* ranks, feasibility and the streaming reducer's outcomes: ``dense_rank``;
  ``echelon`` (reduced rows, pivot order, nonzero budget):
  ``fraction_echelon``;
* Leibniz generators (sorted pairs, skipped twin skeletons):
  ``product_order_leibniz_generators``;
* ``GraphSum`` arithmetic (``+``, ``-``, ``scale``, ``restrict_count``,
  ``coefficient_of``, ``terms``): ``FractionDictSum``, a plain dict of
  Fractions updated with loops;
* ``Poly`` arithmetic on packed exponents (``+``, ``-``, ``*``, ``scale``,
  ``derive``, ``derive_multi``): ``TupleDictPoly``, a plain dict from
  exponent tuple to Fraction updated with loops;
* graph-level delta, composition and bracket: ``labelled_graph_delta``,
  ``labelled_graph_compose``, ``labelled_graph_gerstenhaber``; the
  Jacobiator expansion: ``labelled_expand_jacobiator_vertex`` on
  ``transcribed_jacobiator_graphs``;
* the Jacobi identity of a structure: ``operator_jacobiator``.

Some references deliberately share one library step that another reference
checks, so that each checks one rule:

* ``scan_enumerate_graphs``, ``scan_zero_classes`` and the minima of
  ``unpruned_restricted_growth`` share ``_canonical_raw`` and the filters;
  ``brute_force_canonical`` checks the canonical forms.
* ``reference_operator``, and so ``brute_force_columns``, share
  ``compile_graph``, which the tests check against
  ``brute_force_compile_graph`` on every graph it serves as a reference
  for, on at least one fixture; ``brute_force_apply`` and
  ``brute_force_delta`` share ``Poly``, whose arithmetic the tests check
  against ``TupleDictPoly``.
* ``labelled_graph_*`` share the producers ``_split_terms`` and
  ``graft_terms`` and pass each labeled graph to the ``GraphSum``
  constructor, so they check the counting into classes; the operator-level
  tests check the producers.
* ``FractionDictSum`` shares ``canonical_form`` to find each labeled
  graph's (representative, sign) pair, and keys its class by the
  representative's encoding key.
* ``product_order_leibniz_generators`` shares ``expand_jacobiator_vertex``,
  ``operator_jacobiator`` shares ``apply_graph``, and ``fraction_echelon``
  the ``Echelon`` container and the names of the pivot strategies.
"""

import itertools
import math
from fractions import Fraction
from typing import Iterable

from stargraphs.errors import BudgetExceededError, DimensionError
from stargraphs.graphs import (DirectedGraph, EnumerationResult, GraphSum, _canonical_raw,
                               _passes_filter, canonical_form, has_wheel, parse_graph)
from stargraphs.homology import (LeibnizGenerator, _jacobiator_terms, _split_terms,
                                 expand_jacobiator_vertex, graft_terms)
from stargraphs.linalg import STRATEGIES, Echelon, Row
from stargraphs.operators import PolyDiffOperator, apply_graph, compile_graph
from stargraphs.poly import Poly


def brute_force_labeled_graphs(n, m):
    """Every admissible labeled graph of K_{n,m} as a tuple of (L, R) pairs,
    in lexicographic order: the product over the vertices of all ordered
    target pairs, kept when every argument has an incoming edge."""
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


def brute_force_canonical(n, m, pairs):
    """Orbit minimum and sign by scanning all n! internal relabelings: each
    relabeled graph is sorted pair by pair, the least tuple wins, and the
    sign records which L/R swap parities reach it (0 when both do)."""
    best = None
    parities = 0  # bitmask: 1 -> even reached, 2 -> odd reached
    for perm in itertools.permutations(range(n)):
        relabeled = [None] * n
        parity = 0
        for pos in range(n):
            left, right = pairs[pos]
            if left > m:
                left = m + 1 + perm[left - m - 1]
            if right > m:
                right = m + 1 + perm[right - m - 1]
            if left > right:
                left, right = right, left
                parity ^= 1
            relabeled[perm[pos]] = (left, right)
        key = tuple(relabeled)
        if best is None or key < best:
            best = key
            parities = 1 << parity
        elif key == best:
            parities |= 1 << parity
    if parities == 3:
        sign = 0
    elif parities == 1:
        sign = 1
    else:
        sign = -1
    return best, sign


def brute_force_automorphisms(n, m, pairs):
    """Size of the stabilizer of the labeled graph in the group of the
    n! * 2^n internal relabelings x per-vertex L/R swaps.  Every relabeling
    is counted: for a fixed permutation the swaps act on separate entries,
    so the swap vectors that fix the graph number the product, over the
    entries, of the swaps (none or one) that fix that entry."""
    count = 0
    for perm in itertools.permutations(range(n)):
        moved = [None] * n
        for pos in range(n):
            left, right = pairs[pos]
            if left > m:
                left = m + 1 + perm[left - m - 1]
            if right > m:
                right = m + 1 + perm[right - m - 1]
            moved[perm[pos]] = (left, right)
        fixing = 1
        for entry, target in zip(moved, pairs):
            fixing *= (entry == target) + (entry[::-1] == target)
        count += fixing
    return count


def brute_force_prefix_key(n, m, prefix):
    """The key the canonical search reads off the out-edge pairs of the
    first k = len(prefix) internal vertices of a K_{n,m} graph, by scanning
    all n! internal relabelings.  Entry e of a relabeling, the sorted
    relabeled pair of the vertex it labels e, is known when that vertex is
    among the first k.  Level by level the key takes the least known entry
    over the relabelings whose earlier entries equal the key so far, and it
    stops after the first entry below prefix[e].  With k = n this is the
    orbit minimum, cut after its first entry that differs from ``prefix``."""
    k = len(prefix)
    relabelings = list(itertools.permutations(range(n)))  # perm[old] = new
    key = ()
    for e in range(k):
        entries = []
        for perm in relabelings:
            old = perm.index(e)
            if old < k:
                left, right = (t if t <= m else m + 1 + perm[t - m - 1] for t in prefix[old])
                entries.append((min(left, right), max(left, right)))
            else:
                entries.append(None)
        least = min(entry for entry in entries if entry is not None)
        key += (least,)
        if least < prefix[e]:
            break
        relabelings = [perm for perm, entry in zip(relabelings, entries) if entry == least]
    return key


def scan_enumerate_graphs(n, m, filter="all"):
    """Enumeration by the product over every labeled out-edge tuple: each
    graph passing the filter is counted and canonicalized, and the nonzero
    orbit minima are collected.  It shares ``_canonical_raw`` and the
    filter with the library, so it checks the generation and the counting,
    not the canonical forms (``brute_force_canonical`` checks those)."""
    labeled = 0
    reps = set()
    for pairs in brute_force_labeled_graphs(n, m):
        if not _passes_filter(n, m, pairs, filter):
            continue
        labeled += 1
        best, sign, _ = _canonical_raw(n, m, pairs)
        if sign == 0:
            continue
        reps.add(best)
    classes = tuple(DirectedGraph(n, m, pairs) for pairs in sorted(reps))
    return EnumerationResult(classes, labeled)


def unpruned_restricted_growth(n: int, m: int):
    """The restricted-growth generator before prefixes were cut: every
    candidate whose internal targets are introduced labels or the next free
    ones, built in full, with no minimality or cycle test on the way.  The
    library keeps only the orbit minima of these that pass the filter.

    Every K_{n,m} graph in restricted-growth form, in lexicographic order.

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


def scan_zero_classes(n, m):
    """Sign-0 orbit minima of K_{n,m} by the same product scan."""
    reps = set()
    for pairs in brute_force_labeled_graphs(n, m):
        best, sign, _ = _canonical_raw(n, m, pairs)
        if sign == 0:
            reps.add(best)
    return tuple(DirectedGraph(n, m, pairs) for pairs in sorted(reps))


def brute_force_has_wheel(n, m, pairs):
    """Cycle detection by path extension among internal vertices only."""
    internal = set(range(m + 1, m + n + 1))
    edges = set()
    for pos, (left, right) in enumerate(pairs):
        vid = m + 1 + pos
        for t in (left, right):
            if t in internal:
                edges.add((vid, t))

    def reachable(start, goal, seen):
        for a, b in edges:
            if a == start:
                if b == goal:
                    return True
                if b not in seen:
                    if reachable(b, goal, seen | {b}):
                        return True
        return False

    return any(reachable(v, v, {v}) for v in internal)


def brute_force_compile_graph(g, p):
    """Operator of one labeled graph by scanning all |pairs|^n assignments of
    an ordered index pair to every internal vertex, multiplying the n vertex
    factors from scratch for each assignment."""
    d, n, m = p.d, g.n, g.m
    pairs = p.nonzero_ordered_pairs()
    terms = {}
    if not pairs:
        return PolyDiffOperator(d, m, terms)
    in_edges = g.in_edges
    arg_sources = [in_edges.get(t, ()) for t in range(1, m + 1)]
    vertex_sources = [in_edges.get(m + 1 + pos, ()) for pos in range(n)]
    zero_alpha = (0,) * d
    for assign in itertools.product(pairs, repeat=n):
        coeff = None
        dead = False
        for pos in range(n):
            sources = vertex_sources[pos]
            if sources:
                alpha = [0] * d
                for src, side in sources:
                    alpha[assign[src][side] - 1] += 1
                alpha = tuple(alpha)
            else:
                alpha = zero_alpha
            i, j = assign[pos]
            factor = p.entry_derivative(i, j, alpha)
            if factor.is_zero:
                dead = True
                break
            coeff = factor if coeff is None else coeff * factor
        if dead:
            continue
        key_parts = []
        for sources in arg_sources:
            alpha = [0] * d
            for src, side in sources:
                alpha[assign[src][side] - 1] += 1
            key_parts.append(tuple(alpha))
        key = tuple(key_parts)
        cur = terms.get(key)
        terms[key] = coeff if cur is None else cur + coeff
    return PolyDiffOperator(d, m, terms)


def brute_force_apply(op, args):
    """Evaluate a compiled operator term by term with Poly products and sums."""
    total = Poly.zero(op.d)
    deriv_cache = {}
    for key, coeff in op.terms.items():
        product = coeff
        dead = False
        for slot, alpha in enumerate(key):
            ck = (slot, alpha)
            der = deriv_cache.get(ck)
            if der is None:
                der = args[slot].derive_multi(alpha)
                deriv_cache[ck] = der
            if der.is_zero:
                dead = True
                break
            product = product * der
        if not dead:
            total = total + product
    return total


def reference_operator(s, p):
    """Operator of a GraphSum, or of one labeled graph, as the Poly sum over
    its terms of the coefficient times ``compile_graph`` of the term's
    graph (a labeled graph: its own ``compile_graph``, not canonicalized):
    no orbit reuse, no integer sums and no cache, so it checks
    ``compile_sum`` and the labeled entry points that go through
    ``GraphSum.single``, while ``compile_graph`` is checked against
    ``brute_force_compile_graph`` on the same graphs."""
    if isinstance(s, DirectedGraph):
        return compile_graph(s, p)
    terms = {}
    for rep, coeff in s.terms():
        for key, poly in compile_graph(rep, p).terms.items():
            terms[key] = terms.get(key, Poly.zero(p.d)) + poly.scale(coeff)
    return PolyDiffOperator(p.d, s.arity, terms)


def brute_force_delta(op, args):
    """Hochschild coboundary [m0, .] of the operator ``op`` evaluated
    literally, each inner value by ``brute_force_apply`` and each product
    f_j f_{j+1} formed anew:

    (delta C)(f_0..f_m) = C(f_0..f_{m-1}) f_m + (-1)^{m-1} f_0 C(f_1..f_m)
                          - (-1)^{m-1} sum_j (-1)^j C(.., f_j f_{j+1}, ..).
    """
    m = op.arity
    if len(args) != m + 1:
        raise DimensionError("coboundary of arity-%d cochain needs %d arguments, got %d"
                             % (m, m + 1, len(args)))
    sgn = 1 if (m - 1) % 2 == 0 else -1
    total = brute_force_apply(op, args[:m]) * args[m]
    total = total + (args[0] * brute_force_apply(op, args[1:])).scale(sgn)
    for j in range(m):
        merged = list(args[:j]) + [args[j] * args[j + 1]] + list(args[j + 2:])
        inner = brute_force_apply(op, merged)
        term_sign = -sgn if j % 2 == 0 else sgn
        total = total + inner.scale(term_sign)
    return total


def brute_force_columns(sums, p):
    """``CoboundaryColumns(sums, p).values`` by the references: a function
    of the argument tuple giving ``brute_force_delta`` of the
    ``reference_operator`` of each sum, each operator formed once."""
    ops = [reference_operator(s, p) for s in sums]
    return lambda args: [brute_force_delta(op, args) for op in ops]


def transcribed_tridiff(p, f, g, h):
    """Straight-line transcription of the three-argument example operator on
    the graph  4 3 ; 4: 1 5 / 5: 2 6 / 6: 5 3 / 7: 4 2  (arguments f=1, g=2,
    h=3; vertex 4 carries p^{i1 j1}).  Index roles, read off vertex by vertex:

      vertex 4: i1 -> f,        j1 -> vertex 5
      vertex 5: i2 -> g,        j2 -> vertex 6
      vertex 6: i3 -> vertex 5, j3 -> h
      vertex 7: i4 -> vertex 4, j4 -> g

    giving the sum over all eight indices of

      d_{i4} p^{i1 j1} . d_{j1, i3} p^{i2 j2} . d_{j2} p^{i3 j3} . p^{i4 j4}
        . d_{i1} f . d_{i2, j4} g . d_{j3} h.
    """
    d = p.d
    total = Poly.zero(d)
    rng = range(1, d + 1)
    for i1 in rng:
        for j1 in rng:
            e4 = p.entry(i1, j1)
            if e4.is_zero:
                continue
            for i4 in rng:
                for j4 in rng:
                    e7 = p.entry(i4, j4)
                    if e7.is_zero:
                        continue
                    f4 = e4.derive(i4)
                    if f4.is_zero:
                        continue
                    for i2 in rng:
                        for j2 in rng:
                            e5 = p.entry(i2, j2)
                            if e5.is_zero:
                                continue
                            for i3 in rng:
                                for j3 in rng:
                                    e6 = p.entry(i3, j3)
                                    if e6.is_zero:
                                        continue
                                    f5 = e5.derive(j1).derive(i3)
                                    if f5.is_zero:
                                        continue
                                    f6 = e6.derive(j2)
                                    if f6.is_zero:
                                        continue
                                    ff = f.derive(i1)
                                    gg = g.derive(i2).derive(j4)
                                    hh = h.derive(j3)
                                    term = e7 * f4 * f5 * f6 * ff * gg * hh
                                    total = total + term
    return total


def dense_rank(rows, ncols):
    """Textbook dense Gaussian elimination rank over Fractions."""
    mat = [[Fraction(row.get(c, 0)) for c in range(ncols)] for row in rows]
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pivot_row = mat[rank]
        pv = pivot_row[col]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                factor = mat[r][col] / pv
                for c in range(col, ncols):
                    if pivot_row[c]:
                        mat[r][c] -= factor * pivot_row[c]
        rank += 1
    return rank


def fraction_echelon(rows: Iterable[Row], rhs: Iterable | None = None, ncols: int = 0,
            strategy: str = "markowitz", nonzero_budget: int | None = None) -> Echelon:
    """Bring A (with optional b) to reduced row echelon form, dividing every
    pivot row other than 1 by ``Fraction(pivot)`` and picking each Markowitz
    column by a scan over all live columns.

    ``nonzero_budget`` bounds the nonzeros of A held at any time: the input
    is checked first, and the live count is updated after every row update,
    so fill-in past the budget raises ``BudgetExceededError`` as soon as it
    happens."""
    if strategy not in STRATEGIES:
        raise ValueError("unknown strategy %r" % strategy)
    work = [dict(r) for r in rows]
    live = sum(len(r) for r in work)
    budget = math.inf if nonzero_budget is None else nonzero_budget
    if live > budget:
        raise BudgetExceededError("matrix has %d nonzeros, budget is %d"
                                  % (live, nonzero_budget))

    def charge(idx, before):
        """Account for the change in length of row idx (``before`` entries)."""
        nonlocal live
        live += len(work[idx]) - before
        if live > budget:
            raise BudgetExceededError("elimination fill-in reached %d nonzeros, "
                                      "budget is %d" % (live, nonzero_budget))

    if rhs is None:
        b = [Fraction(0)] * len(work)
    else:
        b = [Fraction(v) for v in rhs]
        if len(b) != len(work):
            raise ValueError("rhs length %d does not match %d rows" % (len(b), len(work)))
    active = set(range(len(work)))
    # column -> set of active rows holding it, maintained incrementally
    col_rows: dict[int, set] = {}
    for idx in active:
        for col in work[idx]:
            col_rows.setdefault(col, set()).add(idx)
    pivots = []  # (col, row)
    inconsistent = False

    def detach(idx):
        for col in work[idx]:
            holders = col_rows.get(col)
            if holders is not None:
                holders.discard(idx)
                if not holders:
                    del col_rows[col]

    def eliminate_indexed(idx, pivot_row, factor):
        target = work[idx]
        for col, value in pivot_row.items():
            cur = target.get(col)
            if cur is None:
                target[col] = -factor * value
                col_rows.setdefault(col, set()).add(idx)
            else:
                cur -= factor * value
                if cur:
                    target[col] = cur
                else:
                    del target[col]
                    holders = col_rows[col]
                    holders.discard(idx)
                    if not holders:
                        del col_rows[col]

    while col_rows:
        if strategy == "ordered":
            best_col = min(col_rows)
            best_row = min(col_rows[best_col])
        else:
            # Markowitz-style: sparsest column first, then sparsest row in it
            best_col = min(col_rows, key=lambda c: (len(col_rows[c]), c))
            best_row = min(col_rows[best_col],
                           key=lambda idx: (len(work[idx]), idx))
        pivot_row = work[best_row]
        pivot_val = pivot_row[best_col]
        if pivot_val != 1:
            pivot_val = Fraction(pivot_val)  # int / int would give a float
            for col in pivot_row:
                pivot_row[col] /= pivot_val
            b[best_row] /= pivot_val
        detach(best_row)
        active.discard(best_row)
        pivots.append((best_col, best_row))
        for idx in sorted(col_rows.get(best_col, ())):
            factor = work[idx][best_col]
            before = len(work[idx])
            eliminate_indexed(idx, pivot_row, factor)
            charge(idx, before)
            b[idx] -= factor * b[best_row]
            if not work[idx]:
                if b[idx]:
                    inconsistent = True
                active.discard(idx)
    for idx in active:
        if b[idx]:
            inconsistent = True

    # back-substitute to full RREF: sweep pivot columns in descending order,
    # clearing each from every other pivot row (selection order under the
    # markowitz strategy is not monotone in the column index)
    pivots.sort()
    for k in range(len(pivots) - 1, -1, -1):
        col, row_idx = pivots[k]
        pivot_row = work[row_idx]
        for other_col, other_row_idx in pivots:
            if other_col == col:
                continue
            other_row = work[other_row_idx]
            factor = other_row.get(col)
            if factor:
                before = len(other_row)
                for c, value in pivot_row.items():
                    cur = other_row.get(c, 0) - factor * value
                    if cur:
                        other_row[c] = cur
                    else:
                        other_row.pop(c, None)
                charge(other_row_idx, before)
                b[other_row_idx] -= factor * b[row_idx]
    return Echelon(ncols=ncols,
                   pivot_cols=[col for col, _ in pivots],
                   rows=[work[row_idx] for _, row_idx in pivots],
                   rhs=[b[row_idx] for _, row_idx in pivots],
                   inconsistent=inconsistent)


def product_order_leibniz_generators(n_total, m, wheel_free_expansions=False,
                                     both_orientations=False):
    """Jacobi-ideal generators by the plain product loop: every skeleton
    with a sorted triple and sorted ordinary pairs (with
    ``both_orientations``, all ordered target pairs) is expanded, and the
    expansions are deduplicated by direction in product order."""
    n_ord = n_total - 2
    special_id = m + n_ord + 1
    all_ids = range(1, special_id + 1)
    generators = []
    seen = set()
    ordinary_options = []
    for pos in range(n_ord):
        targets = [t for t in all_ids if t != m + 1 + pos]
        ordinary_options.append(tuple(itertools.permutations(targets, 2) if both_orientations
                                      else itertools.combinations(targets, 2)))
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
                    has_wheel(rep) for rep, _ in expansion.terms()):
                continue
            terms = expansion.terms()
            lead = terms[0][1]
            key = tuple((rep.key, coeff / lead) for rep, coeff in terms)
            if key in seen:
                continue
            seen.add(key)
            generators.append(LeibnizGenerator(n_total, m, ordinary, triple, expansion))
    return generators


def operator_jacobiator(p):
    """J^{ijk} = {x_i,{x_j,x_k}} + {x_j,{x_k,x_i}} + {x_k,{x_i,x_j}} on
    increasing triples, the bracket {f, g} being the Poisson graph applied
    to (f, g); only the nonzero components are kept."""
    graph = parse_graph("1 2 ; 3: 1 2")
    x = lambda i: Poly.variable(p.d, i)
    bracket = lambda f, g: apply_graph(graph, p, (f, g))
    comps = {}
    for i, j, k in itertools.combinations(range(1, p.d + 1), 3):
        total = (bracket(x(i), bracket(x(j), x(k))) + bracket(x(j), bracket(x(k), x(i)))
                 + bracket(x(k), bracket(x(i), x(j))))
        if not total.is_zero:
            comps[(i, j, k)] = total
    return comps


# -- GraphSum arithmetic on a dict of Fractions ----------------------------------

class FractionDictSum:
    """A rational combination of graph classes as a plain dict from the
    encoding key (n, m, out_edges) of each class representative to its
    nonzero Fraction coefficient; every operation is a loop over the terms
    that adds one Fraction at a time and drops a key whose sum is 0."""

    def __init__(self, arity, items=()):
        """The sum of (labeled graph, coefficient) items, each added to its
        class with the sign of ``canonical_form``."""
        self.arity = arity
        self.coeffs = {}
        for g, coeff in items:
            rep, sign = canonical_form(g)
            self._add(rep.key, Fraction(coeff) * sign)

    def _add(self, key, value):
        total = self.coeffs.get(key, Fraction(0)) + value
        if total:
            self.coeffs[key] = total
        else:
            self.coeffs.pop(key, None)

    def combined(self, other, sign):
        """self + sign * other."""
        out = FractionDictSum(self.arity)
        for key, value in self.coeffs.items():
            out._add(key, value)
        for key, value in other.coeffs.items():
            out._add(key, sign * value)
        return out

    def scale(self, c):
        out = FractionDictSum(self.arity)
        for key, value in self.coeffs.items():
            out._add(key, value * Fraction(c))
        return out

    def restrict_count(self, n):
        out = FractionDictSum(self.arity)
        for key, value in self.coeffs.items():
            if key[0] == n:
                out._add(key, value)
        return out

    def coefficient_of(self, g):
        rep, sign = canonical_form(g)
        return self.coeffs.get(rep.key, Fraction(0)) * sign

    def terms(self):
        """(encoding key, coefficient) sorted by key: ``GraphSum.terms`` with
        each class read by its representative's key."""
        return sorted(self.coeffs.items())


# -- Poly arithmetic on a dict of exponent tuples ---------------------------------

class TupleDictPoly:
    """A polynomial in d variables as a plain dict from exponent tuple to
    nonzero Fraction coefficient; every operation is a loop over the terms
    that adds one Fraction at a time and drops a key whose sum is 0.  It
    packs no exponents and has no bound on them."""

    def __init__(self, d, terms=()):
        self.d = d
        self.coeffs = {}
        for exps, coeff in dict(terms).items():
            self._add(tuple(exps), Fraction(coeff))

    def matches(self, poly):
        """Whether the ``Poly`` ``poly`` has the same terms, read through its
        tuple API."""
        return poly.d == self.d and dict(poly.sorted_terms()) == self.coeffs

    def _add(self, exps, value):
        total = self.coeffs.get(exps, Fraction(0)) + value
        if total:
            self.coeffs[exps] = total
        else:
            self.coeffs.pop(exps, None)

    def combined(self, other, sign):
        """self + sign * other."""
        out = TupleDictPoly(self.d)
        for exps, value in self.coeffs.items():
            out._add(exps, value)
        for exps, value in other.coeffs.items():
            out._add(exps, sign * value)
        return out

    def scale(self, c):
        out = TupleDictPoly(self.d)
        for exps, value in self.coeffs.items():
            out._add(exps, value * Fraction(c))
        return out

    def times(self, other):
        out = TupleDictPoly(self.d)
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out._add(tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        return out

    def max_exponent(self):
        """The largest exponent of any variable in any term; 0 when zero."""
        return max((e for exps in self.coeffs for e in exps), default=0)

    def derive(self, var):
        """Partial derivative with respect to x_var, 1-based."""
        out = TupleDictPoly(self.d)
        for exps, value in self.coeffs.items():
            e = exps[var - 1]
            if e:
                lowered = list(exps)
                lowered[var - 1] = e - 1
                out._add(tuple(lowered), value * e)
        return out

    def derive_multi(self, alpha):
        """d^alpha, one falling factorial per variable, multiplied out."""
        out = TupleDictPoly(self.d)
        for exps, value in self.coeffs.items():
            if any(k > e for e, k in zip(exps, alpha)):
                continue
            factor = 1
            for e, k in zip(exps, alpha):
                for t in range(k):
                    factor *= e - t
            out._add(tuple(e - k for e, k in zip(exps, alpha)), value * factor)
        return out


# -- graph-level algebra with one GraphSum term per labeled graph ---------------

def checked_graphs(n, m, pairs):
    """A ``DirectedGraph`` for every out-edge tuple a producer yields; the
    constructor checks that each one is admissible."""
    return [DirectedGraph(n, m, out_edges) for out_edges in pairs]


def split_graphs(g, slot):
    return checked_graphs(g.n, g.m + 1, _split_terms(g, slot))


def grafted_graphs(g1, slot, g2):
    return checked_graphs(g1.n + g2.n, g1.m + g2.m - 1, graft_terms(g1, slot, g2))


def jacobiator_graphs(m, ordinary_out, special_out):
    return checked_graphs(len(ordinary_out) + 2, m,
                          _jacobiator_terms(m, ordinary_out, special_out))


def labelled_graph_delta(s):
    """Graph-level Hochschild differential with every split graph passed to
    the GraphSum constructor as its own term, weighted (-1)^m (-1)^(t-1)."""
    m = s.arity
    out = []
    outer_sign = 1 if m % 2 == 0 else -1
    for rep, coeff in s.terms():
        for slot in range(1, m + 1):
            term_sign = outer_sign if (slot - 1) % 2 == 0 else -outer_sign
            weight = coeff * term_sign
            for split in split_graphs(rep, slot):
                out.append((split, weight))
    return GraphSum(m + 1, out)


def labelled_graph_compose(s1, s2):
    """Insertion composition with every grafted graph passed to the GraphSum
    constructor as its own term, slot t weighted (-1)^((t-1)(m2-1))."""
    m1, m2 = s1.arity, s2.arity
    out = []
    for rep1, c1 in s1.terms():
        for rep2, c2 in s2.terms():
            base = c1 * c2
            for slot in range(1, m1 + 1):
                weight = base if ((slot - 1) * (m2 - 1)) % 2 == 0 else -base
                for grafted in grafted_graphs(rep1, slot, rep2):
                    out.append((grafted, weight))
    return GraphSum(m1 + m2 - 1, out)


def labelled_graph_gerstenhaber(s1, s2):
    """[s1, s2] = s1 o s2 - (-1)^{k1 k2} s2 o s1 from two labelled compositions."""
    k1, k2 = s1.arity - 1, s2.arity - 1
    left = labelled_graph_compose(s1, s2)
    right = labelled_graph_compose(s2, s1)
    return left - right if (k1 * k2) % 2 == 0 else left + right


def transcribed_jacobiator_graphs(m, ordinary_out, special_out):
    """The three cyclic two-vertex Jacobiator terms with every redistribution
    of the incoming edges, as a list of DirectedGraphs in production order."""
    n_ord = len(ordinary_out)
    special_id = m + n_ord + 1
    a_id, b_id = m + n_ord + 1, m + n_ord + 2
    n = n_ord + 2
    incoming = [(pos, side) for pos, pair in enumerate(ordinary_out)
                for side in (0, 1) if pair[side] == special_id]
    e1, e2, e3 = special_out
    out = []
    for head, mid, tail in ((e1, e2, e3), (e2, e3, e1), (e3, e1, e2)):
        for mask in range(1 << len(incoming)):
            pairs = [list(pair) for pair in ordinary_out]
            for bit, (pos, side) in enumerate(incoming):
                pairs[pos][side] = a_id if (mask >> bit) & 1 == 0 else b_id
            pairs.append([head, b_id])
            pairs.append([mid, tail])
            out.append(DirectedGraph(n, m, tuple((x, y) for x, y in pairs)))
    return out


def labelled_expand_jacobiator_vertex(m, ordinary_out, special_out):
    """The Jacobiator expansion with every transcribed graph passed to the
    GraphSum constructor with weight 1."""
    return GraphSum(m, [(g, 1) for g in transcribed_jacobiator_graphs(m, ordinary_out,
                                                                      special_out)])
