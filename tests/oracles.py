"""Independent reference implementations used only by the tests.

These are deliberately naive: plain nested loops transcribed from first
principles, written before (and kept independent of) the library code they
check.
"""

import itertools
import math
from fractions import Fraction
from typing import Iterable

from stargraphs.errors import BudgetExceededError, DimensionError
from stargraphs.graphs import (DirectedGraph, EnumerationResult, GraphClass, GraphSum,
                               _canonical_raw, _lookup, _merge, _passes_filter, has_wheel,
                               parse_graph)
from stargraphs.homology import (LeibnizGenerator, _jacobiator_terms, _split_terms,
                                 expand_jacobiator_vertex, graft_terms)
from stargraphs.linalg import STRATEGIES, Echelon, Row, StreamingReducer, _eliminate_into
from stargraphs.operators import (PolyDiffOperator, _divided, _downset, _fits, _graph_terms,
                                  _group_terms, apply_graph)
from stargraphs.poly import Poly, _add_terms, _mul_terms, _rational, _wrap


def brute_force_labeled_graphs(n, m):
    """Every valid labeled graph of K_{n,m} as a tuple of (L, R) pairs, by
    direct nested iteration over ordered target pairs with an indegree check."""
    total = n + m
    results = []

    def extend(pairs):
        pos = len(pairs)
        if pos == n:
            hit = set()
            for left, right in pairs:
                if left <= m:
                    hit.add(left)
                if right <= m:
                    hit.add(right)
            if len(hit) == m:
                results.append(tuple(pairs))
            return
        vid = m + 1 + pos
        for left in range(1, total + 1):
            if left == vid:
                continue
            for right in range(1, total + 1):
                if right == vid or right == left:
                    continue
                extend(pairs + [(left, right)])

    extend([])
    return results


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


def scan_labeled_pairs(n: int, m: int):
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


def scan_enumerate_graphs(n, m, filter="all"):
    """Enumeration by the product over every labeled out-edge tuple: each
    graph passing the filter is counted and canonicalized, and the nonzero
    orbit minima are collected.  It shares ``_canonical_raw`` and the
    filter with the library, so it checks the generation and the counting,
    not the canonical forms (``brute_force_canonical`` checks those)."""
    labeled = 0
    reps = set()
    for pairs in scan_labeled_pairs(n, m):
        if not _passes_filter(n, m, pairs, filter):
            continue
        labeled += 1
        best, sign, _ = _canonical_raw(n, m, pairs)
        if sign == 0:
            continue
        reps.add(best)
    classes = tuple(GraphClass(DirectedGraph(n, m, pairs), 1)
                    for pairs in sorted(reps))
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
    for pairs in scan_labeled_pairs(n, m):
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


def rescan_compile_graph(g, p):
    """``compile_graph`` as it was before the per-vertex index counts: the
    same depth-first search, each derivative multi-index rescanned from
    the assigned pairs by ``alpha_of``.  Kept verbatim as the reference for
    the compiled operators."""
    d, n, m = p.d, g.n, g.m
    pairs = p.nonzero_ordered_pairs()
    in_edges = g.in_edges
    arg_sources = [in_edges.get(t, ()) for t in range(1, m + 1)]
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


def fraction_compile_sum(s, p):
    """``compile_sum`` as it was before orbit reuse and integer sums: every
    term's graph compiled by ``rescan_compile_graph`` and added with its
    coefficient as given (integral sums can hold ``Fraction(k, 1)``), with
    no cache."""
    acc: dict[tuple, dict] = {}
    for g, coeff in _graph_terms(s):
        for key, poly in rescan_compile_graph(g, p).terms.items():
            _add_terms(acc.setdefault(key, {}), poly.terms, coeff)
    return PolyDiffOperator(p.d, s.arity,
                            {op_key: _wrap(p.d, terms) for op_key, terms in acc.items()})


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


def brute_force_delta(s, p, args):
    """Hochschild coboundary [m0, .] evaluated literally, one cochain and
    one apply_graph call per argument tuple:

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
        pv = mat[rank][col]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                factor = mat[r][col] / pv
                for c in range(col, ncols):
                    mat[r][c] -= factor * mat[rank][c]
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
                _eliminate_into(other_row, pivot_row, factor)
                charge(other_row_idx, before)
                b[other_row_idx] -= factor * b[row_idx]
    return Echelon(ncols=ncols,
                   pivot_cols=[col for col, _ in pivots],
                   rows=[work[row_idx] for _, row_idx in pivots],
                   rhs=[b[row_idx] for _, row_idx in pivots],
                   inconsistent=inconsistent)


def two_elimination_reverify(reducer, strategy="markowitz"):
    """``StreamingReducer.reverify`` by two ``fraction_echelon`` calls: the
    augmented system for feasibility, A alone for the coefficient rank."""
    ech_aug = fraction_echelon([dict(r) for r in reducer.raw_rows], reducer.raw_rhs, 0, strategy)
    ech_coeff = fraction_echelon([dict(r) for r in reducer.raw_rows], None, 0, strategy)
    return {
        "strategy": strategy,
        "rank_coefficient": ech_coeff.rank,
        "rank_augmented": ech_aug.rank + (1 if ech_aug.inconsistent else 0),
        "inconsistent": ech_aug.inconsistent,
    }


class FractionStreamingReducer(StreamingReducer):
    """``StreamingReducer`` with ``Fraction`` elimination: each pivot row is
    divided by its leading entry, and each new row has the pivot rows
    subtracted with Fraction factors.  Raw rows, rank and ``reverify`` are
    inherited."""

    def add_row(self, row, rhs):
        rhs = raw_rhs = Fraction(rhs)
        work = {c: Fraction(v) for c, v in row.items()}
        while work:
            col = min(work)
            pivot = self.pivots.get(col)
            if pivot is None:
                lead = work[col]
                self.pivots[col] = ({c: v / lead for c, v in work.items()}, rhs / lead)
                self.raw_rows.append(dict(row))
                self.raw_rhs.append(raw_rhs)
                return "pivot"
            pivot_row, pivot_rhs = pivot
            factor = work[col]
            for c, v in pivot_row.items():
                value = work.get(c, 0) - factor * v
                if value:
                    work[c] = value
                else:
                    work.pop(c, None)
            rhs -= factor * pivot_rhs
        if rhs:
            self.inconsistent = True
            self.raw_rows.append(dict(row))
            self.raw_rhs.append(raw_rhs)
            return "inconsistent"
        return "redundant"


class StepNormalizingStreamingReducer(StreamingReducer):
    """``StreamingReducer`` as it was before one normalization per stored
    pivot: every row and rhs go through ``Fraction``, and the gcd of the
    working row and rhs is divided out after every elimination step."""

    def add_row(self, row, rhs):
        raw_rhs = Fraction(_rational(rhs))
        for v in row.values():
            if type(v) is not int and type(v) is not Fraction:
                row = {c: _rational(v) for c, v in row.items()}
                break
        scale = math.lcm(raw_rhs.denominator, *(v.denominator for v in row.values()))
        work = {c: v.numerator * (scale // v.denominator) for c, v in row.items()}
        rhs = raw_rhs.numerator * (scale // raw_rhs.denominator)
        while work:
            col = min(work)
            pivot = self.pivots.get(col)
            if pivot is None:
                g = math.gcd(rhs, *work.values())
                if work[col] < 0:
                    g = -g
                if g != 1:
                    work = {c: v // g for c, v in work.items()}
                    rhs //= g
                self.pivots[col] = (work, rhs)
                self.raw_rows.append(dict(row))
                self.raw_rhs.append(raw_rhs)
                return "pivot"
            pivot_row, pivot_rhs = pivot
            lead, factor = pivot_row[col], work[col]
            g = math.gcd(lead, factor)
            lead, factor = lead // g, factor // g
            if lead != 1:
                work = {c: lead * v for c, v in work.items()}
                rhs *= lead
            _eliminate_into(work, pivot_row, factor)
            rhs -= factor * pivot_rhs
            g = math.gcd(rhs, *work.values())
            if g > 1:
                work = {c: v // g for c, v in work.items()}
                rhs //= g
        if rhs:
            self.inconsistent = True
            self.raw_rows.append(dict(row))
            self.raw_rhs.append(raw_rhs)
            return "inconsistent"
        return "redundant"


def sorted_skeleton_leibniz_generators(n_total, m, wheel_free_expansions=False):
    """The Leibniz generator loop before relabeled twin skeletons were
    skipped: every skeleton with sorted pairs and a sorted triple is
    expanded and deduplicated by expansion direction in product order."""
    n_ord = n_total - 2
    special_id = m + n_ord + 1
    all_ids = range(1, special_id + 1)
    generators = []
    seen = set()
    ordinary_options = []
    for pos in range(n_ord):
        vid = m + 1 + pos
        targets = [t for t in all_ids if t != vid]
        ordinary_options.append(tuple(itertools.combinations(targets, 2)))
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
    return tuple(generators)


def all_pairs_leibniz_generators(n_total, m, wheel_free_expansions=False):
    """Jacobi-ideal generators with every ordinary vertex offered all ordered
    target pairs (both orientations), deduplicated by expansion direction in
    product order."""
    n_ord = n_total - 2
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
    for cls, coeff in s.terms():
        for slot in range(1, m + 1):
            term_sign = outer_sign if (slot - 1) % 2 == 0 else -outer_sign
            weight = coeff * term_sign
            for split in split_graphs(cls.rep, slot):
                out.append((split, weight))
    return GraphSum(m + 1, out)


def labelled_graph_compose(s1, s2):
    """Insertion composition with every grafted graph passed to the GraphSum
    constructor as its own term, slot t weighted (-1)^((t-1)(m2-1))."""
    m1, m2 = s1.arity, s2.arity
    out = []
    for cls1, c1 in s1.terms():
        for cls2, c2 in s2.terms():
            base = c1 * c2
            for slot in range(1, m1 + 1):
                weight = base if ((slot - 1) * (m2 - 1)) % 2 == 0 else -base
                for grafted in grafted_graphs(cls1.rep, slot, cls2.rep):
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


def per_pass_reach(trie, args, derivatives):
    """``operators._reach`` as it was before derivative jets: ``derivatives``
    maps id(argument) -> (downset, {alpha: derivative terms}) for one pass
    only, so every pass differentiates its arguments anew."""
    frontier = [(trie, None)]
    for f in args:
        if not frontier:
            break
        entry = derivatives.get(id(f))
        if entry is None:
            entry = derivatives[id(f)] = (_downset(f), {})
        down, table = entry
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
                reached.append((child, der if prefix is None else _mul_terms(prefix, der, {})))
        frontier = reached
    return frontier


def per_pass_accumulate(trie, width, tuples):
    """``operators._accumulate`` as it was before derivative jets, with one
    fresh ``derivatives`` table per pass (``per_pass_reach``)."""
    derivatives = {}
    totals = [{} for _ in range(width)]
    if tuples[0][1] is None:
        reached = per_pass_reach(trie, tuples[0][0], derivatives)
    else:
        values = {}  # id(leaf) -> (leaf, value terms)
        for args, factor in tuples:
            for leaf, value in per_pass_reach(trie, args, derivatives):
                entry = values.get(id(leaf))
                if entry is None:
                    entry = values[id(leaf)] = (leaf, {})
                _mul_terms(value, factor, entry[1])
        reached = values.values()
    for leaf, value in reached:
        if value:
            for col, coeff in leaf:
                _mul_terms(value, coeff, totals[col])
    return totals


def per_pass_apply(op, args):
    """``PolyDiffOperator.apply`` by one ``per_pass_accumulate`` pass."""
    return _wrap(op.d, per_pass_accumulate(_group_terms(op), 1, [(args, None)])[0])


def per_pass_coboundary_terms(columns, args):
    """``CoboundaryColumns.terms`` as it was before derivative jets and the
    product memo: every f_j f_{j+1} formed anew and one
    ``per_pass_accumulate`` pass over the trie of ``columns``, whose pending
    groups it compiles as ``terms`` does."""
    d, m = columns.p.d, columns.arity
    args = tuple(args)
    sgn = 1 if (m - 1) % 2 == 0 else -1
    tuples = [(args[:m], args[m].terms), (args[1:], args[0].scale(sgn).terms)]
    for j in range(m):
        merged = args[:j] + (args[j] * args[j + 1],) + args[j + 2:]
        tuples.append((merged, {(0,) * d: -sgn if j % 2 == 0 else sgn}))
    degrees = [[f.degree() for f in inner] for inner, _ in tuples]
    for orders in [o for o in columns.pending if _fits(o, degrees)]:
        columns._compile(orders)
    totals = per_pass_accumulate(columns.trie, columns.width, tuples)
    for col, denom in columns.denoms.items():
        totals[col] = _divided(totals[col], denom)
    return totals


# -- the level-wise canonical search with a candidate list per labeling ---------

def candidate_list_canonical_raw(n, m, pairs, known=None):
    """``graphs._canonical_raw`` as it was before its loop was tightened:
    every frontier labeling builds a list of its candidates, every candidate
    is extended to a labeling before its pair is compared, and targets are
    located in that labeling."""
    base = m + 1
    key = []
    frontier = [((), 0)]
    bound = n if known is None else known
    everyone = range(bound)
    for e in range(bound):
        lo = hi = None
        survivors = []
        for order, parity in frontier:
            if e < len(order):
                candidates = (order[e],)
                if order[e] >= bound:
                    continue
                grow = False
            else:
                candidates = [u for u in everyone if u not in order]
                grow = True
            for u in candidates:
                labeled = order + (u,) if grow else order
                left, right = pairs[u]
                free = base + len(labeled)
                open_left = open_right = -1
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
        if known is not None and key[e] < pairs[e]:
            break
        frontier = survivors
    parities = {parity for _, parity in frontier}
    if len(parities) == 2:
        sign = 0
    elif 0 in parities:
        sign = 1
    else:
        sign = -1
    return tuple(key), sign, len(frontier)


# -- graph-level algebra with a Fraction weight per producer call ---------------

def fraction_add_labeled_graphs(acc, n, m, pairs, weight):
    """Signs counted per class for one producer call, then the Fraction
    ``weight`` multiplied into each nonzero count and merged into ``acc``."""
    counts = {}
    for out_edges in pairs:
        cls = _lookup(n, m, out_edges)
        if cls.sign:
            counts[cls.rep] = counts.get(cls.rep, 0) + cls.sign
    return _merge(acc, ((rep, weight * count) for rep, count in counts.items() if count))


def fraction_graph_delta(s):
    m = s.arity
    acc = {}
    outer_sign = 1 if m % 2 == 0 else -1
    for cls, coeff in s.terms():
        for slot in range(1, m + 1):
            term_sign = outer_sign if (slot - 1) % 2 == 0 else -outer_sign
            fraction_add_labeled_graphs(acc, cls.rep.n, m + 1, _split_terms(cls.rep, slot),
                                        coeff * term_sign)
    return GraphSum._wrap(m + 1, acc)


def _fraction_compose_into(acc, s1, s2, sign):
    m1, m2 = s1.arity, s2.arity
    for cls1, c1 in s1.terms():
        for cls2, c2 in s2.terms():
            base = c1 * c2 * sign
            for slot in range(1, m1 + 1):
                weight = base if ((slot - 1) * (m2 - 1)) % 2 == 0 else -base
                fraction_add_labeled_graphs(acc, cls1.rep.n + cls2.rep.n, m1 + m2 - 1,
                                            graft_terms(cls1.rep, slot, cls2.rep), weight)
    return acc


def fraction_graph_compose(s1, s2):
    return GraphSum._wrap(s1.arity + s2.arity - 1, _fraction_compose_into({}, s1, s2, 1))


def fraction_graph_gerstenhaber(s1, s2):
    k1, k2 = s1.arity - 1, s2.arity - 1
    acc = _fraction_compose_into({}, s1, s2, 1)
    _fraction_compose_into(acc, s2, s1, 1 if (k1 * k2) % 2 else -1)
    return GraphSum._wrap(k1 + k2 + 1, acc)


def fraction_expand_jacobiator_vertex(m, ordinary_out, special_out):
    return GraphSum._wrap(m, fraction_add_labeled_graphs(
        {}, len(ordinary_out) + 2, m, _jacobiator_terms(m, ordinary_out, special_out),
        Fraction(1)))
