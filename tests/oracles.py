"""Independent reference implementations used only by the tests.

These are deliberately naive: plain nested loops transcribed from first
principles, written before (and kept independent of) the library code they
check.
"""

import itertools
from fractions import Fraction

from stargraphs.errors import DimensionError
from stargraphs.graphs import DirectedGraph, GraphClass
from stargraphs.operators import PolyDiffOperator, apply_graph
from stargraphs.poly import Poly


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
