import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_canonical, brute_force_has_wheel, brute_force_labeled_graphs
from stargraphs.errors import BudgetExceededError, GraphError
from stargraphs.graphs import (DirectedGraph, GraphSum, _canonical_raw, canonical_form,
                               encode_graph, enumerate_graphs, has_wheel, parse_graph,
                               zero_classes)

POISSON = "1 2 ; 3: 1 2"
TRIDIFF = "4 3 ; 4: 1 5 / 5: 2 6 / 6: 5 3 / 7: 4 2"
C1 = "3 2 ; 3: 1 2 / 4: 3 5 / 5: 3 2"   # universal without wheels
C2 = "3 2 ; 3: 1 4 / 4: 5 2 / 5: 3 2"   # universal with wheels
K2_WHEEL = "2 2 ; 3: 1 4 / 4: 3 2"      # two-cycle graph of the order-2 expansion


# -- parsing -----------------------------------------------------------------

def test_parse_poisson_graph():
    g = parse_graph(POISSON)
    assert (g.n, g.m, g.out_edges) == (1, 2, ((1, 2),))


def test_parse_tridiff_graph():
    g = parse_graph(TRIDIFF)
    assert g.n == 4 and g.m == 3
    assert g.out_edges == ((1, 5), (2, 6), (5, 3), (4, 2))


def test_parse_rejects_multi_edge():
    with pytest.raises(GraphError, match="repeated target"):
        parse_graph("1 1 ; 2: 1 1")


def test_parse_rejects_loop():
    with pytest.raises(GraphError, match="loop"):
        parse_graph("2 1 ; 2: 2 1 / 3: 1 2")


def test_parse_rejects_uncovered_argument():
    with pytest.raises(GraphError, match="argument vertex 3 has indegree 0"):
        parse_graph("1 3 ; 4: 1 2")
    with pytest.raises(GraphError, match="indegree 0"):
        parse_graph("2 2 ; 3: 1 4 / 4: 1 3")


def test_parse_rejects_argument_with_out_edges():
    with pytest.raises(GraphError, match="argument vertex"):
        parse_graph("1 2 ; 2: 1 3")


def test_parse_rejects_malformed():
    for bad in ("", "1 2", "1 2 ; 3: 1", "1 2 ; 3: 1 2 3", "x 2 ; 3: 1 2",
                "1 2 ; 4: 1 2", "2 2 ; 3: 1 2"):
        with pytest.raises(GraphError):
            parse_graph(bad)


def test_whitespace_insensitive_and_normalized():
    g = parse_graph("  1   2 ;  3:   1    2  ")
    assert encode_graph(g) == POISSON


def test_round_trip_on_canonical_reps():
    for n, m in ((1, 2), (2, 2), (2, 3)):
        for cls in enumerate_graphs(n, m).classes:
            enc = cls.rep.encode()
            assert parse_graph(enc) == cls.rep


# -- canonical forms ----------------------------------------------------------

def test_swap_changes_sign():
    c1 = canonical_form(parse_graph("1 2 ; 3: 1 2"))
    c2 = canonical_form(parse_graph("1 2 ; 3: 2 1"))
    assert c1.rep == c2.rep
    assert (c1.sign, c2.sign) == (1, -1)


def test_antisymmetrized_pair_cancels():
    s = GraphSum(2, [("1 2 ; 3: 1 2", 1), ("1 2 ; 3: 2 1", 1)])
    assert s.is_zero


def _apply_relabel_and_swaps(g, perm, swaps):
    pairs = [None] * g.n
    for pos, (left, right) in enumerate(g.out_edges):
        left2 = left if left <= g.m else g.m + 1 + perm[left - g.m - 1]
        right2 = right if right <= g.m else g.m + 1 + perm[right - g.m - 1]
        if swaps[pos]:
            left2, right2 = right2, left2
        pairs[perm[pos]] = (left2, right2)
    return DirectedGraph(g.n, g.m, tuple(pairs))


def test_canonicalization_is_class_function():
    rng = random.Random(3)
    graphs = [cls.rep for cls in enumerate_graphs(3, 2).classes]
    for g in rng.sample(graphs, 10):
        base = canonical_form(g)
        for _ in range(6):
            perm = list(range(g.n))
            rng.shuffle(perm)
            swaps = [rng.randint(0, 1) for _ in range(g.n)]
            moved = _apply_relabel_and_swaps(g, perm, swaps)
            cls = canonical_form(moved)
            assert cls.rep == base.rep
            parity = (-1) ** sum(swaps)
            assert cls.sign == base.sign * parity


def test_relabeling_preserves_class_and_sign():
    g = parse_graph(C1)
    for perm in itertools.permutations(range(g.n)):
        moved = _apply_relabel_and_swaps(g, list(perm), [0] * g.n)
        cls = canonical_form(moved)
        assert cls.rep == canonical_form(g).rep
        assert cls.sign == canonical_form(g).sign


def test_sign_zero_census_k32():
    zeros = zero_classes(3, 2)
    # frozen census: exactly one zero class, the symmetric-pair graph fed by
    # the third vertex
    assert len(zeros) == 1
    assert zeros[0].encode() == "3 2 ; 3: 1 2 / 4: 1 2 / 5: 3 4"


def test_canonical_search_matches_scan_on_all_small_graphs():
    checked = 0
    for n in range(1, 5):
        for m in range(1, 6 - n):
            for pairs in brute_force_labeled_graphs(n, m):
                assert _canonical_raw(n, m, pairs) == brute_force_canonical(n, m, pairs)
                checked += 1
    assert checked > 20_000


@st.composite
def _admissible_graphs(draw):
    """Random K_{n,m} graphs, n <= 6, m <= 3: every argument first takes a
    distinct edge slot, then the open slots get any other legal target."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(max(1, 3 - n), min(3, 2 * n)))  # K_{1,1} has no graph
    slots = [[None, None] for _ in range(n)]
    for arg, slot in enumerate(draw(st.permutations(range(2 * n)))[:m], start=1):
        slots[slot // 2][slot % 2] = arg
    pairs = []
    for pos, (left, right) in enumerate(slots):
        vid = m + 1 + pos
        if left is None:
            left = draw(st.sampled_from(
                [t for t in range(1, n + m + 1) if t not in (vid, right)]))
        if right is None:
            right = draw(st.sampled_from(
                [t for t in range(1, n + m + 1) if t not in (vid, left)]))
        pairs.append((left, right))
    return DirectedGraph(n, m, tuple(pairs))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_admissible_graphs())
def test_canonical_search_matches_scan_on_random_graphs(g):
    assert _canonical_raw(g.n, g.m, g.out_edges) == brute_force_canonical(g.n, g.m, g.out_edges)


@pytest.mark.parametrize("text, rep, sign", [
    # fully symmetric: every relabeling ties, all with even parity
    ("6 2 ; 3: 1 2 / 4: 1 2 / 5: 1 2 / 6: 1 2 / 7: 1 2 / 8: 1 2",
     "6 2 ; 3: 1 2 / 4: 1 2 / 5: 1 2 / 6: 1 2 / 7: 1 2 / 8: 1 2", 1),
    # the twins 4 and 5 of the representative are swapped by an odd relabeling
    ("6 2 ; 3: 4 1 / 4: 1 2 / 5: 3 7 / 6: 5 8 / 7: 4 1 / 8: 5 4",
     "6 2 ; 3: 1 2 / 4: 1 3 / 5: 1 3 / 6: 3 7 / 7: 4 5 / 8: 6 7", 0),
    # identical target pairs in mixed orientations
    ("3 2 ; 3: 1 2 / 4: 2 1 / 5: 1 2", "3 2 ; 3: 1 2 / 4: 1 2 / 5: 1 2", -1),
    ("4 2 ; 3: 2 1 / 4: 1 2 / 5: 2 1 / 6: 1 2",
     "4 2 ; 3: 1 2 / 4: 1 2 / 5: 1 2 / 6: 1 2", 1),
    ("3 2 ; 3: 2 1 / 4: 1 2 / 5: 4 3", "3 2 ; 3: 1 2 / 4: 1 2 / 5: 3 4", 0),
])
def test_canonical_form_explicit_cases(text, rep, sign):
    g = parse_graph(text)
    cls = canonical_form(g)
    assert (cls.rep.encode(), cls.sign) == (rep, sign)
    assert _canonical_raw(g.n, g.m, g.out_edges) == brute_force_canonical(g.n, g.m, g.out_edges)


# -- enumeration --------------------------------------------------------------

def test_census_k12():
    result = enumerate_graphs(1, 2)
    assert result.labeled_count == 2
    assert len(result.classes) == 1
    assert result.classes[0].rep.encode() == POISSON


def test_census_k22():
    assert enumerate_graphs(2, 2).labeled_count == 28
    assert enumerate_graphs(2, 2, "wheels_only").labeled_count == 8
    assert enumerate_graphs(2, 2, "wheel_free").labeled_count == 20


def test_census_k11_empty():
    result = enumerate_graphs(1, 1)
    assert result.labeled_count == 0
    assert result.classes == ()


def test_labeled_counts_match_brute_force():
    for n, m in ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (2, 3)):
        expected = brute_force_labeled_graphs(n, m)
        got = enumerate_graphs(n, m)
        assert got.labeled_count == len(expected), (n, m)


def test_wheel_filters_match_brute_force():
    for n, m in ((2, 2), (3, 2), (2, 3)):
        labeled = brute_force_labeled_graphs(n, m)
        wheels = sum(1 for pairs in labeled if brute_force_has_wheel(n, m, pairs))
        assert enumerate_graphs(n, m, "wheels_only").labeled_count == wheels
        assert enumerate_graphs(n, m, "wheel_free").labeled_count == len(labeled) - wheels


def test_enumeration_sorted_and_duplicate_free():
    classes = enumerate_graphs(3, 2).classes
    encodings = [cls.rep.encode() for cls in classes]
    assert encodings == sorted(encodings)
    assert len(set(encodings)) == len(encodings)


def test_budget_cap():
    with pytest.raises(BudgetExceededError):
        enumerate_graphs(5, 5)
    with pytest.raises(BudgetExceededError):
        enumerate_graphs(3, 2, vertex_budget=4)


def test_unknown_filter_rejected():
    with pytest.raises(ValueError):
        enumerate_graphs(2, 2, "bogus")


# -- wheels -------------------------------------------------------------------

def test_wheel_examples():
    assert not has_wheel(parse_graph(C1))
    assert has_wheel(parse_graph(C2))
    assert has_wheel(parse_graph(K2_WHEEL))


def test_wheel_lemma_k_n1():
    for n in (2, 3):
        for cls in enumerate_graphs(n, 1).classes:
            assert has_wheel(cls.rep)


def test_bivector_rigidity_combinatorics():
    for n in (2, 3):
        single = set(enumerate_graphs(n, 2, "arg_indegree_exactly_one").classes)
        wheel_free = set(enumerate_graphs(n, 2, "wheel_free").classes)
        assert not (single & wheel_free)


# -- graph sums ---------------------------------------------------------------

def test_graph_sum_absorbs_signs():
    s = GraphSum(2, [("1 2 ; 3: 2 1", Fraction(1, 2))])
    assert s.coefficient_of(parse_graph("1 2 ; 3: 2 1")) == Fraction(1, 2)
    assert s.coefficient_of(parse_graph("1 2 ; 3: 1 2")) == Fraction(-1, 2)


def test_graph_sum_drops_zero_classes():
    zero_rep = zero_classes(3, 2)[0]
    s = GraphSum(2, [(zero_rep, 5)])
    assert s.is_zero


def test_graph_sum_algebra():
    a = GraphSum(2, [(POISSON, 1)])
    b = GraphSum(2, [(POISSON, Fraction(1, 3)), ("2 2 ; 3: 1 2 / 4: 1 2", 2)])
    s = a + b
    assert s.coefficient_of(parse_graph(POISSON)) == Fraction(4, 3)
    assert (s - s).is_zero
    assert s.scale(0).is_zero


def test_graph_sum_arity_guard():
    arity1 = "2 1 ; 2: 1 3 / 3: 1 2"
    with pytest.raises(GraphError):
        GraphSum(2, [(arity1, 1)])
    with pytest.raises(GraphError):
        GraphSum(3, [(POISSON, 1)])


def test_graph_sum_file_round_trip(tmp_path):
    s = GraphSum(2, [(POISSON, Fraction(-1, 6)), ("2 2 ; 3: 1 4 / 4: 1 2", 3)])
    lines = s.to_lines()
    again = GraphSum.from_lines(lines)
    assert again == s
    path = tmp_path / "sum.txt"
    path.write_text("\n".join(lines) + "\n")
    assert GraphSum.from_lines(path.read_text().splitlines()) == s


def test_permute_args():
    s = GraphSum(2, [("2 2 ; 3: 1 4 / 4: 1 2", 1)])
    swapped = s.permute_args((2, 1))
    assert swapped.coefficient_of(parse_graph("2 2 ; 3: 2 4 / 4: 2 1")) == 1
    assert swapped.permute_args((2, 1)) == s
