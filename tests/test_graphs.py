import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (brute_force_automorphisms, brute_force_canonical, brute_force_has_wheel,
                     brute_force_labeled_graphs, scan_enumerate_graphs, scan_zero_classes)
from stargraphs.errors import BudgetExceededError, GraphError
from stargraphs.graphs import (FILTERS, DirectedGraph, GraphSum, _canonical_raw, canonical_form,
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


@pytest.mark.parametrize("n, m, pairs, message", [
    (2, 1, ((0, 1), (1, 2)), "vertex 2: target 0 out of range 1..3"),
    (2, 1, ((1, 4), (1, 2)), "vertex 2: target 4 out of range 1..3"),
    (2, 1, ((2, 9), (1, 2)), "vertex 2: loop edge"),
    (2, 1, ((1, 3), (9, 3)), "vertex 3: target 9 out of range 1..3"),
    (2, 1, ((1, 3), (1, 3)), "vertex 3: loop edge"),
    (2, 1, ((1, 3), (2, 2)), "vertex 3: repeated target 2 (multiple edge)"),
    (2, 3, ((1, 5), (1, 3)), "argument vertex 2 has indegree 0"),
], ids=["left-low", "left-high", "loop-before-range", "right-high", "right-loop",
        "repeated", "first-uncovered-argument"])
def test_directed_graph_reports_the_first_violation(n, m, pairs, message):
    with pytest.raises(GraphError) as info:
        DirectedGraph(n, m, pairs)
    assert str(info.value) == message


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


def _assert_canonical_matches_brute_force(n, m, pairs):
    key, sign, automorphisms = _canonical_raw(n, m, pairs)
    assert (key, sign) == brute_force_canonical(n, m, pairs)
    assert automorphisms == brute_force_automorphisms(n, m, pairs)


def test_canonical_search_matches_scan_on_all_small_graphs():
    checked = 0
    for n in range(1, 5):
        for m in range(1, 6 - n):
            for pairs in brute_force_labeled_graphs(n, m):
                _assert_canonical_matches_brute_force(n, m, pairs)
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
    _assert_canonical_matches_brute_force(g.n, g.m, g.out_edges)


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
    _assert_canonical_matches_brute_force(g.n, g.m, g.out_edges)


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
    for function in (enumerate_graphs, zero_classes):
        with pytest.raises(BudgetExceededError):
            function(5, 5)
        with pytest.raises(BudgetExceededError):
            function(3, 2, vertex_budget=4)


@pytest.mark.parametrize("function", [enumerate_graphs, zero_classes])
def test_size_guard_shared(function):
    for n, m in ((0, 2), (1, 0), (-1, 2), (2, -3)):
        with pytest.raises(GraphError, match="need n >= 1 and m >= 1"):
            function(n, m)


SMALL_SIZES = [(n, m) for n in range(1, 5) for m in range(1, 6 - n)]


@pytest.mark.parametrize("n, m", SMALL_SIZES)
def test_enumeration_matches_scan_small(n, m):
    for which in FILTERS:
        assert enumerate_graphs(n, m, which) == scan_enumerate_graphs(n, m, which), which


@pytest.mark.parametrize("n, m", [(4, 2), (3, 3), (2, 4), (1, 5)])
@pytest.mark.parametrize("which", ["all", "wheel_free"])
def test_enumeration_matches_scan(n, m, which):
    assert enumerate_graphs(n, m, which) == scan_enumerate_graphs(n, m, which)


def _digest(graphs):
    return hashlib.sha256("\n".join(g.encode() for g in graphs).encode()).hexdigest()


@pytest.mark.parametrize("n, m", [(n, m) for n in range(1, 5) for m in range(1, 7 - n)])
def test_zero_classes_match_scan(n, m):
    assert zero_classes(n, m) == scan_zero_classes(n, m)


def test_zero_classes_k51():
    # recorded from scan_zero_classes(5, 1), which scans 20^5 labeled tuples
    # (about 45 s, too slow to repeat here)
    zeros = zero_classes(5, 1)
    assert len(zeros) == 75
    assert _digest(zeros) == "533be9b226ac1b6cc0def5bea350769e39353a6989d35d4b2b6fb40929a7d55a"


def test_reach_k52_wheel_free():
    # recorded from the product scan over all 30^5 labeled tuples
    result = enumerate_graphs(5, 2, "wheel_free")
    assert len(result.classes) == 593
    assert result.labeled_count == 2_093_472
    assert _digest(cls.rep for cls in result.classes) == (
        "c48323f6c951d6d95ece16bc72787d7de73e373ce6d0b1e4d9ba02d915070b62")


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


@pytest.mark.parametrize("make", [
    lambda: GraphSum(2, [(POISSON, 0.1)]),
    lambda: GraphSum(2, [(POISSON, 1), ("2 2 ; 3: 1 2 / 4: 1 2", 2.0)]),
    lambda: GraphSum.single(POISSON, 0.5),
    lambda: GraphSum.single(POISSON).scale(0.5),
], ids=["init", "integral-float", "single", "scale"])
def test_graph_sum_rejects_float_coefficients(make):
    with pytest.raises(TypeError, match="inexact coefficient"):
        make()
