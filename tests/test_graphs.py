import copy
import functools
import gc
import hashlib
import itertools
import math
import pickle
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (FractionDictSum, brute_force_automorphisms, brute_force_canonical,
                     brute_force_has_wheel, brute_force_labeled_graphs, brute_force_prefix_key,
                     labelled_graph_gerstenhaber, scan_enumerate_graphs, scan_zero_classes,
                     unpruned_restricted_growth)
from stargraphs import graphs, homology
from stargraphs.errors import BudgetExceededError, GraphError
from stargraphs.graphs import (FILTERS, DirectedGraph, EnumerationResult, GraphSum,
                               _canonical_raw, _classes, _passes_filter, _restricted_growth,
                               canonical_form, encode_graph, enumerate_graphs, has_wheel,
                               parse_graph, zero_classes)
from stargraphs.homology import expand_jacobiator_vertex, graph_delta, graph_gerstenhaber

POISSON = "1 2 ; 3: 1 2"
TRIDIFF = "4 3 ; 4: 1 5 / 5: 2 6 / 6: 5 3 / 7: 4 2"
C1 = "3 2 ; 3: 1 2 / 4: 3 5 / 5: 3 2"   # universal without wheels
C2 = "3 2 ; 3: 1 4 / 4: 5 2 / 5: 3 2"   # universal with wheels
K2_WHEEL = "2 2 ; 3: 1 4 / 4: 3 2"      # two-cycle graph of the order-2 expansion


# -- identity ----------------------------------------------------------------

def test_directed_graph_hash_and_equality_follow_the_encoding():
    g = parse_graph(TRIDIFF)
    same = DirectedGraph(g.n, g.m, tuple(g.out_edges))
    other = parse_graph("4 3 ; 4: 1 5 / 5: 2 6 / 6: 5 3 / 7: 2 4")
    assert same is not g and same == g and hash(same) == hash(g)
    # the dataclass hash of (n, m, out_edges), so set orders do not change
    assert hash(g) == hash((g.n, g.m, g.out_edges)) == hash(g.key)
    assert other != g and g != g.key
    assert {g: 1, other: 2}[same] == 1 and len({g, same, other}) == 2
    for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert twin == g and hash(twin) == hash(g) and twin.in_edges == g.in_edges


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
        for rep in enumerate_graphs(n, m).classes:
            assert parse_graph(rep.encode()) == rep


# -- canonical forms ----------------------------------------------------------

def test_swap_changes_sign():
    rep, sign = canonical_form(parse_graph("1 2 ; 3: 1 2"))
    assert canonical_form(parse_graph("1 2 ; 3: 2 1")) == (rep, -sign) and sign == 1


@pytest.fixture
def fresh_tables(monkeypatch):
    """Empty canonical-form tables and orbit records for one test."""
    monkeypatch.setattr(graphs, "_TABLES", type(graphs._TABLES)(graphs._TABLES.default_factory))
    monkeypatch.setattr(graphs, "_TABLE_ENTRIES", 0)
    monkeypatch.setattr(graphs, "_ORBITS", {})


def table_entries():
    """[(n, m, table key, record)] over the table of every size: one entry
    per class, its record the representative, or False for a zero class."""
    return [(n, m, pairs, rep) for (n, m), table in graphs._TABLES.items()
            for pairs, rep in table.items()]


def representatives():
    """{canonical key: representative} of every nonzero class held."""
    return {rep.key: rep for _, _, _, rep in table_entries() if rep}


def test_isomorphic_graphs_share_one_representative(fresh_tables):
    # three labelings of the class of "2 2 ; 3: 1 2 / 4: 1 3", none canonical
    first, sign = canonical_form(parse_graph("2 2 ; 3: 1 4 / 4: 2 1"))
    twin, twin_sign = canonical_form(parse_graph("2 2 ; 3: 4 1 / 4: 1 2"))
    flipped, flipped_sign = canonical_form(parse_graph("2 2 ; 3: 1 4 / 4: 1 2"))
    assert first is twin is flipped
    assert str(first) == "2 2 ; 3: 1 2 / 4: 1 3"
    assert (sign, twin_sign, flipped_sign) == (-1, -1, 1)
    # one record for the class, whichever sign its labelings have
    assert table_entries() == [(2, 2, first.out_edges, first)]
    # producers' pair tuples reach the same objects without a DirectedGraph
    acc = graphs.add_labeled_graphs({}, 2, 2, [((1, 2), (1, 3)), ((1, 4), (1, 2)),
                                               ((1, 4), (2, 1))], Fraction(3))
    assert [(rep is first, coeff) for rep, coeff in acc.items()] == [(True, 3)]


def test_cache_limit_clears_the_interned_representatives(fresh_tables, monkeypatch):
    monkeypatch.setattr(graphs, "_CANON_CACHE_LIMIT", 2)
    first = canonical_form(parse_graph("2 2 ; 3: 1 4 / 4: 2 1"))
    assert canonical_form(parse_graph("2 2 ; 3: 4 1 / 4: 1 2"))[0] is first[0]
    flipped = canonical_form(parse_graph("2 2 ; 3: 1 4 / 4: 1 2"))
    assert flipped[0] is first[0] and (first[1], flipped[1]) == (-1, 1)
    # the limit counts classes: both signs of one class are one record, and
    # a zero class is one more
    assert len(table_entries()) == graphs._TABLE_ENTRIES == 1
    assert canonical_form(parse_graph("3 2 ; 3: 2 1 / 4: 1 2 / 5: 4 3"))[1] == 0
    assert len(table_entries()) == graphs._TABLE_ENTRIES == 2
    other, _ = canonical_form(parse_graph("1 2 ; 3: 2 1"))  # a new class at the limit
    assert (table_entries(), representatives()) == (
        [(1, 2, ((1, 2),), other)], {other.key: other})
    assert graphs._TABLE_ENTRIES == 1
    again = canonical_form(parse_graph("2 2 ; 3: 1 4 / 4: 2 1"))
    assert again == first and again[0] is not first[0]


@pytest.fixture
def searches(monkeypatch):
    """The argument tuples of every ``_canonical_raw`` call, in call order."""
    calls = []
    search = graphs._canonical_raw

    def counting(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(graphs, "_canonical_raw", counting)
    return calls


def test_a_non_canonical_labeling_leaves_no_table_entry(fresh_tables, searches):
    g = parse_graph("2 2 ; 3: 1 4 / 4: 2 1")
    first, sign = canonical_form(g)
    again, again_sign = canonical_form(g)
    assert again is first and sign == again_sign == -1
    # searched on each sighting; only the class is kept, under its pairs
    assert len(searches) == 2
    assert table_entries() == [(2, 2, first.out_edges, first)]
    assert graphs._TABLE_ENTRIES == 1
    # a producer's tuple of the same labeling: one more search, no entry
    acc = graphs.add_labeled_graphs({}, 2, 2, [g.out_edges], 1)
    assert acc == {first: -1} and len(searches) == 3
    assert table_entries() == [(2, 2, first.out_edges, first)]
    # the class's one record serves its sign +1 labeling too: the
    # representative's own labeling is found without a search
    plus, plus_sign = canonical_form(first)
    assert len(searches) == 3 and plus is first and plus_sign == 1
    assert graphs.add_labeled_graphs({}, 2, 2, [first.out_edges], 1) == {first: 1}
    assert len(searches) == 3 and graphs._TABLE_ENTRIES == len(table_entries()) == 1


def test_enumeration_interns_every_class_it_yields(fresh_tables, searches):
    zeros = zero_classes(4, 2)
    assert zeros
    result = enumerate_graphs(4, 2)
    searches.clear()
    for rep in result.classes:
        found, sign = canonical_form(rep)
        assert found is rep and sign == 1
        assert GraphSum.single(rep).terms() == [(rep, 1)]
    for rep in zeros:
        assert canonical_form(rep)[1] == 0
        assert GraphSum.single(rep).is_zero
    assert searches == []
    # the table holds exactly the enumerated classes, zero classes included,
    # each under its own pairs: a nonzero class's record is its
    # representative, a zero class's is False
    classes = len(result.classes) + len(zeros)
    assert len(graphs._TABLES[4, 2]) == len(table_entries()) == classes
    held = representatives()
    assert len(held) == len(result.classes)
    assert all(held[rep.key] is rep for rep in result.classes)
    assert sorted(pairs for _, _, pairs, rep in table_entries() if rep is False) == sorted(
        rep.out_edges for rep in zeros)
    assert all(pairs is rep.out_edges for _, _, pairs, rep in table_entries() if rep)
    assert enumerate_graphs(4, 2) == scan_enumerate_graphs(4, 2)
    # recording the classes again adds no entry and counts none
    assert graphs._TABLE_ENTRIES == len(table_entries()) == classes


@pytest.mark.parametrize("n", [3, 4])
def test_classes_and_terms_are_the_held_representatives(fresh_tables, n):
    result = enumerate_graphs(n, 2)
    held = graphs._TABLES[n, 2]
    assert all(held[rep.out_edges] is rep for rep in result.classes)
    # a sum of relabeled, swapped labelings reaches the same objects
    rng = random.Random(n)
    items = []
    for k, rep in enumerate(result.classes):
        perm = rng.sample(range(n), n)
        items.append((_apply_relabel_and_swaps(rep, perm, [rng.randint(0, 1) for _ in perm]),
                      k + 1))
    terms = GraphSum(2, items).terms()
    assert len(terms) == len(result.classes)
    assert all(held[rep.out_edges] is rep for rep, _ in terms)


def test_a_sum_rebuilt_from_its_terms_makes_no_search(fresh_tables, searches):
    # the solver's Leibniz witness is built this way; uncached, so the
    # expansions' representatives are the ones the fresh tables hold
    generators = homology.leibniz_generators.__wrapped__(3, 3)
    assert len(generators) > 10
    searches.clear()
    for gen in generators:
        assert GraphSum(3, gen.expansion.terms()) == gen.expansion
    assert searches == []


def test_enumeration_respects_the_cache_limit(fresh_tables, monkeypatch):
    monkeypatch.setattr(graphs, "_CANON_CACHE_LIMIT", 5)
    result = enumerate_graphs(3, 2)
    assert len(result.classes) > 10
    assert result == scan_enumerate_graphs(3, 2)
    # cleared in place: the table holds the last few classes
    held = table_entries()
    assert 1 <= len(held) == graphs._TABLE_ENTRIES <= 5
    assert set(result.classes[-len(held):]) >= {rep for *_, rep in held if rep}


# three of the four K_{2,2} classes: the graded Jacobi sum of the graph-level
# benchmark brackets them, and [[a, b], c] makes n=6 grafts
JACOBI_CLASSES = ("2 2 ; 3: 1 2 / 4: 1 3", "2 2 ; 3: 1 2 / 4: 2 3", "2 2 ; 3: 1 4 / 4: 2 3")


def jacobi_inputs():
    return [GraphSum(2, [(enc, Fraction(k + 1, 2))]) for k, enc in enumerate(JACOBI_CLASSES)]


def test_held_table_stays_valid_when_the_limit_clears_mid_loop(fresh_tables, monkeypatch):
    limit = 5
    monkeypatch.setattr(graphs, "_CANON_CACHE_LIMIT", limit)
    a, b, _ = jacobi_inputs()
    held = graphs._TABLES[4, 3]  # the table the bracket's producer calls probe
    record = graphs._held
    sizes = []

    def checking(*args):
        rep = record(*args)
        sizes.append(len(table_entries()))
        assert graphs._TABLE_ENTRIES == sizes[-1] <= limit and len(held) <= limit
        return rep

    monkeypatch.setattr(graphs, "_held", checking)
    result = graph_gerstenhaber(a, b)
    # a single graft call yields more classes than the limit, so the table
    # was cleared inside the loop, in place
    assert sizes.count(1) > 3 and graphs._TABLES[4, 3] is held
    assert result == labelled_graph_gerstenhaber(a, b) and not result.is_zero


def test_the_producer_path_builds_one_graph_per_new_class(fresh_tables, searches, monkeypatch):
    a, b, c = jacobi_inputs()
    built = []
    trusted = DirectedGraph._trusted

    def counting(cls, *args):
        built.append(args)
        return trusted(*args)

    monkeypatch.setattr(DirectedGraph, "_trusted", classmethod(counting))
    ab = graph_gerstenhaber(a, b)
    result = graph_gerstenhaber(ab, c)
    # a representative for each new class and nothing per labeled graft;
    # the classes of a, b and c were held before
    assert len(built) == len(representatives()) - 3 and len(searches) > 2000
    # a sign-0 labeling and its class's canonical labeling add nothing; the
    # class leaves one record, found without a search the second time
    zero = parse_graph("3 2 ; 3: 2 1 / 4: 1 2 / 5: 4 3")
    canonical = parse_graph("3 2 ; 3: 1 2 / 4: 1 2 / 5: 3 4")
    searches.clear()
    built.clear()
    acc = graphs.add_labeled_graphs({}, 3, 2, [zero.out_edges, canonical.out_edges], 5)
    assert acc == {} and built == [] and len(searches) == 1
    assert graphs._TABLES[3, 2] == {canonical.out_edges: False}
    assert result == labelled_graph_gerstenhaber(ab, c)


def test_interned_classes_retain_few_bytes_per_graft(fresh_tables, monkeypatch):
    a, b, c = jacobi_inputs()
    ab = graph_gerstenhaber(a, b)
    grafts = [0]
    graft = homology.graft_terms

    def counting(*args):
        for pairs in graft(*args):
            grafts[0] += 1
            yield pairs

    monkeypatch.setattr(homology, "graft_terms", counting)
    gc.collect()
    tracemalloc.start()
    try:
        before, classes = tracemalloc.get_traced_memory()[0], graphs._TABLE_ENTRIES
        graph_gerstenhaber(ab, c)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grafts[0] > 2000 and graphs._TABLE_ENTRIES - classes > 2000
    # the representatives of the new classes, with one tuple of shared pairs
    # each, and their table slots, and nothing per labeled graft: about 223
    # bytes per graft on Python 3.11, where two tables of interned
    # (representative, sign) records made it about 269 and a table entry
    # per labeled graft about 382
    assert retained / grafts[0] <= 250


def test_stored_out_edge_tuples_hold_the_shared_pairs(fresh_tables):
    a, b, c = jacobi_inputs()
    ab = graph_gerstenhaber(a, b)  # grafting
    graph_gerstenhaber(ab, c)
    graph_delta(ab)  # slot splitting
    expand_jacobiator_vertex(2, ((1, 4),), (1, 2, 3))  # Jacobiator expansion
    graphs._orbit(canonical_form(parse_graph("3 3 ; 4: 1 2 / 5: 3 6 / 6: 1 4"))[0])
    enumerate_graphs(2, 3)
    a.permute_args((2, 1))  # a labeling of a's class that no producer made
    sizes = {(n, m) for n, m, _, _ in table_entries()}
    assert sizes == {(2, 2), (4, 3), (6, 4), (4, 4), (3, 2), (3, 3), (2, 3)}
    stored = [pairs for _, _, pairs, _ in table_entries()] + [
        rep.out_edges for rep in representatives().values()]
    assert all(graphs._PAIRS.get(pair) is pair for pairs in stored for pair in pairs)
    # every table key of a nonzero class is its representative's own tuple
    assert all(pairs is rep.out_edges for _, _, pairs, rep in table_entries() if rep)
    # a parsed graph holds the shared pairs too
    pair, = parse_graph("1 2 ; 3: 2 1").out_edges
    assert pair is graphs._PAIRS[2, 1]


def test_orbit_records_clear_with_the_class_tables(fresh_tables, monkeypatch):
    rep, _ = canonical_form(parse_graph("3 3 ; 4: 1 2 / 5: 3 6 / 6: 1 4"))
    record = graphs._orbit(rep)
    orbits = graphs._ORBITS
    # one lookup per argument relabeling recorded every class of the orbit
    assert len(orbits) > 1 and orbits[rep] == record
    assert all(c in graphs._TABLES[3, 3].values() for c in orbits)
    monkeypatch.setattr(graphs, "_CANON_CACHE_LIMIT", len(table_entries()))
    canonical_form(parse_graph("1 2 ; 3: 2 1"))  # a new class past the limit
    assert len(table_entries()) == 1 and graphs._ORBITS is orbits and orbits == {}
    # found again from fresh lookups, as the same record
    assert graphs._orbit(rep) == record and orbits


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
    for g in rng.sample(enumerate_graphs(3, 2).classes, 10):
        rep, sign = canonical_form(g)
        for _ in range(6):
            perm = list(range(g.n))
            rng.shuffle(perm)
            swaps = [rng.randint(0, 1) for _ in range(g.n)]
            moved = _apply_relabel_and_swaps(g, perm, swaps)
            assert canonical_form(moved) == (rep, sign * (-1) ** sum(swaps))


def test_relabeling_preserves_class_and_sign():
    g = parse_graph(C1)
    for perm in itertools.permutations(range(g.n)):
        moved = _apply_relabel_and_swaps(g, list(perm), [0] * g.n)
        assert canonical_form(moved) == canonical_form(g)


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
    for n, m in [(n, m) for n in range(1, 5) for m in range(1, 6 - n)] + [(3, 3)]:
        for pairs in brute_force_labeled_graphs(n, m):
            _assert_canonical_matches_brute_force(n, m, pairs)
            checked += 1
    assert checked > 20_000


@st.composite
def _admissible_graphs(draw):
    """Random K_{n,m} graphs, n <= 6, m <= 4, so the size K_{6,4} of the
    graded Jacobi sum's grafts is drawn: every argument first takes a
    distinct edge slot, then the open slots get any other legal target."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(max(1, 3 - n), min(4, 2 * n)))  # K_{1,1} has no graph
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
    rep, sign = canonical_form(g)
    assert (rep.out_edges, sign) == brute_force_canonical(g.n, g.m, g.out_edges)


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
    found, found_sign = canonical_form(g)
    assert (found.encode(), found_sign) == (rep, sign)
    _assert_canonical_matches_brute_force(g.n, g.m, g.out_edges)


# -- enumeration --------------------------------------------------------------

def test_census_k12():
    result = enumerate_graphs(1, 2)
    assert result.labeled_count == 2
    assert len(result.classes) == 1
    assert result.classes[0].encode() == POISSON


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
        expected = list(brute_force_labeled_graphs(n, m))
        got = enumerate_graphs(n, m)
        assert got.labeled_count == len(expected), (n, m)


def test_wheel_filters_match_brute_force():
    for n, m in ((2, 2), (3, 2), (2, 3)):
        labeled = list(brute_force_labeled_graphs(n, m))
        wheels = sum(1 for pairs in labeled if brute_force_has_wheel(n, m, pairs))
        assert enumerate_graphs(n, m, "wheels_only").labeled_count == wheels
        assert enumerate_graphs(n, m, "wheel_free").labeled_count == len(labeled) - wheels


def test_enumeration_sorted_and_duplicate_free():
    classes = enumerate_graphs(3, 2).classes
    encodings = [rep.encode() for rep in classes]
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


def _oracle_minima(n, m, which):
    """(pairs, sign, labeled orbit size) of every unpruned candidate that
    passes the filter and is its own orbit minimum, in generation order."""
    group_order = 2 ** n * math.factorial(n)
    minima = []
    for pairs in unpruned_restricted_growth(n, m):
        if _passes_filter(n, m, pairs, which):
            best, sign, automorphisms = _canonical_raw(n, m, pairs)
            if best == pairs:
                minima.append((pairs, sign, group_order // automorphisms))
    return minima


@pytest.mark.parametrize("n, m", [(n, m) for n in range(1, 6) for m in range(1, 7 - n)])
@pytest.mark.parametrize("which", FILTERS)
def test_pruned_generation_keeps_exactly_the_filtered_orbit_minima(n, m, which):
    assert list(_classes(n, m, which)) == _oracle_minima(n, m, which)


def _prefix_cut(n, m, pairs, e):
    prefix = pairs[:e]
    return _canonical_raw(n, m, prefix, e)[0] != prefix


@pytest.mark.parametrize("n, m", [(4, 2), (3, 3), (4, 3)])
def test_prefix_cut_is_sound_and_the_generator_cuts_nothing_else(n, m):
    survivors, acyclic_survivors = [], []
    for pairs in unpruned_restricted_growth(n, m):
        cut = any(_prefix_cut(n, m, pairs, e) for e in range(2, n))
        full, bounded = _canonical_raw(n, m, pairs), _canonical_raw(n, m, pairs, n)
        if full[0] == pairs:
            assert not cut, pairs  # a canonical graph's prefixes are never beaten
            assert bounded == full
        else:
            assert bounded[0] != pairs
        if not cut:
            survivors.append(pairs)
            if not brute_force_has_wheel(n, m, pairs):
                acyclic_survivors.append(pairs)
    assert list(_restricted_growth(n, m)) == survivors
    assert list(_restricted_growth(n, m, acyclic=True)) == acyclic_survivors


def test_prefix_cut_explicit_cases():
    # vertex 1 targets both arguments, so it beats vertex 0 at the first level
    assert _canonical_raw(3, 2, ((1, 4), (1, 2)), 2)[0] == ((1, 2),)
    assert _prefix_cut(3, 2, ((1, 4), (1, 2), (1, 2)), 2)
    assert not _prefix_cut(3, 2, ((1, 2), (1, 4), (1, 2)), 2)


def _assert_prefix_search_matches_brute_force(n, m, pairs, known, expected_key):
    """The key read off pairs[:known] is ``expected_key``; with known = n a
    key equal to ``pairs`` comes with the sign and |Aut| of the graph."""
    found = _canonical_raw(n, m, pairs, known)
    assert found[0] == expected_key, (pairs, known)
    if known == n and found[0] == pairs:
        assert found[1:] == (brute_force_canonical(n, m, pairs)[1],
                             brute_force_automorphisms(n, m, pairs))


@pytest.mark.parametrize("n, m", [(1, 2), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3),
                                  (4, 1)])
def test_canonical_search_matches_brute_force_for_every_prefix(n, m):
    # the brute-force key depends on the prefix alone, so it is found once
    # per prefix; the full search is checked on these sizes above
    expected = functools.cache(lambda prefix: brute_force_prefix_key(n, m, prefix))
    for pairs in brute_force_labeled_graphs(n, m):
        for known in range(1, n + 1):
            _assert_prefix_search_matches_brute_force(n, m, pairs, known,
                                                      expected(pairs[:known]))


def test_canonical_search_matches_brute_force_on_generation_prefixes():
    # the prefix tests of generation, and the deliberately inadmissible
    # inputs of the explicit cases (a short prefix, a loop at vertex 4)
    cases = [(3, 2, ((1, 4), (1, 2)), 2), (3, 2, ((1, 4), (1, 2), (1, 2)), 2),
             (3, 2, ((1, 2), (1, 4), (1, 2)), 2), (3, 2, ((1, 2), (4, 1), (1, 2)), 2)]
    for n, m in [(4, 2), (3, 3)]:
        for pairs in unpruned_restricted_growth(n, m):
            cases += [(n, m, pairs[:e], e) for e in range(2, n + 1)]
    for n, m, pairs, known in cases:
        _assert_prefix_search_matches_brute_force(
            n, m, pairs, known, brute_force_prefix_key(n, m, pairs[:known]))


def test_enumeration_k52_all_matches_generate_then_filter():
    minima = _oracle_minima(5, 2, "all")
    expected = EnumerationResult(
        tuple(DirectedGraph(5, 2, pairs) for pairs, sign, _ in minima if sign),
        sum(orbit for _, _, orbit in minima))
    assert enumerate_graphs(5, 2, "all") == expected


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
    assert _digest(result.classes) == (
        "c48323f6c951d6d95ece16bc72787d7de73e373ce6d0b1e4d9ba02d915070b62")


def test_unknown_filter_rejected():
    with pytest.raises(ValueError):
        enumerate_graphs(2, 2, "bogus")


# -- wheels -------------------------------------------------------------------

def test_wheel_examples():
    assert not has_wheel(parse_graph(C1))
    assert has_wheel(parse_graph(C2))
    assert has_wheel(parse_graph(K2_WHEEL))


def test_has_wheel_matches_brute_force_on_every_labeled_graph():
    checked = 0
    for n, m in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)):
        for pairs in brute_force_labeled_graphs(n, m):
            assert has_wheel(DirectedGraph(n, m, pairs)) == brute_force_has_wheel(n, m, pairs), pairs
            checked += 1
    assert checked == 21_034


def test_wheel_lemma_k_n1():
    for n in (2, 3):
        for rep in enumerate_graphs(n, 1).classes:
            assert has_wheel(rep)


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
    with pytest.raises(GraphError, match="cannot infer arity"):
        GraphSum.from_lines([])


def test_permute_args():
    s = GraphSum(2, [("2 2 ; 3: 1 4 / 4: 1 2", 1)])
    swapped = s.permute_args((2, 1))
    assert swapped.coefficient_of(parse_graph("2 2 ; 3: 2 4 / 4: 2 1")) == 1
    assert swapped.permute_args((2, 1)) == s


def assert_normal_form(s):
    """Positive denominator, no zero numerator, gcd 1, and denominator 1
    for the empty sum."""
    nums, denom = s._nums, s._denom
    assert type(denom) is int and denom > 0
    assert all(type(num) is int and num for num in nums.values())
    assert math.gcd(denom, *nums.values()) == 1
    assert nums or denom == 1


def test_graph_sum_arithmetic_matches_the_fraction_dict_reference():
    rng = random.Random(59)
    for arity in (1, 2, 3):
        pool = [rep for n in (1, 2, 3) for rep in enumerate_graphs(n, arity).classes]
        pool += [rep for n in (2, 3) for rep in zero_classes(n, arity)]
        coeffs = [Fraction(k, d) for k in range(-4, 5) for d in (1, 2, 3, 6)]

        def draw():
            items = []
            for _ in range(rng.randint(0, 5)):
                g = rng.choice(pool)
                perm = list(range(g.n))
                rng.shuffle(perm)
                swaps = [rng.randint(0, 1) for _ in range(g.n)]
                items.append((_apply_relabel_and_swaps(g, perm, swaps), rng.choice(coeffs)))
            return GraphSum(arity, items), FractionDictSum(arity, items)

        for _ in range(25):
            (a, ref_a), (b, ref_b) = draw(), draw()
            c = rng.choice(coeffs)
            # b - b and a scaled by 0 cancel to the empty sum
            results = [(a + b, ref_a.combined(ref_b, 1)), (a - b, ref_a.combined(ref_b, -1)),
                       (b - b, ref_b.combined(ref_b, -1)), (a.scale(c), ref_a.scale(c)),
                       (a.scale(0), ref_a.scale(0))]
            results += [(a.restrict_count(n), ref_a.restrict_count(n)) for n in (1, 2, 3)]
            for s, ref in results:
                assert s.arity == ref.arity
                assert [(rep.key, coeff) for rep, coeff in s.terms()] == ref.terms()
                assert_normal_form(s)
                assert all(s.coefficient_of(g) == ref.coefficient_of(g) for g in pool)
                # the same sum built from its terms by the constructor
                again = GraphSum(arity, s.terms())
                assert again == s and hash(again) == hash(s)
            assert (b - b).is_zero and b - b == a.scale(0) == GraphSum.zero(arity)
            assert hash(b - b) == hash(GraphSum.zero(arity))
            # equal sums built by different routes
            for left, right in ((a + b, b + a), ((a + b) - b, a), (a - b, a + b.scale(-1)),
                                (a.scale(c).scale(Fraction(1, c) if c else 1),
                                 a if c else GraphSum.zero(arity))):
                assert left == right and hash(left) == hash(right)
                assert left.terms() == right.terms()


@pytest.mark.parametrize("make", [
    lambda: GraphSum(2, [(POISSON, 0.1)]),
    lambda: GraphSum(2, [(POISSON, 1), ("2 2 ; 3: 1 2 / 4: 1 2", 2.0)]),
    lambda: GraphSum.single(POISSON, 0.5),
    lambda: GraphSum.single(POISSON).scale(0.5),
], ids=["init", "integral-float", "single", "scale"])
def test_graph_sum_rejects_float_coefficients(make):
    with pytest.raises(TypeError, match="inexact coefficient"):
        make()
