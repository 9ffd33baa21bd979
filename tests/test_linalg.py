import random
from fractions import Fraction

import pytest

from oracles import dense_rank
from stargraphs.errors import BudgetExceededError
from stargraphs.linalg import STRATEGIES, StreamingReducer, echelon, projected_span


def F(n, d=1):
    return Fraction(n, d)


def rand_sparse_rows(rng, nrows, ncols, density=0.4):
    rows = []
    for _ in range(nrows):
        row = {}
        for c in range(ncols):
            if rng.random() < density:
                row[c] = F(rng.randint(-4, 4), rng.randint(1, 3))
        rows.append({c: v for c, v in row.items() if v})
    return rows


def test_simple_solve():
    rows = [{0: F(1), 1: F(2)}, {0: F(3), 1: F(4)}]
    ech = echelon(rows, [F(5), F(6)], 2)
    assert ech.rank == 2 and not ech.inconsistent
    sol = ech.particular_solution()
    # x = -4, y = 9/2
    assert sol.get(0, F(0)) == F(-4)
    assert sol.get(1, F(0)) == F(9, 2)


def test_inconsistent_detection():
    rows = [{0: F(1), 1: F(1)}, {0: F(2), 1: F(2)}]
    ech = echelon(rows, [F(1), F(3)], 2)
    assert ech.inconsistent
    assert ech.particular_solution() is None


def test_nullspace():
    rows = [{0: F(1), 1: F(1), 2: F(1)}]
    ech = echelon(rows, None, 3)
    null = ech.nullspace()
    assert len(null) == 2
    for vec in null:
        assert sum(vec.get(c, F(0)) for c in range(3)) == 0


def test_strategies_agree_on_rank_and_feasibility():
    rng = random.Random(5)
    for _ in range(15):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 6)
        rows = rand_sparse_rows(rng, nrows, ncols)
        rhs = [F(rng.randint(-3, 3)) for _ in range(nrows)]
        e1 = echelon([dict(r) for r in rows], list(rhs), ncols, "markowitz")
        e2 = echelon([dict(r) for r in rows], list(rhs), ncols, "ordered")
        assert e1.rank == e2.rank
        assert e1.inconsistent == e2.inconsistent
        assert e1.rank == dense_rank(rows, ncols)


def test_particular_solution_satisfies_system():
    rng = random.Random(9)
    for _ in range(10):
        nrows, ncols = rng.randint(2, 7), rng.randint(2, 6)
        rows = rand_sparse_rows(rng, nrows, ncols)
        # build consistent rhs from a known solution
        secret = {c: F(rng.randint(-3, 3)) for c in range(ncols)}
        rhs = [sum(v * secret.get(c, F(0)) for c, v in row.items()) for row in rows]
        ech = echelon([dict(r) for r in rows], rhs, ncols)
        assert not ech.inconsistent
        sol = ech.particular_solution()
        for row, b in zip(rows, rhs):
            assert sum(v * sol.get(c, F(0)) for c, v in row.items()) == b


def test_nullspace_vectors_annihilate_rows():
    rng = random.Random(21)
    for _ in range(10):
        rows = rand_sparse_rows(rng, 4, 6)
        ech = echelon([dict(r) for r in rows], None, 6)
        for vec in ech.nullspace():
            for row in rows:
                assert sum(v * vec.get(c, F(0)) for c, v in row.items()) == 0
        assert ech.rank + len(ech.nullspace()) == 6


def test_streaming_matches_batch():
    rng = random.Random(33)
    for _ in range(10):
        nrows, ncols = rng.randint(2, 9), rng.randint(2, 6)
        rows = rand_sparse_rows(rng, nrows, ncols)
        rhs = [F(rng.randint(-2, 2)) for _ in range(nrows)]
        red = StreamingReducer()
        for row, b in zip(rows, rhs):
            red.add_row(row, b)
        ech = echelon([dict(r) for r in rows], list(rhs), ncols, "markowitz")
        assert red.rank == ech.rank
        assert red.inconsistent == ech.inconsistent
        second = red.reverify("markowitz")
        assert second["inconsistent"] == ech.inconsistent
        assert second["rank_coefficient"] == dense_rank(rows, ncols)


def test_streaming_keeps_witness_rows():
    red = StreamingReducer()
    assert red.add_row({0: F(1)}, F(1)) == "pivot"
    assert red.add_row({0: F(2)}, F(2)) == "redundant"
    assert red.add_row({0: F(3)}, F(1)) == "inconsistent"
    assert red.inconsistent
    # redundant rows are not kept; pivots and the witness are
    assert len(red.raw_rows) == 2
    check = red.reverify("ordered")
    assert check["inconsistent"]


def test_projected_dimension():
    vectors = [{0: F(1), 2: F(5)}, {1: F(1), 2: F(-1)}, {0: F(1), 1: F(1), 2: F(9)}]
    assert projected_span(vectors, 2).rank == 2
    assert projected_span([{2: F(1)}], 2).rank == 0


def test_nonzero_budget():
    rows = [{0: F(1), 1: F(1)}, {1: F(1)}]
    with pytest.raises(BudgetExceededError):
        echelon(rows, None, 2, nonzero_budget=2)


def test_nonzero_budget_bounds_fill_in():
    # an arrow matrix: eliminating column 0 with the ordered strategy turns
    # each two-entry row into a three-entry one, so 10 nonzeros grow to 13
    rows = [{0: F(1), 1: F(1), 2: F(1), 3: F(1)},
            {0: F(1), 1: F(2)}, {0: F(1), 2: F(2)}, {0: F(1), 3: F(2)}]
    assert sum(len(r) for r in rows) == 10
    with pytest.raises(BudgetExceededError, match="fill-in reached 11 nonzeros"):
        echelon(rows, None, 4, "ordered", nonzero_budget=10)
    with pytest.raises(BudgetExceededError, match="fill-in"):
        echelon(rows, None, 4, "ordered", nonzero_budget=12)
    within = echelon(rows, None, 4, "ordered", nonzero_budget=13)
    unbounded = echelon(rows, None, 4, "ordered")
    assert (within.pivot_cols, within.rows) == (unbounded.pivot_cols, unbounded.rows)
    assert within.rank == 4


# -- rows of int ---------------------------------------------------------------
# The evaluation route feeds rows of int; pivots other than 1 must be divided
# out as Fractions (int / int is a float).

INT_SYSTEMS = (
    ([{0: 2, 1: 3}, {0: 4, 1: 5}, {1: 7, 2: 3}], [1, 2, 3]),  # full rank
    ([{0: 2, 1: 3}, {0: 4, 1: 6}, {2: -5}], [1, 2, 4]),  # rank 2, consistent
    ([{0: 2, 1: 3}, {0: 4, 1: 6}, {1: 3, 2: 6}], [1, 3, 2]),  # inconsistent
)


def random_int_systems():
    rng = random.Random(77)
    for _ in range(12):
        nrows, ncols = rng.randint(2, 7), rng.randint(2, 6)
        rows = [{c: v for c in range(ncols) if (v := rng.choice((-3, -2, 0, 0, 2, 5)))}
                for _ in range(nrows)]
        yield [r for r in rows if r], [rng.randint(-3, 3) for r in rows if r]


def as_fractions(rows, rhs):
    return [{c: F(v) for c, v in r.items()} for r in rows], [F(v) for v in rhs]


def assert_exact(values):
    values = list(values)
    assert values and all(type(v) in (int, Fraction) for v in values)


def echelon_values(ech):
    return ([v for row in ech.rows for v in row.values()] + list(ech.rhs)
            + [v for vec in ech.nullspace() for v in vec.values()])


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_echelon_on_int_rows_is_exact(strategy):
    for rows, rhs in list(INT_SYSTEMS) + list(random_int_systems()):
        frac_rows, frac_rhs = as_fractions(rows, rhs)
        ncols = 1 + max(c for r in rows for c in r)
        for b, frac_b in ((rhs, frac_rhs), (None, None)):
            ints = echelon([dict(r) for r in rows], b, ncols, strategy)
            fracs = echelon(frac_rows, frac_b, ncols, strategy)
            assert ints == fracs  # pivots, RREF rows, rhs and verdict
            assert_exact(echelon_values(ints))
    first = echelon([dict(r) for r in INT_SYSTEMS[0][0]], INT_SYSTEMS[0][1], 3, strategy)
    assert first.particular_solution() == {0: F(1, 2), 2: F(1)}


def test_streaming_reducer_on_int_rows_is_exact():
    for rows, rhs in list(INT_SYSTEMS) + list(random_int_systems()):
        ints, fracs = StreamingReducer(), StreamingReducer()
        frac_rows, frac_rhs = as_fractions(rows, rhs)
        assert ([ints.add_row(r, b) for r, b in zip(rows, rhs)]
                == [fracs.add_row(r, b) for r, b in zip(frac_rows, frac_rhs)])
        assert ints.pivots == fracs.pivots
        assert (ints.raw_rows, ints.raw_rhs) == (fracs.raw_rows, fracs.raw_rhs)
        assert_exact(v for row, b in ints.pivots.values() for v in (*row.values(), b))
        assert_exact(v for row in ints.raw_rows for v in row.values())
        assert_exact(ints.raw_rhs)
        for strategy in STRATEGIES:
            assert ints.reverify(strategy) == fracs.reverify(strategy)
    verdicts = []
    for rows, rhs in INT_SYSTEMS:
        red = StreamingReducer()
        verdicts.append([red.add_row(r, b) for r, b in zip(rows, rhs)])
    assert verdicts == [["pivot"] * 3, ["pivot", "redundant", "pivot"],
                        ["pivot", "inconsistent", "pivot"]]
