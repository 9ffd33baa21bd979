import math
import random
from fractions import Fraction

import pytest

from oracles import dense_rank, fraction_echelon
from stargraphs import linalg, solver
from stargraphs.errors import BudgetExceededError
from stargraphs.graphs import GraphSum
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


@pytest.mark.parametrize("rows, rhs", [
    ([{0: 0.1}], [F(3, 10)]),
    ([{0: 1}], [0.3]),
], ids=["entry", "rhs"])
def test_echelon_rejects_float_values(rows, rhs):
    with pytest.raises(TypeError, match="inexact coefficient"):
        echelon(rows, rhs, 1)


@pytest.mark.parametrize("row, rhs", [
    ({0: 0.5}, 1),
    ({0: 1}, 0.3),
], ids=["entry", "rhs"])
def test_streaming_reducer_rejects_float_values(row, rhs):
    red = StreamingReducer()
    with pytest.raises(TypeError, match="inexact coefficient"):
        red.add_row(row, rhs)
    assert red.pivots == {} and red.raw_rows == [] and red.raw_rhs == []


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


# -- fraction-free streaming ---------------------------------------------------

def random_mixed_system(rng):
    """Rows and right-hand sides of int and Fraction values, some of them
    above 2^64, with dependent rows whose rhs is either the same combination
    (redundant) or off by one (inconsistent)."""

    def value():
        kind = rng.randrange(4)
        if kind == 0:
            return rng.choice((-3, -1, 1, 2, 6))
        if kind == 1:
            return F(rng.choice((-1, 1)) * rng.randint(1, 40), rng.randint(1, 12))
        if kind == 2:
            return rng.choice((-1, 1)) * rng.randint(10 ** 20, 10 ** 30)
        return F(rng.randint(10 ** 18, 10 ** 24), rng.randint(2, 10 ** 12))

    ncols = rng.randint(2, 8)
    rows, rhs = [], []
    for _ in range(rng.randint(3, 14)):
        if len(rows) >= 2 and rng.random() < 0.4:
            (r1, b1), (r2, b2) = rng.sample(list(zip(rows, rhs)), 2)
            s1, s2 = value(), value()
            row = {c: s1 * r1.get(c, 0) + s2 * r2.get(c, 0) for c in set(r1) | set(r2)}
            b = s1 * b1 + s2 * b2 + (rng.random() < 0.3)
        else:
            row = {c: value() for c in range(ncols) if rng.random() < 0.6}
            b = rng.choice((0, value()))
        rows.append({c: v for c, v in row.items() if v})
        rhs.append(b)
    return rows, rhs


def width(rows):
    """One more than the largest column of ``rows``: the rhs column of [A | b]."""
    return 1 + max((c for row in rows for c in row), default=0)


def rank_rule_outcomes(rows, rhs):
    """The outcome of each ``StreamingReducer.add_row`` by ranks alone: a row
    is a pivot when it raises the rank of the pivot rows before it, and
    otherwise inconsistent when it raises the rank of their rows of
    [A | b]."""
    ncols = width(rows)
    kept, outcomes = [], []
    for row, b in zip(rows, rhs):
        augmented = {**row, ncols: b}
        if dense_rank([r for r, _ in kept] + [row], ncols) > len(kept):
            kept.append((row, augmented))
            outcomes.append("pivot")
        elif dense_rank([a for _, a in kept] + [augmented], ncols + 1) > len(kept):
            outcomes.append("inconsistent")
        else:
            outcomes.append("redundant")
    return outcomes


def rank_verdict(rows, rhs, strategy):
    """``StreamingReducer.reverify`` of the raw system by ``dense_rank``."""
    ncols = width(rows)
    coefficient = dense_rank(rows, ncols)
    augmented = dense_rank([{**row, ncols: b} for row, b in zip(rows, rhs)], ncols + 1)
    return {"strategy": strategy, "rank_coefficient": coefficient,
            "rank_augmented": augmented, "inconsistent": augmented > coefficient}


def cascade_system(rng, length=40):
    """Pivot rows {i: p_i, i + 1: q_i / 7} with distinct primes p_i, q_i,
    then rows that reduce through all of them: a combination of the pivot
    rows (redundant), the same with its rhs off by one (inconsistent), and
    dense rows, each of which a step multiplies by a new prime leading
    entry, so its integers grow when no gcd is divided out between steps."""
    primes = [n for n in range(101, 1000) if all(n % k for k in range(2, 32))]
    rows = [{i: primes[i], i + 1: F(primes[length + i], 7)} for i in range(length)]
    rhs = [F(rng.randint(-50, 50), rng.randint(1, 5)) for _ in range(length)]
    coeffs = [rng.randint(1, 10 ** 6) for _ in range(length)]
    combination = {}
    for c, row in zip(coeffs, rows):
        for col, v in row.items():
            combination[col] = combination.get(col, 0) + c * v
    b = sum(c * v for c, v in zip(coeffs, rhs))
    dense = [{col: rng.randint(-10 ** 6, 10 ** 6) or 1 for col in range(length + 1)}
             for _ in range(2)]
    return rows + [combination, combination] + dense, rhs + [b, b + 1, F(1, 3), 5]


def test_streaming_reducer_follows_the_rank_rule():
    # outcomes, kept raw rows, reverify verdicts and stored pivots against
    # ranks and reduced echelon forms of plain Fraction elimination, on mixed
    # int and Fraction systems with values above 2^64, int systems and a
    # cascade through 40 pivots
    rng = random.Random(2024)
    systems = [random_mixed_system(rng) for _ in range(60)] + list(INT_SYSTEMS)
    systems += list(random_int_systems()) + [cascade_system(random.Random(7))]
    seen = set()
    for rows, rhs in systems:
        red = StreamingReducer()
        outcomes = [red.add_row(r, b) for r, b in zip(rows, rhs)]
        assert outcomes == rank_rule_outcomes(rows, rhs)
        seen.update(outcomes)
        kept = [i for i, outcome in enumerate(outcomes) if outcome != "redundant"]
        assert (red.raw_rows, red.raw_rhs) == ([rows[i] for i in kept], [rhs[i] for i in kept])
        assert all(type(b) is Fraction for b in red.raw_rhs)
        assert (red.rank, red.inconsistent) == (outcomes.count("pivot"),
                                                "inconsistent" in outcomes)
        for strategy in STRATEGIES:
            assert red.reverify(strategy) == rank_verdict(red.raw_rows, red.raw_rhs, strategy)
        # each stored pivot is a primitive int row led by a positive entry at
        # its column, and together they span the pivot rows fed, with rhs
        for col, (row, b) in red.pivots.items():
            values = [*row.values(), b]
            assert all(type(v) is int for v in values)
            assert min(row) == col and row[col] > 0 and math.gcd(*values) == 1
        pivots = [i for i in kept if outcomes[i] == "pivot"]
        stored = fraction_echelon([dict(row) for row, _ in red.pivots.values()],
                                  [b for _, b in red.pivots.values()], 0, "ordered")
        fed = fraction_echelon([dict(rows[i]) for i in pivots], [rhs[i] for i in pivots],
                               0, "ordered")
        assert (stored.pivot_cols, stored.rows, stored.rhs) == (fed.pivot_cols, fed.rows, fed.rhs)
        assert stored.pivot_cols == sorted(red.pivots)
    assert seen == {"pivot", "redundant", "inconsistent"}
    # the cascade: 40 pivots, then the combination twice, and the first
    # dense row reduces through all 40 pivots to a new one at column 40,
    # which the second, with its unrelated rhs, contradicts; one gcd per
    # stored pivot still leaves integers above 2^64
    assert outcomes == ["pivot"] * 40 + ["redundant", "inconsistent", "pivot", "inconsistent"]
    assert max(abs(v) for v in red.pivots[40][0].values()) > 2 ** 64


# -- integral echelon against the Fraction oracle ------------------------------

ARROW = ([{0: 1, 1: 1, 2: 1, 3: 1}, {0: 1, 1: 2}, {0: 1, 2: 2}, {0: 1, 3: 2}], None)
NEGATIVE_PIVOTS = ([{0: -1, 1: 2}, {1: -1, 2: F(1, 2)}, {0: 3, 2: -1}, {2: -1, 3: 4}],
                   [1, F(-1, 2), 0, 7])


def oracle_systems():
    """Seeded systems of int and Fraction entries: full rank, rank-deficient
    and inconsistent ones, fill-in, pivots of -1, and values above 2^64."""
    systems = [(rows, None) for rows in (r for r, _ in INT_SYSTEMS)]
    systems += list(INT_SYSTEMS) + list(random_int_systems()) + [ARROW, NEGATIVE_PIVOTS]
    rng = random.Random(2026)
    for _ in range(25):
        rows, rhs = random_mixed_system(rng)
        systems.append((rows, rhs))
        systems.append((rows, None))
    rng = random.Random(5)
    for _ in range(10):
        systems.append((rand_sparse_rows(rng, rng.randint(1, 8), rng.randint(1, 6)), None))
    return [(rows, rhs) for rows, rhs in systems if rows]


def smallest_budget(rows, rhs, strategy, eliminate):
    """The least ``nonzero_budget`` under which the elimination succeeds."""

    def passes(budget):
        try:
            eliminate([dict(r) for r in rows], rhs, 0, strategy, nonzero_budget=budget)
        except BudgetExceededError:
            return False
        return True

    lo, hi = -1, 1  # lo fails, hi is searched for
    while not passes(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if passes(mid) else (mid, hi)
    return hi


def assert_same_echelon(rows, rhs, strategy):
    new = echelon([dict(r) for r in rows], rhs, 0, strategy)
    old = fraction_echelon([dict(r) for r in rows], rhs, 0, strategy)
    assert (new.pivot_cols, new.rows, new.rhs, new.inconsistent) == (
        old.pivot_cols, old.rows, old.rhs, old.inconsistent)
    for value in [v for row in new.rows for v in row.values()] + list(new.rhs):
        assert type(value) in (int, Fraction)
        assert type(value) is int or value.denominator != 1
    return new


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_echelon_matches_the_fraction_oracle(strategy):
    kinds = set()
    for rows, rhs in oracle_systems():
        ech = assert_same_echelon(rows, rhs, strategy)
        kinds.add("inconsistent" if ech.inconsistent else
                  "deficient" if ech.rank < len(rows) else "full")
        assert (smallest_budget(rows, rhs, strategy, echelon)
                == smallest_budget(rows, rhs, strategy, fraction_echelon))
    assert kinds == {"inconsistent", "deficient", "full"}
    arrow = ARROW[0]
    assert smallest_budget(arrow, None, "ordered", echelon) > sum(len(r) for r in arrow)


@pytest.mark.parametrize("wheel_free", [True, False], ids=["wheel_free", "all"])
def test_echelon_matches_the_fraction_oracle_on_cocycle_kernel_rows(wheel_free, monkeypatch):
    systems = []

    def recording(rows, rhs, ncols, strategy, nonzero_budget=None):
        systems.append([dict(r) for r in rows])
        return echelon(rows, rhs, ncols, strategy, nonzero_budget)

    monkeypatch.setattr(solver, "echelon", recording)
    solver.cocycle_kernel(4, wheel_free, modulo_leibniz=True)
    (rows,) = systems
    for strategy in STRATEGIES:
        assert_same_echelon(rows, None, strategy)
    budget = smallest_budget(rows, None, "markowitz", echelon)
    fraction_echelon([dict(r) for r in rows], None, 0, "markowitz", nonzero_budget=budget)
    with pytest.raises(BudgetExceededError):
        fraction_echelon([dict(r) for r in rows], None, 0, "markowitz",
                         nonzero_budget=budget - 1)


def seeded_reducers():
    rng = random.Random(2024)
    for _ in range(30):
        rows, rhs = random_mixed_system(rng)
        red = StreamingReducer()
        for r, b in zip(rows, rhs):
            red.add_row(r, b)
        yield red
    rng = random.Random(33)
    for _ in range(10):
        nrows, ncols = rng.randint(2, 9), rng.randint(2, 6)
        red = StreamingReducer()
        for row in rand_sparse_rows(rng, nrows, ncols):
            red.add_row(row, F(rng.randint(-2, 2)))
        yield red


def test_reverify_eliminates_once_with_the_dense_rank_verdict(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return echelon(*args, **kwargs)

    monkeypatch.setattr(linalg, "echelon", counting)
    verdicts = set()
    for red in seeded_reducers():
        for strategy in STRATEGIES:
            del calls[:]
            result = red.reverify(strategy)
            assert len(calls) == 1
            assert result == rank_verdict(red.raw_rows, red.raw_rhs, strategy)
            verdicts.add(result["inconsistent"])
    assert verdicts == {True, False}


def test_the_two_pivot_rules_are_not_interchangeable(monkeypatch):
    # the rows cocycle_kernel hands projected_span have the same rank under
    # both rules, but only the ordered rows are the canonical kernel basis
    calls = []

    def recording(vectors, keep_cols):
        calls.append(([dict(v) for v in vectors], keep_cols))
        return projected_span(vectors, keep_cols)

    monkeypatch.setattr(solver, "projected_span", recording)
    kernel = solver.cocycle_kernel(4, wheel_free=True, modulo_leibniz=True)
    ((vectors, keep),) = calls
    rows = [r for r in ({c: v for c, v in vec.items() if c < keep} for vec in vectors) if r]
    ordered, markowitz = (echelon(rows, None, keep, strategy)
                          for strategy in ("ordered", "markowitz"))
    assert ordered.rank == markowitz.rank == 12
    assert echelon(ordered.rows + markowitz.rows, None, keep, "ordered").rank == 12
    assert all(col == min(row) for col, row in zip(ordered.pivot_cols, ordered.rows))
    assert any(col != min(row) for col, row in zip(markowitz.pivot_cols, markowitz.rows))
    basis = solver._wheel_basis(4, True)
    assert kernel == [GraphSum(2, [(basis[col], coeff) for col, coeff in row.items()])
                      for row in ordered.rows]
