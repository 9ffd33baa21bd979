"""Order-by-order solving of the associativity equations over graph classes.

The deformation series is graded by the formal parameter; at each order k the
equation  delta(c_k) + (1/2) sum_{a+b=k} [c_a, c_b] = 0  only needs to hold
modulo the Jacobi ideal (combinations that vanish on every Poisson
structure), which at graph level is relaxed to the span of Leibniz-generator
expansions.

Scaling the Poisson tensor splits everything by the number of internal
vertices, so the linear system decomposes into per-count blocks: unknowns
for c_k range over (wheel-free) classes with 1..k internal vertices, Leibniz
multipliers over generators of matching count.  A ``solved`` report is
checked by substituting its witness, the particular solution of every
block: the coefficients c_k and the Leibniz multipliers lambda_i must make
delta(c_k) + defect + sum_i lambda_i L_i the zero GraphSum.

A graph-level gap is only reported ``obstructed`` when the evaluation route
confirms it.  That route writes the order-k equation at operator level on
concrete Poisson structures (fixtures whose ``is_poisson`` is False are
rejected), with the Hochschild coboundaries of all basis graphs on the
left, evaluated together per argument triple
(``operators.CoboundaryColumns``, each graph compiled once per fixture
when a triple first reaches it), and the
brackets of the lower orders on the right, still evaluated at operator
level by slot substitution (the formula of
``operators.oracle_gerstenhaber``, each unordered pair once), with the
lower orders' inner values on argument pairs cached on each fixture
(``operators.apply_graph``); it uses no graph-level delta, bracket or
Leibniz span, so its infeasibility certificate holds without them, for the
lower orders c_1..c_{k-1} that the series fixes.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DimensionError, GraphError
from .graphs import GraphSum, enumerate_graphs
from .homology import graph_delta, graph_gerstenhaber, leibniz_generators
from .linalg import StreamingReducer, echelon, projected_span
# compile_sum is not called here, but perfbench/tracing.py wraps solver.compile_sum
from .operators import CoboundaryColumns, _bracket, compile_sum  # noqa: F401
from .poisson import PoissonStructure, preset_poisson
from .poly import Poly, _compositions, _rational, monomials_up_to_degree

DEFAULT_MATRIX_NONZERO_CAP = 200_000

POISSON_GRAPH = "1 2 ; 3: 1 2"


def poisson_class_sum() -> GraphSum:
    """The Poisson bracket as a one-term arity-2 sum."""
    return GraphSum.single(POISSON_GRAPH)


def antisymmetric_part(s: GraphSum) -> GraphSum:
    if s.arity != 2:
        raise GraphError("antisymmetric part needs arity 2, got %d" % s.arity)
    return (s - s.permute_args((2, 1))).scale(Fraction(1, 2))


@dataclass
class StarSeries:
    """Deformation orders k -> arity-2 GraphSum; the order-0 product is
    implicit and never stored."""

    orders: dict = field(default_factory=dict)

    def __post_init__(self):
        for k, s in self.orders.items():
            if k < 1:
                raise GraphError("orders are k >= 1, got %d" % k)
            if s.arity != 2:
                raise GraphError("order %d has arity %d, expected 2" % (k, s.arity))
        first = self.orders.get(1)
        if first is not None and antisymmetric_part(first) != poisson_class_sum():
            raise GraphError("order 1 must have antisymmetric part equal to the "
                             "Poisson class")

    def order(self, k: int) -> GraphSum:
        s = self.orders.get(k)
        if s is None:
            raise GraphError("series is missing order %d" % k)
        return s

    def with_order(self, k: int, s: GraphSum) -> "StarSeries":
        new_orders = dict(self.orders)
        new_orders[k] = s
        return StarSeries(new_orders)


def kontsevich_k2() -> StarSeries:
    """Orders 1 and 2 of the Kontsevich expansion: the Poisson class plus the
    four order-2 graphs with weights 1/2, 1/3, 1/3, -1/6 (the last one is the
    two-cycle graph)."""
    order2 = GraphSum(2, [
        ("2 2 ; 3: 1 2 / 4: 1 2", Fraction(1, 2)),
        ("2 2 ; 3: 1 4 / 4: 1 2", Fraction(1, 3)),
        ("2 2 ; 3: 1 2 / 4: 3 2", Fraction(1, 3)),
        ("2 2 ; 3: 1 4 / 4: 3 2", Fraction(-1, 6)),
    ])
    return StarSeries({1: poisson_class_sum(), 2: order2})


def _bracket_pairs(series: StarSeries, k: int) -> list:
    """-(1/2) sum_{a+b=k} [c_a, c_b] as sum weight * [D_a c_a, D_b c_b]:
    one (D_a c_a, D_b c_b, weight) per pair a <= b, D_a the denominator of
    c_a (so D_a c_a is c_a's numerators over 1) and weight
    -1/(2^[a=b] D_a D_b), since [c_a, c_b] = [c_b, c_a] for arity-2
    cochains.  The one list of bracket pairs: ``mc_defect`` brackets them at
    graph level and ``_bracket_rhs`` at operator level.  Raises
    ``GraphError`` on the first of c_1..c_{k-1} the series is missing."""
    integral = {}
    for a in range(1, k):
        c_a = series.order(a)
        integral[a] = (GraphSum._from_numerators(c_a.arity, c_a._nums, 1), c_a._denom)
    pairs = []
    for a in range(1, k // 2 + 1):
        (c_a, d_a), (c_b, d_b) = integral[a], integral[k - a]
        pairs.append((c_a, c_b, Fraction(-1, (2 if 2 * a == k else 1) * d_a * d_b)))
    return pairs


def mc_defect(series: StarSeries, k: int) -> GraphSum:
    """(1/2) sum_{a+b=k, a,b>=1} [c_a, c_b]; empty at k = 1.

    The sum of -weight * [D_a c_a, D_b c_b] over the pairs of
    ``_bracket_pairs``, the list the evaluation route's right-hand side
    iterates too: each unordered pair is bracketed once, as
    [c_a, c_b] = [c_b, c_a] for arity-2 cochains."""
    total = GraphSum.zero(3)
    for c_a, c_b, weight in _bracket_pairs(series, k):
        total = total + graph_gerstenhaber(c_a, c_b).scale(-weight)
    return total


@dataclass
class MCReport:
    order: int
    status: str  # solved | obstructed | inconclusive
    basis_size: int = 0
    matrix_shape: tuple = (0, 0)
    affine_dim: int = 0
    solution: GraphSum | None = None
    certificate: dict | None = None
    blocks: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "status": self.status,
            "basis_size": self.basis_size,
            "matrix_shape": list(self.matrix_shape),
            "affine_dim": self.affine_dim,
            "solution": (self.solution.to_lines() if self.solution is not None
                         else None),
            "certificate": self.certificate,
            "blocks": self.blocks,
        }


@functools.lru_cache(maxsize=None)
def _wheel_basis(n: int, wheel_free: bool) -> tuple:
    """The representatives of the arity-2 classes with n internal vertices,
    enumerated once per (n, wheel_free)."""
    return enumerate_graphs(n, 2, "wheel_free" if wheel_free else "all").classes


def _entries(s: GraphSum) -> dict:
    """{representative: coefficient} of every term of ``s`` in sorted
    order; a coefficient is its ``int`` numerator when the denominator of
    ``s`` is 1, else a ``Fraction``."""
    nums, denom = s._nums, s._denom
    reps = sorted(nums, key=lambda g: g.key)
    if denom == 1:
        return {rep: nums[rep] for rep in reps}
    return {rep: Fraction(nums[rep], denom) for rep in reps}


def _rows(columns, rhs_keys) -> dict:
    """{row key: {column: coefficient}} from (column, {row key: coefficient})
    pairs, the one step that turns columns into rows: keys in order of first
    appearance over the columns, then over ``rhs_keys`` (a key only there
    gets an empty row)."""
    rows: dict = {}
    for col, entries in columns:
        for key, coeff in entries.items():
            row = rows.get(key)
            if row is None:
                row = rows[key] = {}
            row[col] = coeff
    for key in rhs_keys:
        if key not in rows:
            rows[key] = {}
    return rows


def _block_system(n: int, basis, leibniz: bool, rhs: GraphSum | None = None,
                  strategy: str = "markowitz",
                  nonzero_cap: int | None = DEFAULT_MATRIX_NONZERO_CAP):
    """The count-n system whose columns are delta(B_j) for the classes B_j of
    ``basis``, then, when ``leibniz`` and n >= 2, the expansions of the
    Leibniz generators with n internal vertices; right-hand side ``rhs``
    (zero when None), eliminated with ``strategy`` under the nonzero budget
    ``nonzero_cap`` (None: unbounded), one row per class by ``_rows`` over
    the sorted terms of each column.  Returns (generators, row count, Echelon)."""
    generators = leibniz_generators(n, 3) if (leibniz and n >= 2) else []
    columns = ([graph_delta(GraphSum.single(rep)) for rep in basis]
               + [gen.expansion for gen in generators])
    target = _entries(rhs) if rhs is not None else {}
    rows = _rows(enumerate(map(_entries, columns)), target)
    b = [target.get(rep, 0) for rep in rows]
    return generators, len(rows), echelon(list(rows.values()), b, len(columns), strategy,
                                          nonzero_budget=nonzero_cap)


def verify_order(series: StarSeries, k: int, strategy: str = "ordered") -> bool:
    """Independent re-check: delta(c_k) + defect lies in the Leibniz span,
    established by a fresh elimination with the given pivot strategy."""
    residual = graph_delta(series.order(k)) + mc_defect(series, k)
    for n in residual.internal_counts():
        # unbounded: the re-check has no matrix cap of its own
        _, _, ech = _block_system(n, (), True, residual.restrict_count(n),
                                  strategy, None)
        if ech.inconsistent:
            return False
    return True


def solve_order(series: StarSeries, k: int, wheel_free: bool = True,
                nonzero_cap: int = DEFAULT_MATRIX_NONZERO_CAP,
                seed: int = 0) -> MCReport:
    """Solve the order-k equation over (wheel-free) classes with up to k
    internal vertices plus Leibniz multipliers.  A graph-level obstruction is
    grounded by the evaluation route before being reported."""
    if k < 1:
        raise GraphError("order must be >= 1, got %d" % k)
    if k == 1:
        # delta(c_1) = 0 and the antisymmetric-part normalization force the
        # Poisson class itself; no residual freedom survives the normalization.
        return MCReport(order=1, status="solved", basis_size=1,
                        matrix_shape=(1, 1), affine_dim=0,
                        solution=poisson_class_sum())
    if antisymmetric_part(series.order(1)) != poisson_class_sum():
        raise GraphError("missing normalization: order 1 must be the Poisson class")

    defect = mc_defect(series, k)
    blocks, summaries = [], []  # (basis, generators, Echelon) and its summary per count
    for n in range(1, k + 1):
        basis = _wheel_basis(n, wheel_free)
        generators, row_count, ech = _block_system(
            n, basis, True, defect.restrict_count(n).scale(-1), nonzero_cap=nonzero_cap)
        blocks.append((basis, generators, ech))
        summaries.append({"count": n, "basis_size": len(basis),
                          "generator_count": len(generators),
                          "shape": [row_count, len(basis) + len(generators)],
                          "rank": ech.rank, "feasible": not ech.inconsistent})
    # counts above k have no unknowns and no relaxation at this order
    feasible = (all(s["feasible"] for s in summaries)
                and all(n <= k for n in defect.internal_counts()))
    basis_size = sum(s["basis_size"] for s in summaries)
    shape = (sum(s["shape"][0] for s in summaries), sum(s["shape"][1] for s in summaries))

    if feasible:
        # c_k and sum_i lambda_i L_i from each block's particular solution
        solution_terms, leibniz_terms, affine = [], [], 0
        for basis, generators, ech in blocks:
            for col, value in ech.particular_solution().items():
                if col < len(basis):
                    solution_terms.append((basis[col], value))
                else:
                    expansion = generators[col - len(basis)].expansion
                    leibniz_terms.extend((rep, c * value) for rep, c in expansion.terms())
            affine += projected_span(ech.nullspace(), len(basis)).rank
        solution = GraphSum(2, solution_terms)
        # the witness: the generator columns enter the system unnegated, so
        # delta(c_k) + defect + sum_i lambda_i L_i must vanish as a GraphSum
        if not (graph_delta(solution) + defect + GraphSum(3, leibniz_terms)).is_zero:
            raise AssertionError("solution failed the witness check at order %d: "
                                 "delta(c_k) + defect + sum lambda_i L_i != 0" % k)
        return MCReport(order=k, status="solved", basis_size=basis_size,
                        matrix_shape=shape, affine_dim=affine,
                        solution=solution, blocks=summaries)

    # graph-level obstruction: ground it with the evaluation route
    report = eval_obstruction(series, k, fixtures=None, seed=seed,
                              wheel_free=wheel_free)
    report.blocks = summaries
    if report.certificate is not None:
        report.certificate["graph_level"] = {
            "kind": "leibniz_gap",
            "detail": "no coefficient assignment matches the defect modulo the "
                      "Leibniz span",
            "shape": list(shape),
        }
    report.basis_size = basis_size
    return report


# ---------------------------------------------------------------------------
# evaluation route


def _random_cubic(seed: int) -> Poly:
    rng = random.Random(seed)
    monos = list(_compositions(3, 3))
    total = Poly.zero(3)
    picks = rng.sample(range(len(monos)), 4)
    for i in picks:
        coeff = rng.choice([-3, -2, -1, 1, 2, 3])
        total = total + Poly.monomial(3, monos[i], coeff)
    return total


def policy_fixtures(seed: int):
    """The fixture family of the growth policy, in feeding order."""
    return [preset_poisson("so3"),
            preset_poisson("sl2"),
            preset_poisson("jacobian", _random_cubic(seed)),
            preset_poisson("jacobian", Poly.monomial(3, (1, 1, 1)))]


def triples_by_total_degree(d: int, cap: int, prev_cap: int = 0):
    """Monomial triples with each argument of degree <= cap and at least one
    argument of degree > prev_cap, ordered by total degree (witnesses of
    infeasibility live at low degree, so they are met first)."""
    by_degree = {}
    for deg in range(1, cap + 1):
        by_degree[deg] = monomials_up_to_degree(d, deg, min_degree=deg)
    for total in range(3, 3 * cap + 1):
        for a in range(1, cap + 1):
            for b in range(1, cap + 1):
                c = total - a - b
                if not 1 <= c <= cap:
                    continue
                if max(a, b, c) <= prev_cap:
                    continue
                for f in by_degree[a]:
                    for g in by_degree[b]:
                        for h in by_degree[c]:
                            yield (f, g, h)


def _bracket_rhs(lower: list, p: PoissonStructure, args) -> Poly:
    """sum weight * [D_a c_a, D_b c_b](args) over the pairs of
    ``_bracket_pairs``, in their order, each bracket by
    ``operators._bracket``."""
    total = Poly.zero(p.d)
    for c_a, c_b, weight in lower:
        total = total + _bracket(c_a, c_b, p, args).scale(weight)
    return total


STALL_WINDOW = 250  # consecutive rank-neutral triples before a feed is cut short


def eval_obstruction(series: StarSeries, k: int, fixtures=None, *, seed: int = 0,
                     wheel_free: bool = True) -> MCReport:
    """Stack the evaluated equations
        sum_j x_j delta(B_j)(f, g, h) = -(1/2) sum_{a+b=k} [c_a, c_b](f, g, h)
    over concrete Poisson structures, one row per monomial of the values
    (built by ``_rows``, as the graph-level blocks are), where B_j runs over
    the (wheel-free) basis classes with 1..k internal vertices.  Both sides
    are evaluated at operator level: the columns of a triple by one
    ``CoboundaryColumns`` pass over all basis columns, the
    right-hand side by the operator-level bracket formula of
    ``oracle_gerstenhaber`` once per pair a <= b (the bracket of arity-2
    cochains is symmetric; no graph-level bracket is formed), on the
    integral sums D_a c_a with one weight -1/(2^[a=b] D_a D_b) per pair
    (``_bracket_pairs``).  Each argument's work is done once: its
    derivatives are kept on it (``Poly`` jets), each product f_j f_{j+1}
    is formed once per argument pair within one fixture's feed
    (``CoboundaryColumns``), and each inner value D_a c_a(f_j, f_{j+1}) once
    per argument pair and fixture (cached on the fixture by
    ``apply_graph``), all keyed by value, which changes no value, value type
    or order of accumulation.  So the fixtures, the arguments and every
    compiled operator keep ``int`` coefficients, and Fractions enter only
    through these weights; the reducer scales each row by its common
    denominator and eliminates in integers.  A basis graph, or a graph of a
    lower order, is compiled only once some argument tuple it is evaluated
    on can feed it (the in-degree gate of ``operators``).  Infeasibility
    of the stacked system is a sound obstruction certificate for the given
    c_1..c_{k-1}; feasibility alone is inconclusive.  The verdict is always
    re-checked by a second elimination with Markowitz pivoting.

    Both policies are one sequence of (fixture, triples) feeds, run by one
    loop that stops at the first inconsistency.  ``fixtures`` is a list of
    (PoissonStructure, [argument tuples]), each fed in full, and the one
    rank reported is the final one.  When None, the fixture-growth policy
    feeds so3, then sl2, then two jacobian cubics, in rounds over the
    argument-degree caps (0, 2], (2, 4] and (4, 8]; a round feeds each
    fixture the triples new at its cap, and a feed is cut short after
    ``STALL_WINDOW`` consecutive triples that raise no rank.  The rank is
    recorded after every growth feed, and growth also stops once at least
    ``len(family) + 2`` ranks are recorded (six for the four policy
    fixtures, so the earliest stop is after the second feed of the second
    round) and the last three are equal, or after the last round."""
    basis = []
    for n in range(1, k + 1):
        basis.extend(_wheel_basis(n, wheel_free))
    columns = [GraphSum.single(rep) for rep in basis]
    lower = _bracket_pairs(series, k)
    reducer = StreamingReducer()
    used: list[dict] = []

    def feed(p: PoissonStructure, triples, window) -> bool:
        """Returns True when an inconsistency was found; the feed is cut
        short after ``window`` consecutive rank-neutral triples (None: never)."""
        if not p.is_poisson:
            raise DimensionError("evaluation fixtures must be Poisson structures "
                                 "(%s fails the Jacobi identity)" % p.label)
        delta = CoboundaryColumns(columns, p)  # operators cached on p after the first feed
        stall = count = 0
        for count, triple in enumerate(triples, 1):
            rhs = _bracket_rhs(lower, p, triple).terms
            rows = _rows(delta.touched_terms(triple), rhs)  # one row per monomial
            progressed = False
            for e in sorted(rows):
                outcome = reducer.add_row(rows[e], rhs.get(e, 0))
                if outcome == "inconsistent":
                    used.append({"fixture": p.label, "triples_evaluated": count,
                                 "args": [str(x) for x in triple]})
                    return True
                if outcome == "pivot":
                    progressed = True
            stall = 0 if progressed else stall + 1
            if window is not None and stall >= window:
                break
        used.append({"fixture": p.label, "triples_evaluated": count})
        return False

    # one sequence of (fixture, triples, stall window) feeds
    if fixtures is not None:
        policy = "explicit"
        feeds = ((p, triples, None) for p, triples in fixtures)
    else:
        policy, family = "fixture_growth", policy_fixtures(seed)
        # one round per cap: each fixture is fed the triples new at that cap
        feeds = ((p, triples_by_total_degree(p.d, cap, prev_cap), STALL_WINDOW)
                 for prev_cap, cap in ((0, 2), (2, 4), (4, 8)) for p in family)
    infeasible, ranks = False, []
    for p, triples, window in feeds:
        infeasible = feed(p, triples, window)
        if infeasible:
            break
        ranks.append(reducer.rank)
        # growth stops on three equal ranks, once len(family) + 2 are recorded
        if window and len(ranks) >= len(family) + 2 and ranks[-1] == ranks[-2] == ranks[-3]:
            break

    certificate = {
        "kind": "evaluated_system_infeasible" if infeasible else "evaluated_system_feasible",
        "policy": policy,
        "fixtures": used,
        "unknowns": len(basis),
        "rows_collected": len(reducer.raw_rows),
        "rank_coefficient": reducer.rank,
        "rank_augmented": reducer.rank + (1 if reducer.inconsistent else 0),
        "round_ranks": ranks if fixtures is None else [reducer.rank],
    }
    second = reducer.reverify("markowitz")
    if second["inconsistent"] != infeasible:
        raise AssertionError("independent pivoting disagreed on feasibility")
    certificate["reverified"] = second
    status = "obstructed" if infeasible else "inconclusive"
    return MCReport(order=k, status=status, basis_size=len(basis),
                    matrix_shape=(len(reducer.raw_rows), len(basis)),
                    affine_dim=0, solution=None, certificate=certificate)


# ---------------------------------------------------------------------------
# kernels and series utilities


def cocycle_kernel(n: int, wheel_free: bool = True, modulo_leibniz: bool = False) -> list:
    """Exact nullspace basis of the graph differential on the chosen span of
    arity-2 classes with n internal vertices, optionally modulo the Leibniz
    span; returned as GraphSums."""
    if n < 1:
        raise GraphError("need n >= 1, got %d" % n)
    basis = _wheel_basis(n, wheel_free)
    _, _, ech = _block_system(n, basis, modulo_leibniz)
    span = projected_span(ech.nullspace(), len(basis))
    return [GraphSum(2, [(basis[col], coeff) for col, coeff in row.items()])
            for row in span.rows]


def reparametrize(series: StarSeries, alphas: dict) -> StarSeries:
    """Change of the formal parameter t -> t + sum_{j>=2} alpha_j t^j applied
    to the series; order k receives  sum_i c_i [t^k] (t + ...)^i."""
    if not series.orders:
        return StarSeries({})
    max_order = max(series.orders)
    # coefficients of h(t)^i as dense lists indexed by power of t
    h = [Fraction(0)] * (max_order + 1)
    if max_order >= 1:
        h[1] = Fraction(1)
    for j, a in alphas.items():
        if j < 2:
            raise GraphError("reparametrization exponents start at 2")
        if j <= max_order:
            h[j] = Fraction(_rational(a))
    powers = [None, h]
    for i in range(2, max_order + 1):
        prev = powers[i - 1]
        cur = [Fraction(0)] * (max_order + 1)
        for a in range(1, max_order + 1):
            if not prev[a]:
                continue
            for b in range(1, max_order + 1 - a):
                if h[b]:
                    cur[a + b] += prev[a] * h[b]
        powers.append(cur)
    new_orders = {}
    for k in range(1, max_order + 1):
        total = GraphSum.zero(2)
        for i in range(1, k + 1):
            if i in series.orders and powers[i][k]:
                total = total + series.orders[i].scale(powers[i][k])
        new_orders[k] = total
    return StarSeries(new_orders)


def solve_up_to(max_order: int, wheel_free: bool = True, seed: int = 0,
                nonzero_cap: int = DEFAULT_MATRIX_NONZERO_CAP):
    """Build a series order by order; returns (series, [MCReport]).  Solving
    stops after the first order whose status is not ``solved`` (obstructed
    or inconclusive); that order's report is the last one."""
    if max_order < 1:
        raise GraphError("max order must be >= 1, got %d" % max_order)
    series = StarSeries({})
    reports = []
    for k in range(1, max_order + 1):
        report = solve_order(series, k, wheel_free=wheel_free,
                             nonzero_cap=nonzero_cap, seed=seed)
        reports.append(report)
        if report.status != "solved":
            break
        series = series.with_order(k, report.solution)
    return series, reports
