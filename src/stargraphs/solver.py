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
(``operators.CoboundaryColumns``, compiled once per fixture), and the
brackets of the lower orders on the right (``operators.oracle_gerstenhaber``,
each unordered pair once); it uses no graph-level delta, bracket or Leibniz
span, so its infeasibility certificate holds without them, for the lower
orders c_1..c_{k-1} that the series fixes.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import BudgetExceededError, DimensionError, GraphError
from .graphs import GraphClass, GraphSum, enumerate_graphs
from .homology import graph_delta, graph_gerstenhaber, leibniz_generators
from .linalg import StreamingReducer, echelon, projected_span
# compile_sum is not called here, but perfbench/tracing.py wraps solver.compile_sum
from .operators import CoboundaryColumns, compile_sum, oracle_gerstenhaber  # noqa: F401
from .poisson import PoissonStructure, preset_poisson
from .poly import Poly, monomials_up_to_degree

DEFAULT_ORDER_CAP = 4
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


def mc_defect(series: StarSeries, k: int) -> GraphSum:
    """(1/2) sum_{a+b=k, a,b>=1} [c_a, c_b]; empty at k = 1.

    [c_a, c_b] = [c_b, c_a] for arity-2 cochains, so each unordered pair is
    bracketed once: a < b with weight 1 and a = b with weight 1/2, as in
    ``eval_obstruction``."""
    total = GraphSum.zero(3)
    for a in range(1, k // 2 + 1):
        bracket = graph_gerstenhaber(series.order(a), series.order(k - a))
        total = total + (bracket if 2 * a < k else bracket.scale(Fraction(1, 2)))
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
    """The arity-2 classes with n internal vertices, enumerated once per
    (n, wheel_free)."""
    return enumerate_graphs(n, 2, "wheel_free" if wheel_free else "all").classes


def _assemble(columns: list, rhs: GraphSum | None = None):
    """Sparse rows and right-hand side of the system whose column j is the
    GraphSum ``columns[j]``: one row per graph class, numbered by first
    appearance over the columns and then over ``rhs`` (zero when None)."""
    row_index: dict = {}
    entries = [(row_index.setdefault(cls.rep.key, len(row_index)), col, coeff)
               for col, s in enumerate(columns) for cls, coeff in s.terms()]
    targets = [(row_index.setdefault(cls.rep.key, len(row_index)), coeff)
               for cls, coeff in (rhs.terms() if rhs is not None else ())]
    rows: list[dict] = [dict() for _ in row_index]
    for row, col, coeff in entries:
        rows[row][col] = coeff
    b = [Fraction(0)] * len(rows)
    for row, coeff in targets:
        b[row] = coeff
    return rows, b


def _images(basis: list) -> list:
    return [graph_delta(GraphSum.single(cls.rep)) for cls in basis]


def _solve_count_block(n: int, defect_n: GraphSum, wheel_free: bool,
                       nonzero_cap: int):
    """Assemble and solve  delta(c) + defect_n = sum lambda_i L_i  over the
    classes with n internal vertices.  Returns a dict describing the block."""
    basis = _wheel_basis(n, wheel_free)
    generators = leibniz_generators(n, 3) if n >= 2 else []
    columns = _images(basis) + [gen.expansion for gen in generators]
    rows, b = _assemble(columns, defect_n.scale(-1))
    ech = echelon(rows, b, len(columns), "markowitz", nonzero_budget=nonzero_cap)
    return {
        "count": n,
        "basis": basis,
        "generators": generators,
        "shape": (len(rows), len(columns)),
        "rank": ech.rank,
        "feasible": not ech.inconsistent,
        "particular": ech.particular_solution(),
        "nullspace": ech.nullspace() if not ech.inconsistent else [],
    }


def _block_solution(block) -> GraphSum:
    basis = block["basis"]
    particular = block["particular"] or {}
    return GraphSum(2, [(basis[col].rep, value)
                       for col, value in particular.items() if col < len(basis)])


def _block_leibniz_sum(block) -> GraphSum:
    """sum_i lambda_i L_i over the Leibniz multipliers of the block's
    particular solution."""
    offset = len(block["basis"])
    generators = block["generators"]
    particular = block["particular"] or {}
    return GraphSum(3, [(cls, coeff * value)
                        for col, value in particular.items() if col >= offset
                        for cls, coeff in generators[col - offset].expansion.terms()])


def verify_order(series: StarSeries, k: int, strategy: str = "ordered") -> bool:
    """Independent re-check: delta(c_k) + defect lies in the Leibniz span,
    established by a fresh elimination with the given pivot strategy."""
    residual = graph_delta(series.order(k)) + mc_defect(series, k)
    if residual.is_zero:
        return True
    for n in residual.internal_counts():
        part = residual.restrict_count(n)
        if n < 2:
            return False
        columns = [gen.expansion for gen in leibniz_generators(n, 3)]
        rows, b = _assemble(columns, part)
        if echelon(rows, b, len(columns), strategy).inconsistent:
            return False
    return True


def solve_order(series: StarSeries, k: int, wheel_free: bool = True,
                nonzero_cap: int = DEFAULT_MATRIX_NONZERO_CAP,
                order_cap: int = DEFAULT_ORDER_CAP,
                seed: int = 0) -> MCReport:
    """Solve the order-k equation over (wheel-free) classes with up to k
    internal vertices plus Leibniz multipliers.  A graph-level obstruction is
    grounded by the evaluation route before being reported."""
    if k < 1:
        raise GraphError("order must be >= 1, got %d" % k)
    if k > order_cap:
        raise BudgetExceededError("order %d exceeds the order cap %d" % (k, order_cap))
    for a in range(1, k):
        series.order(a)  # raises on missing orders
    if k == 1:
        # delta(c_1) = 0 and the antisymmetric-part normalization force the
        # Poisson class itself; no residual freedom survives the normalization.
        return MCReport(order=1, status="solved", basis_size=1,
                        matrix_shape=(1, 1), affine_dim=0,
                        solution=poisson_class_sum())
    if antisymmetric_part(series.order(1)) != poisson_class_sum():
        raise GraphError("missing normalization: order 1 must be the Poisson class")

    defect = mc_defect(series, k)
    blocks = []
    feasible = True
    for n in range(1, k + 1):
        block = _solve_count_block(n, defect.restrict_count(n), wheel_free,
                                   nonzero_cap)
        blocks.append(block)
        if not block["feasible"]:
            feasible = False
    stray = [n for n in defect.internal_counts() if n > k]
    if stray:
        # counts above k have no unknowns and no relaxation at this order
        feasible = False

    basis_size = sum(len(b["basis"]) for b in blocks)
    shape = (sum(b["shape"][0] for b in blocks), sum(b["shape"][1] for b in blocks))
    block_summaries = [{
        "count": b["count"],
        "basis_size": len(b["basis"]),
        "generator_count": len(b["generators"]),
        "shape": list(b["shape"]),
        "rank": b["rank"],
        "feasible": b["feasible"],
    } for b in blocks]

    if feasible:
        solution = GraphSum.zero(2)
        residual = defect
        affine = 0
        for b in blocks:
            solution = solution + _block_solution(b)
            residual = residual + _block_leibniz_sum(b)
            affine += projected_span(b["nullspace"], len(b["basis"])).rank
        # the witness: the generator columns enter the system unnegated, so
        # delta(c_k) + defect + sum_i lambda_i L_i must vanish as a GraphSum
        if not (graph_delta(solution) + residual).is_zero:
            raise AssertionError("solution failed the witness check at order %d: "
                                 "delta(c_k) + defect + sum lambda_i L_i != 0" % k)
        return MCReport(order=k, status="solved", basis_size=basis_size,
                        matrix_shape=shape, affine_dim=affine,
                        solution=solution, blocks=block_summaries)

    # graph-level obstruction: ground it with the evaluation route
    report = eval_obstruction(series, k, fixtures=None, seed=seed,
                              wheel_free=wheel_free)
    report.blocks = block_summaries
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
    monos = [e for e in _cubic_exponents()]
    total = Poly.zero(3)
    picks = rng.sample(range(len(monos)), 4)
    for i in picks:
        coeff = rng.choice([-3, -2, -1, 1, 2, 3])
        total = total + Poly.monomial(3, monos[i], coeff)
    return total


def _cubic_exponents():
    out = []
    for a in range(4):
        for b in range(4 - a):
            out.append((a, b, 3 - a - b))
    return out


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


def _bracket_pairs(series: StarSeries, k: int) -> list:
    """-(1/2) sum_{a+b=k} [c_a, c_b] as sum weight * [D_a c_a, D_b c_b]:
    one (D_a c_a, D_b c_b, weight) per pair a <= b, D_a the LCM of the
    denominators of the coefficients of c_a (so D_a c_a is integral) and
    weight -1/(2^[a=b] D_a D_b), since [c_a, c_b] = [c_b, c_a] for arity-2
    cochains."""
    integral = {}
    for a in range(1, k):
        c_a = series.order(a)
        denom = math.lcm(*(coeff.denominator for _, coeff in c_a.terms()))
        integral[a] = (c_a.scale(denom), denom)
    pairs = []
    for a in range(1, k // 2 + 1):
        (c_a, d_a), (c_b, d_b) = integral[a], integral[k - a]
        pairs.append((c_a, c_b, Fraction(-1, (2 if 2 * a == k else 1) * d_a * d_b)))
    return pairs


STALL_WINDOW = 250  # consecutive rank-neutral triples before a feed is cut short


def eval_obstruction(series: StarSeries, k: int, fixtures=None, *, seed: int = 0,
                     wheel_free: bool = True) -> MCReport:
    """Stack the evaluated equations
        sum_j x_j delta(B_j)(f, g, h) = -(1/2) sum_{a+b=k} [c_a, c_b](f, g, h)
    over concrete Poisson structures, one row per monomial of the values,
    where B_j runs over the (wheel-free) basis classes with 1..k internal
    vertices.  Both sides are evaluated at operator level: the rows of a
    triple by one ``CoboundaryColumns`` pass over all basis columns, the
    right-hand side by ``oracle_gerstenhaber`` once per pair a <= b (the
    bracket of arity-2 cochains is symmetric), on the integral sums
    D_a c_a with one weight -1/(2^[a=b] D_a D_b) per pair
    (``_bracket_pairs``).  So the fixtures, the arguments and every
    compiled operator keep ``int`` coefficients, and Fractions enter only
    through these weights and in the reducer's elimination.  Infeasibility
    of the stacked system is a sound obstruction certificate for the given
    c_1..c_{k-1}; feasibility alone is inconclusive.  The verdict is always
    re-checked by a second elimination with Markowitz pivoting.

    ``fixtures`` is a list of (PoissonStructure, [argument tuples]), each fed
    in full.  When None, the fixture-growth policy feeds so3, then sl2, then
    two jacobian cubics, in rounds over the argument-degree caps 2, 4 and 8;
    a round feeds each fixture the triples new at its cap, and a feed is cut
    short after ``STALL_WINDOW`` consecutive triples that raise no rank.  The
    rank is recorded after every feed, and growth stops at the first
    inconsistency, or once every fixture has been fed and the last three
    recorded ranks are equal, or when the cap would pass 8."""
    basis: list[GraphClass] = []
    for n in range(1, k + 1):
        basis.extend(_wheel_basis(n, wheel_free))
    columns = [GraphSum.single(cls.rep) for cls in basis]
    lower = _bracket_pairs(series, k)
    reducer = StreamingReducer()
    used: list[dict] = []

    def feed(p: PoissonStructure, triples, exhaustive: bool) -> bool:
        """Returns True when an inconsistency was found."""
        if not p.is_poisson:
            raise DimensionError("evaluation fixtures must be Poisson structures "
                                 "(%s fails the Jacobi identity)" % p.label)
        delta = CoboundaryColumns(columns, p)  # operators cached on p after the first feed
        stall = 0
        count = 0
        for triple in triples:
            count += 1
            row_polys = delta.values(triple)
            rhs_poly = Poly.zero(p.d)
            for c_a, c_b, weight in lower:
                rhs_poly = rhs_poly + oracle_gerstenhaber(c_a, c_b, p, triple).scale(weight)
            exps = set()
            for poly in row_polys:
                exps.update(poly.terms)
            exps.update(rhs_poly.terms)
            progressed = False
            for e in sorted(exps):
                row = {}
                for col, poly in enumerate(row_polys):
                    c = poly.terms.get(e)
                    if c:
                        row[col] = c
                outcome = reducer.add_row(row, rhs_poly.terms.get(e, 0))
                if outcome == "inconsistent":
                    used.append({"fixture": p.label, "triples_evaluated": count,
                                 "args": [str(x) for x in triple]})
                    return True
                if outcome == "pivot":
                    progressed = True
            stall = 0 if progressed else stall + 1
            if not exhaustive and stall >= STALL_WINDOW:
                break
        used.append({"fixture": p.label, "triples_evaluated": count})
        return False

    policy = "explicit"
    if fixtures is not None:
        infeasible = False
        for p, triples in fixtures:
            if feed(p, triples, exhaustive=True):
                infeasible = True
                break
        ranks = [reducer.rank]
    else:
        policy = "fixture_growth"
        infeasible = False
        ranks = []
        family = policy_fixtures(seed)
        prev_cap, cap = 0, 2
        while True:
            # one round: feed the triples new at this cap, fixture by fixture
            for p in family:
                if feed(p, triples_by_total_degree(p.d, cap, prev_cap),
                        exhaustive=False):
                    infeasible = True
                    break
                ranks.append(reducer.rank)
                # every fixture must have been fed once before the
                # rank-stabilization stop may fire
                if (len(ranks) >= len(family) + 2
                        and ranks[-1] == ranks[-2] == ranks[-3]):
                    break
            else:
                prev_cap, cap = cap, cap * 2
                if cap > 8:
                    break
                continue
            break

    certificate = {
        "kind": "evaluated_system_infeasible" if infeasible else "evaluated_system_feasible",
        "policy": policy,
        "fixtures": used,
        "unknowns": len(basis),
        "rows_collected": len(reducer.raw_rows),
        "rank_coefficient": reducer.rank,
        "rank_augmented": reducer.rank + (1 if reducer.inconsistent else 0),
        "round_ranks": ranks,
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


def cocycle_kernel(n: int, wheel_free: bool = True, modulo_leibniz: bool = False,
                   nonzero_cap: int = DEFAULT_MATRIX_NONZERO_CAP) -> list:
    """Exact nullspace basis of the graph differential on the chosen span of
    arity-2 classes with n internal vertices, optionally modulo the Leibniz
    span; returned as GraphSums."""
    if n < 1:
        raise GraphError("need n >= 1, got %d" % n)
    basis = _wheel_basis(n, wheel_free)
    generators = leibniz_generators(n, 3) if (modulo_leibniz and n >= 2) else []
    columns = _images(basis) + [gen.expansion for gen in generators]
    rows, _ = _assemble(columns)
    ech = echelon(rows, None, len(columns), "markowitz", nonzero_budget=nonzero_cap)
    span = projected_span(ech.nullspace(), len(basis))
    return [GraphSum(2, [(basis[col].rep, coeff) for col, coeff in row.items()])
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
            h[j] = Fraction(a)
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
                nonzero_cap: int = DEFAULT_MATRIX_NONZERO_CAP,
                order_cap: int = DEFAULT_ORDER_CAP):
    """Build a series order by order; returns (series, [MCReport]).  Solving
    stops after the first order whose status is not ``solved`` (obstructed
    or inconclusive); that order's report is the last one."""
    series = StarSeries({})
    reports = []
    for k in range(1, max_order + 1):
        report = solve_order(series, k, wheel_free=wheel_free,
                             nonzero_cap=nonzero_cap, order_cap=order_cap,
                             seed=seed)
        reports.append(report)
        if report.status != "solved":
            break
        series = series.with_order(k, report.solution)
    return series, reports
