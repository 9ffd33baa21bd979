"""Seeded inputs, operations and output checks of the benchmark workloads.

Each workload turns a seed into inputs (``prepare``) and then runs a fixed
list of operations on them (``operations``).  Every operation carries a
check of its output; a check that fails, or an operation that raises, counts
as one failed operation and the run goes on.

The seed changes coefficients, orders and samples but never the amount of
work: the Jacobi triple always uses the same three K_{2,2} classes, the
cubic potential always has the same monomial shape up to a permutation of
the variables, and the triple sample always takes the same number of
triples from each argument-degree pattern.  Runs on different seeds are
therefore comparable.

Engine functions are looked up through their modules at call time, so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from stargraphs import homology, operators, poisson, solver
from stargraphs.graphs import GraphSum
from stargraphs.poly import Poly, monomials_up_to_degree

# Three of the four K_{2,2} classes.  Together with the fourth class the
# graded Jacobi sum costs about twice as much, so the set is fixed and the
# seed only assigns coefficients and the order of the slots.
JACOBI_CLASSES = ("2 2 ; 3: 1 2 / 4: 1 3",
                  "2 2 ; 3: 1 2 / 4: 2 3",
                  "2 2 ; 3: 1 4 / 4: 2 3")

KERNEL_DIMENSIONS = {True: 12, False: 118}  # cocycle_kernel(4, w, modulo_leibniz)

# Triples per (deg f, deg g, deg h) pattern with degrees in {1, 2}; the
# eval-linear sample has 8 * TRIPLES_PER_PATTERN triples.
TRIPLES_PER_PATTERN = 16


@dataclass
class Operation:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # failure message, None when correct


@dataclass
class Inputs:
    workload: str
    seed: int
    series: object = None  # lower-order StarSeries (eval-* only)
    fixtures: list = None  # [(PoissonStructure, [argument triples])] (eval-* only)
    jacobi_terms: list = None  # [(encoding, Fraction)] (graph-level only)

    def digest(self) -> str:
        """Hash of the generated inputs, equal for equal inputs."""
        lines = [self.workload]
        if self.jacobi_terms is not None:
            lines += ["%s\t%s" % (coeff, enc) for enc, coeff in self.jacobi_terms]
        for p, triples in self.fixtures or ():
            lines.append(p.label)
            lines += ["%s; %s; %s" % triple for triple in triples]
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _nonzero_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))


def _linear_sample(rng: random.Random) -> list:
    by_degree = {deg: monomials_up_to_degree(3, deg, min_degree=deg) for deg in (1, 2)}
    triples = []
    for pattern in itertools.product((1, 2), repeat=3):
        pool = list(itertools.product(*(by_degree[deg] for deg in pattern)))
        triples += rng.sample(pool, TRIPLES_PER_PATTERN)
    rng.shuffle(triples)
    return triples


def _cubic_potential(rng: random.Random) -> Poly:
    """c1 x_i^3 + c2 x_j^3 + c3 x_i^2 x_k for a seeded permutation (i, j, k)."""
    i, j, k = rng.sample(range(3), 3)
    total = Poly.zero(3)
    for powers in ({i: 3}, {j: 3}, {i: 2, k: 1}):
        exps = tuple(powers.get(v, 0) for v in range(3))
        total = total + Poly.monomial(3, exps, rng.choice([-3, -2, -1, 1, 2, 3]))
    return total


def prepare(workload: str, seed: int) -> Inputs:
    """Generate the workload's inputs from the seed (the set-up phase)."""
    if workload not in ("graph-level", "eval-linear", "eval-cubic"):
        raise ValueError("unknown workload %r" % workload)
    rng = random.Random("%s:%d" % (workload, seed))
    inputs = Inputs(workload, seed)
    if workload == "graph-level":
        order = rng.sample(JACOBI_CLASSES, 3)
        inputs.jacobi_terms = [(enc, _nonzero_fraction(rng)) for enc in order]
        return inputs
    inputs.series, _ = solver.solve_up_to(3, wheel_free=True)
    if workload == "eval-linear":
        triples = _linear_sample(rng)
        inputs.fixtures = [(poisson.preset_poisson("so3"), triples),
                           (poisson.preset_poisson("sl2"), triples)]
    else:
        deg1 = monomials_up_to_degree(3, 1)
        triples = list(itertools.product(deg1, repeat=3))
        rng.shuffle(triples)
        q = _cubic_potential(rng)
        inputs.fixtures = [(poisson.preset_poisson("jacobian", q), triples)]
    return inputs


# -- checks ---------------------------------------------------------------------

def check_solved(result) -> str | None:
    series, reports = result
    statuses = [r.status for r in reports]
    if statuses != ["solved"] * 3:
        return "orders 1-3 returned %s" % statuses
    for k in (1, 2, 3):
        if not solver.verify_order(series, k, "markowitz"):
            return "order %d failed verify_order" % k
    return None


def check_defect(result) -> str | None:
    if result.arity != 3 or result.is_zero:
        return "order-4 defect has arity %d and %d terms" % (result.arity, len(result))
    if not set(result.internal_counts()) <= {2, 3, 4}:
        return "order-4 defect has internal counts %s" % (result.internal_counts(),)
    return None


def check_kernel(expected: int):
    def check(result) -> str | None:
        if len(result) != expected:
            return "kernel dimension %d, expected %d" % (len(result), expected)
        return None
    return check


def check_zero_sum(result) -> str | None:
    if result != GraphSum.zero(result.arity):
        return "graded Jacobi sum has %d terms" % len(result)
    return None


def check_eval(result) -> str | None:
    if result.status == "solved":
        return "evaluation route returned solved"
    cert = result.certificate
    rank, unknowns = cert["rank_coefficient"], cert["unknowns"]
    reverified = cert["reverified"]["rank_coefficient"]
    if rank != reverified:
        return "rank %d, reverified rank %d" % (rank, reverified)
    if rank > unknowns:
        return "rank %d exceeds %d unknowns" % (rank, unknowns)
    return None


def check_zero_operator(result) -> str | None:
    if not result.is_zero:
        return "residual compiles to an operator with %d terms" % len(result.terms)
    return None


# -- operations -----------------------------------------------------------------

def _jacobi_sum(terms) -> GraphSum:
    a, b, c = (GraphSum(2, [(enc, coeff)]) for enc, coeff in terms)
    bracket = homology.graph_gerstenhaber
    return (bracket(bracket(a, b), c) + bracket(bracket(b, c), a)
            + bracket(bracket(c, a), b))


def _residual(series, k: int, p):
    residual = homology.graph_delta(series.order(k)) + solver.mc_defect(series, k)
    return operators.compile_sum(residual, p)


def operations(inputs: Inputs) -> list:
    if inputs.workload == "graph-level":
        state = {}

        def solve(wheel_free):
            def run():
                state[wheel_free] = solver.solve_up_to(3, wheel_free=wheel_free)
                return state[wheel_free]
            return run

        return [
            Operation("solve_up_to(3, wheel_free=True)", solve(True), check_solved),
            Operation("solve_up_to(3, wheel_free=False)", solve(False), check_solved),
            Operation("mc_defect(series, 4)",
                      lambda: solver.mc_defect(state[True][0], 4), check_defect),
        ] + [
            Operation("cocycle_kernel(4, wheel_free=%s)" % w,
                      lambda w=w: solver.cocycle_kernel(4, wheel_free=w,
                                                        modulo_leibniz=True),
                      check_kernel(KERNEL_DIMENSIONS[w]))
            for w in (True, False)
        ] + [
            Operation("graded Jacobi sum", lambda: _jacobi_sum(inputs.jacobi_terms),
                      check_zero_sum),
        ]
    series = inputs.series
    ops = [Operation("eval_obstruction(series, 4)",
                     lambda: solver.eval_obstruction(series, 4, fixtures=inputs.fixtures),
                     check_eval)]
    for k in (2, 3):
        for p, _ in inputs.fixtures:
            ops.append(Operation("residual(order %d, %s)" % (k, p.label),
                                 lambda k=k, p=p: _residual(series, k, p),
                                 check_zero_operator))
    return ops


def run_operations(ops) -> tuple:
    """Run every operation and its check; returns (attempted, failures) with
    one "name: message" entry per failed operation."""
    failures = []
    for op in ops:
        try:
            message = op.check(op.run())
        except Exception as exc:  # a crashing operation is a failed one
            message = "%s: %s" % (type(exc).__name__, exc)
        if message is not None:
            failures.append("%s: %s" % (op.name, message))
    return len(ops), failures
